"""Oracle kernels behind every golden table under goldens/sf0.01/.

Provenance contract: a golden is generated by an algorithm family
INDEPENDENT of the engine's hot path, at the driver's correctness scale
(sf0.01 ↔ 10k-image fixture, sources/corpus.py scale_for_sf_dir),
compared with the engine before it is written (tools/make_goldens.py), and
committed under goldens/sf0.01/. The gate's SQL entries are then
``SELECT * FROM read_parquet('<golden>')``.

Two shapes of oracle live here:

- per-image oracles see every decoded image of the golden frontier once,
  through ``add(iid, px)``, and return their golden from ``frame()``. The
  histogram ones are a ``Hist`` over a per-image key function; a key
  function that has an engine twin asserts equality per image, so a
  mismatch names the image.
- whole-set oracles are plain functions of the fixture, the corpus or the
  sf dir's tables.

From the engine this module imports only the per-image kernels the checks
compare against and the specs both sides share: the codecs, the gray
conversion ``_luma_gray``, the curation gates and the media generators. It
never calls engine execution code.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import zlib
from fractions import Fraction

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from cninfo_crawler_ray.functions import codecs as CC
from cninfo_crawler_ray.pipelines import media
from cninfo_crawler_ray.pipelines.images import (
    CURATION_GATES, _luma_gray, block_variance_milli, centroid_offset_pm,
    colorfulness_var_num, euler4_quads, glcm_contrast_scaled,
    orientation_class_counts, otsu_threshold, palette_size, rg_cov_scaled,
    spread_pm, tile_dup_pm)

_BIG = np.iinfo(np.int64).max


# --- per-image accumulators ---------------------------------------------------

class Hist:
    """One count per decoded image under ``key(iid, px)`` (``None`` skips
    the image); the golden has one row per key in key order, every column
    int64. A tuple key fills one column per element."""

    def __init__(self, key, cols=("bucket", "n")):
        self.key, self.cols, self.counts = key, cols, {}

    def add(self, iid: str, px: np.ndarray) -> None:
        k = self.key(iid, px)
        if k is not None:
            self.counts[k] = self.counts.get(k, 0) + 1

    def frame(self) -> pd.DataFrame:
        rows = [(*k, n) if isinstance(k, tuple) else (k, n)
                for k, n in sorted(self.counts.items())]
        return pd.DataFrame(rows, columns=list(self.cols)).astype("int64")


class Rows:
    """One row ``(iid, *row(px))`` per decoded image, in frontier order."""

    def __init__(self, row, cols, finish=lambda df: df):
        self.row, self.cols, self.finish, self.rows = row, cols, finish, []

    def add(self, iid: str, px: np.ndarray) -> None:
        self.rows.append((iid, *self.row(px)))

    def frame(self) -> pd.DataFrame:
        return self.finish(pd.DataFrame(self.rows, columns=self.cols))


# --- crawl (stage 1 + stage 2 from the per-row oracle, tests/oracle_impl.py) --

FRONTIER_COLS = ["股票代码", "公司名称", "财报名称", "报告日期", "PDF链接",
                 "order_key"]


def crawl_frontier(frontier: pd.DataFrame) -> pd.DataFrame:
    return frontier[FRONTIER_COLS].reset_index(drop=True)


def wide_report(o_wide: pd.DataFrame) -> pd.DataFrame:
    g_wide = o_wide.copy()
    g_wide["是否包含数据资产"] = g_wide["是否包含数据资产"].astype("int64")
    return g_wide


def fetch_decode_stats(o_long: pd.DataFrame) -> pd.DataFrame:
    docs = o_long.drop_duplicates("PDF链接")[["PDF链接", "_has_data_resource"]]
    return (
        docs.assign(fmt=docs["PDF链接"].str.rsplit(".", n=1).str[-1])
        .groupby("fmt", as_index=False)
        .agg(n_docs=("PDF链接", "size"), n_with_flag=("_has_data_resource", "sum"))
        .astype({"n_docs": "int64", "n_with_flag": "int64"})
    )


# --- near-dup pairs and clusters ----------------------------------------------

def hamming_pairs(h: np.ndarray, ids: np.ndarray) -> pd.DataFrame:
    """BRUTE-FORCE hamming ≤ 2 over a u64 hash column (chunked XOR
    popcount, no LSH). With 4 16-bit bands, any pair at hamming ≤ 3 shares
    at least one untouched band (pigeonhole), so the engine's banded LSH
    provably recovers EVERY pair at the queries' max_hamming=2 — brute
    force is an exact, independent oracle for it. Serves phash (over the
    corpus column) and dhash (over the decoded frontier)."""
    pairs_a, pairs_b = [], []
    chunk = 512
    for lo in range(0, len(h), chunk):
        x = h[lo:lo + chunk, None] ^ h[None, :]
        ham = np.unpackbits(x.view(np.uint8).reshape(x.shape[0], x.shape[1], 8),
                            axis=2).sum(axis=2)
        ii, jj = np.nonzero(ham <= 2)
        glob_i = ii + lo
        keep = glob_i < jj  # each unordered pair once
        pairs_a.extend(ids[glob_i[keep]])
        pairs_b.extend(ids[jj[keep]])
    pa_arr, pb_arr = np.asarray(pairs_a, dtype=object), np.asarray(pairs_b, dtype=object)
    swap = pa_arr > pb_arr
    a = np.where(swap, pb_arr, pa_arr)
    b = np.where(swap, pa_arr, pb_arr)
    return (pd.DataFrame({"image_a": a, "image_b": b})
            .drop_duplicates()
            .sort_values(["image_a", "image_b"])
            .reset_index(drop=True))


def phash_near_dup(corpus: pd.DataFrame) -> pd.DataFrame:
    return hamming_pairs(corpus["phash"].to_numpy().view(np.uint64),
                         corpus["image_id"].to_numpy())


class DhashPairs:
    """image_dhash_near_dup: the engine runs banded LSH (4 × 16-bit bands)
    with a hamming ≤ 2 verify; the golden brute-forces hamming over the
    full dhash column of the decoded frontier (``hamming_pairs``)."""

    def __init__(self):
        self.ids: list[str] = []
        self.vals: list[int] = []

    def add(self, iid: str, px: np.ndarray) -> None:
        self.ids.append(iid)
        self.vals.append(CC.dhash64(px))

    def frame(self) -> pd.DataFrame:
        return hamming_pairs(np.asarray(self.vals, dtype=np.int64).view(np.uint64),
                             np.asarray(self.ids))


def union_find(pairs, ids) -> list[int]:
    """Classic sequential UNION-FIND (path compression, the smaller root
    wins) over a pair list → each id's component label, the min id of its
    component. An independent algorithm family from the engine's min-label
    propagation over Datasets."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(i) for i in ids]


def image_dup_clusters(pairs: pd.DataFrame, corpus: pd.DataFrame) -> pd.DataFrame:
    """Union-find over the brute-force phash pair list."""
    ids = corpus["image_id"].to_numpy()
    labels = union_find(((int(ia[4:]), int(ib[4:]))
                         for ia, ib in zip(pairs["image_a"], pairs["image_b"])),
                        [int(s[4:]) for s in ids])
    return pd.DataFrame({
        "image_id": ids,
        "cluster_id": np.asarray(labels, dtype=np.int64),
    }).sort_values("image_id").reset_index(drop=True)


class RegionPairs:
    """region-near-dup golden: per-quadrant region signature (avg-hash +
    mean//8 + var//64) over the frontier image set, pairs via a plain dict
    bucket index (no LSH machinery) — counts of matching quadrant
    positions per unordered pair."""

    def __init__(self):
        self.qbuckets: dict[str, list[str]] = {}

    def add(self, iid: str, px: np.ndarray) -> None:
        h, w = px.shape[:2]
        for qi, (r0, r1, c0, c1) in enumerate(
                ((0, h // 2, 0, w // 2), (0, h // 2, w // 2, w),
                 (h // 2, h, 0, w // 2), (h // 2, h, w // 2, w))):
            qq = px[r0:r1, c0:c1]
            gg = qq.astype(np.float32).mean(axis=2)
            self.qbuckets.setdefault(
                f"{qi}:{CC.phash64(qq)}:{int(gg.mean()) // 8}:{int(gg.var()) // 64}",
                []).append(iid)

    def frame(self) -> pd.DataFrame:
        pair_counts: dict[tuple[str, str], int] = {}
        for members in self.qbuckets.values():
            ms = sorted(members)
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    if ms[i] != ms[j]:
                        pair_counts[(ms[i], ms[j])] = pair_counts.get((ms[i], ms[j]), 0) + 1
        return (pd.DataFrame(
            [(a, b, n) for (a, b), n in pair_counts.items()],
            columns=["image_a", "image_b", "n_quads"])
            .astype({"n_quads": "int64"})
            .sort_values(["image_a", "image_b"]).reset_index(drop=True))


# --- per-image features, resize ----------------------------------------------

def block_means(px: np.ndarray) -> np.ndarray:
    """image-features golden: the 2×2 block-mean features straight from the
    decoded corpus bytes — an independent path around the fetch/decode
    stages."""
    h, w = px.shape[:2]
    g = px[: h - h % 2, : w - w % 2].reshape(2, h // 2, 2, w // 2, 3).mean(axis=(1, 3))
    return np.round(g.mean(axis=2)).astype(np.int64).flatten()


def oracle_resize(px, oh, ow):
    """image-thumbnails golden: independent area-mean resize — explicit
    per-output-pixel box loop with slicing means (the engine uses a
    summed-area table; same spec boxes floor(i*h/oh)..floor((i+1)*h/oh),
    degenerate boxes widened to one row/col) — then the shared container
    encoder and a crc32."""
    hh, ww = px.shape[:2]
    out = np.empty((oh, ow, 3), dtype=np.uint8)
    for i in range(oh):
        r0, r1 = (i * hh) // oh, max(((i + 1) * hh) // oh, (i * hh) // oh + 1)
        for j in range(ow):
            c0, c1 = (j * ww) // ow, max(((j + 1) * ww) // ow, (j * ww) // ow + 1)
            out[i, j] = np.round(
                px[r0:r1, c0:c1].astype(np.float64).mean(axis=(0, 1)))
    return out


def thumbnail_row(px: np.ndarray) -> tuple[int, float]:
    th = oracle_resize(px, 8, 8)
    enc = CC.encode_image(th, "raw")
    return zlib.crc32(enc), float(th.mean())


def thumbnails_finish(df: pd.DataFrame) -> pd.DataFrame:
    return (df.astype({"thumb_crc32": "int64"})
            .sort_values("image_id").reset_index(drop=True))


# --- histogram keys: luma, dominant color -------------------------------------

def luma_bucket(iid: str, px: np.ndarray) -> int:
    """Per-image mean Rec.709 luma ×10⁴, computed by the CHANNEL-SUM
    factorization (2126·ΣR + 7152·ΣG + 722·ΣB — the engine sums per-pixel
    lumas; identical exact integers, different path), floor-divided mean,
    10-unit buckets."""
    p = px.astype(np.int64)
    s = (2126 * int(p[:, :, 0].sum()) + 7152 * int(p[:, :, 1].sum())
         + 722 * int(p[:, :, 2].sum()))
    mean10k = s // (px.shape[0] * px.shape[1])
    return mean10k // 100_000


def dominant_color(iid: str, px: np.ndarray) -> int:
    """64-bucket (2 bits/channel) counts via np.unique with an explicit
    min-over-maxima tie rule (the engine's bincount argmax)."""
    p = px.astype(np.int64)
    qv = ((p[:, :, 0] >> 6) << 4) | ((p[:, :, 1] >> 6) << 2) | (p[:, :, 2] >> 6)
    vals, cnts = np.unique(qv.ravel(), return_counts=True)
    mx = cnts.max()
    return int(min(v for v, c in zip(vals, cnts) if c == mx))


# --- histogram keys: gradient energy, channel cast ----------------------------

def grad_factorized(px: np.ndarray) -> int:
    """Factorized gradient energy: the engine sums Σ(a−b)² directly via one
    vectorized diff; this evaluates the algebraic factorization
    Σa² + Σb² − 2Σab over separate accumulations, horizontal and vertical
    neighbor sets apart — identical exact integers (per-term ≤ 255², ≤ ~5e5
    terms per image) when (and only when) the engine's kernel is right."""
    g = px[:, :, 1].astype(np.int64)
    a, b = g[:, :-1], g[:, 1:]
    e = int((a * a).sum()) + int((b * b).sum()) - 2 * int((a * b).sum())
    c, d = g[:-1, :], g[1:, :]
    e += int((c * c).sum()) + int((d * d).sum()) - 2 * int((c * d).sum())
    n_terms = a.size + c.size
    return 100 * e // n_terms


def gradient_energy_bucket(iid: str, px: np.ndarray) -> int:
    return grad_factorized(px) // 500


def channel_cast_bucket(iid: str, px: np.ndarray) -> int:
    """Per-channel sums via the BINCOUNT factorization Σ v·count_v (engine:
    direct int64 channel sums)."""
    s = []
    for c in range(3):
        bc = np.bincount(px[:, :, c].ravel(), minlength=256)
        s.append(int((np.arange(256, dtype=np.int64) * bc).sum()))
    ppm = ((max(s) - min(s)) * 1_000_000) // (s[0] + s[1] + s[2])
    return ppm // 1000


# --- histogram keys: border contrast, quadrant range, mirror asymmetry --------

def _lum(px: np.ndarray) -> np.ndarray:
    p = px.astype(np.int64)
    return 2126 * p[:, :, 0] + 7152 * p[:, :, 1] + 722 * p[:, :, 2]


def border_contrast_bucket(iid: str, px: np.ndarray) -> int | None:
    """The engine sums the 4-pixel border ring as four explicit slabs; the
    golden derives ring = whole − interior. The two decompositions agree
    exactly iff the slab indexing is right."""
    lum = _lum(px)
    h, w = lum.shape
    if h > 8 and w > 8:
        whole = int(lum.sum())
        int_sum = int(lum[4:-4, 4:-4].sum())
        int_n = (h - 8) * (w - 8)
        ring_sum = whole - int_sum
        ring_n = h * w - int_n
        diff = ring_sum // ring_n - int_sum // int_n
        return diff // 100_000
    return None


def quadrant_range_bucket(iid: str, px: np.ndarray) -> int | None:
    """The engine slices the four quadrants directly; the golden reads the
    same sums off a 2-D summed-area table (corner arithmetic)."""
    lum = _lum(px)
    h, w = lum.shape
    hh, ww = h // 2, w // 2
    if hh and ww:
        sat = lum.cumsum(axis=0).cumsum(axis=1)

        def rect(r0: int, r1: int, c0: int, c1: int) -> int:
            # sum over rows [r0, r1), cols [c0, c1) from SAT corners
            s = int(sat[r1 - 1, c1 - 1])
            if r0:
                s -= int(sat[r0 - 1, c1 - 1])
            if c0:
                s -= int(sat[r1 - 1, c0 - 1])
            if r0 and c0:
                s += int(sat[r0 - 1, c0 - 1])
            return s

        q = [rect(0, hh, 0, ww), rect(0, hh, ww, w),
             rect(hh, h, 0, ww), rect(hh, h, ww, w)]
        tot = sum(q)
        if tot > 0:
            return (max(q) - min(q)) * 1000 // tot
    return None


def mirror_asymmetry_bucket(iid: str, px: np.ndarray) -> int:
    """The engine evaluates Σ(g − flip g)² directly; the golden evaluates
    2Σg² − 2Σ(g·flip g)."""
    g = px.astype(np.int64)[:, :, 1]
    gf = g[:, ::-1]
    a = 2 * int((g * g).sum()) - 2 * int((g * gf).sum())
    per_px = a // g.size
    return per_px.bit_length()


# --- histogram keys: Otsu threshold, RLE ratio, Euler number ------------------
# Each is checked against its engine kernel per image.

def otsu_within_class(hist: np.ndarray) -> int:
    """argmin_t of the within-class variance numerator
    (Q0 − S0²/w0) + (Q1 − S1²/w1), exact Fractions, ties to smallest t.
    The engine MAXIMIZES between-class variance by integer
    cross-multiplication; σ_total² = σ_w² + σ_b² makes the extrema coincide
    — equivalent math, disjoint code."""
    idx = list(range(256))
    n = int(sum(hist))
    q_tot = sum(i * i * int(h) for i, h in zip(idx, hist))
    s_tot = sum(i * int(h) for i, h in zip(idx, hist))
    best_t, best_v = 0, None
    w0 = s0 = q0 = 0
    for t in range(255):
        w0 += int(hist[t])
        s0 += t * int(hist[t])
        q0 += t * t * int(hist[t])
        if w0 == 0 or w0 == n:
            continue
        v = (Fraction(q0) - Fraction(s0 * s0, w0)) \
            + (Fraction(q_tot - q0) - Fraction((s_tot - s0) ** 2, n - w0))
        if best_v is None or v < best_v:
            best_t, best_v = t, v
    return best_t


def rle_runs_groupby(b: np.ndarray) -> int:
    """The engine counts runs as rows + vectorized neighbor transitions;
    the golden run-length-encodes every row with itertools.groupby."""
    return sum(len(list(itertools.groupby(row))) for row in b.tolist())


def _label_components(mask: np.ndarray, diag: bool) -> int:
    """Connected-component count by iterative min-label propagation."""
    if not mask.any():
        return 0
    lab = np.where(mask,
                   np.arange(mask.size, dtype=np.int64).reshape(mask.shape),
                   _BIG)
    shifts = [(0, 1), (0, -1), (1, 0), (-1, 0)]
    if diag:
        shifts += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    while True:
        new = lab.copy()
        for dy, dx in shifts:
            sh = np.full_like(lab, _BIG)
            ys = slice(max(dy, 0), lab.shape[0] + min(dy, 0))
            yd = slice(max(-dy, 0), lab.shape[0] + min(-dy, 0))
            xs = slice(max(dx, 0), lab.shape[1] + min(dx, 0))
            xd = slice(max(-dx, 0), lab.shape[1] + min(-dx, 0))
            sh[yd, xd] = lab[ys, xs]
            new = np.minimum(new, sh)
        new[~mask] = _BIG
        if (new == lab).all():
            break
        lab = new
    return len(np.unique(lab[mask]))


def euler_flood(b: np.ndarray) -> int:
    """Components(4-conn fg) − holes(8-conn bg not touching the border).
    The engine uses the Pratt/Gray 2×2 quad-count formula; the golden
    flood-fills (numpy min-label propagation)."""
    comps = _label_components(b, diag=False)
    # pad with a background ring so the outside is ONE border region
    bg = ~np.pad(b, 1, constant_values=False)
    regions = _label_components(bg, diag=True)
    return comps - (regions - 1)


def otsu_key(iid: str, px: np.ndarray) -> int:
    hist = np.bincount(_luma_gray(px).ravel(), minlength=256)
    t_gold = otsu_within_class(hist)
    t_eng = otsu_threshold(hist)
    assert t_gold == t_eng, (iid, t_gold, t_eng)
    return t_gold


def rle_ratio_bucket(iid: str, px: np.ndarray) -> int:
    b = _luma_gray(px) >= 128
    runs_gold = rle_runs_groupby(b)
    h, w = b.shape
    runs_eng = h + int((b[:, 1:] != b[:, :-1]).sum())
    assert runs_gold == runs_eng, (iid, runs_gold, runs_eng)
    return (runs_gold * 1000) // (h * w) // 25


def euler_key(iid: str, px: np.ndarray) -> int:
    b = _luma_gray(px) >= 128
    e_gold = euler_flood(b)
    e_eng = euler4_quads(b)
    assert e_gold == e_eng, (iid, e_gold, e_eng)
    return e_gold


# --- histogram keys: colorfulness, centroid offset, GLCM contrast -------------

def colorfulness_from_histograms(px: np.ndarray) -> tuple[int, int]:
    """(n·Σrg² − (Σrg)²) + (n·Σyb² − (Σyb)²) from per-value bincounts. The
    engine sums opponent-channel pixels directly (vectorized Σx, Σx²); this
    derives the SAME variance numerator from per-VALUE histograms (bincount
    moments combined in Python ints) — a disjoint accumulation order that
    only agrees if both moment pipelines are exact."""
    p = px.astype(np.int64)
    rg = (p[:, :, 0] - p[:, :, 1]).ravel()
    yb = (p[:, :, 0] + p[:, :, 1] - 2 * p[:, :, 2]).ravel()
    n = rg.size
    total = 0
    for vals, lo in ((rg, 255), (yb, 510)):
        counts = np.bincount(vals + lo, minlength=2 * lo + 1)
        s1 = sum(int(c) * (v - lo) for v, c in enumerate(counts) if c)
        s2 = sum(int(c) * (v - lo) ** 2 for v, c in enumerate(counts) if c)
        total += n * s2 - s1 * s1
    return total, n


def centroid_from_marginals(luma: np.ndarray) -> int:
    """The engine takes one full-2-D weighted sum per axis; the golden
    reduces to per-column / per-row MARGINALS first and dots them with the
    coordinate vector in Python ints."""
    h, w = luma.shape
    m = int(luma.sum())
    if m == 0 or w < 2 or h < 2:
        return 0
    col = [int(v) for v in luma.sum(axis=0)]
    row = [int(v) for v in luma.sum(axis=1)]
    sx = sum(x * c for x, c in enumerate(col))
    sy = sum(y * c for y, c in enumerate(row))
    x_pm = 1000 * abs(2 * sx - m * (w - 1)) // (m * (w - 1))
    y_pm = 1000 * abs(2 * sy - m * (h - 1)) // (m * (h - 1))
    return x_pm + y_pm


def glcm_contrast_factorized(gray: np.ndarray) -> int:
    """The engine builds the actual 8×8 co-occurrence matrix (bincount on
    the fused index) and dots it with the (i−j)² weight table; the golden
    never builds a matrix — it uses the algebraic factorization
    Σ(a−b)² = Σa² + Σb² − 2Σab over the left/right slices."""
    q = (gray >> 5).astype(np.int64)
    a, b = q[:, :-1], q[:, 1:]
    total = int((a * a).sum()) + int((b * b).sum()) - 2 * int((a * b).sum())
    return 1000 * total // a.size


def colorfulness_bucket(iid: str, px: np.ndarray) -> int:
    num_g, n_g = colorfulness_from_histograms(px)
    num_e, n_e = colorfulness_var_num(px)
    assert (num_g, n_g) == (num_e, n_e), (iid, num_g, num_e)
    return num_g // (n_g * n_g) // 500


def centroid_offset_bucket(iid: str, px: np.ndarray) -> int:
    g = _luma_gray(px)
    c_gold = centroid_from_marginals(g)
    c_eng = centroid_offset_pm(g)
    assert c_gold == c_eng, (iid, c_gold, c_eng)
    return c_gold // 25


def glcm_contrast_bucket(iid: str, px: np.ndarray) -> int:
    g = _luma_gray(px)
    t_gold = glcm_contrast_factorized(g)
    t_eng = glcm_contrast_scaled(g)
    assert t_gold == t_eng, (iid, t_gold, t_eng)
    return t_gold // 250


# --- histogram keys: spread, palette size, blockiness -------------------------

def spread_from_marginals(luma: np.ndarray) -> int:
    """The engine takes one full-2-D weighted sum over the separable d²
    grid; the golden reduces to row/column MARGINALS and dots them with the
    per-axis squared offsets in Python ints (the separability identity
    Σ luma·(dx²+dy²) = Σ_x colsum·dx² + Σ_y rowsum·dy²)."""
    h, w = luma.shape
    m = int(luma.sum())
    if m == 0 or (w < 2 and h < 2):
        return 0
    col = [int(v) for v in luma.sum(axis=0)]
    row = [int(v) for v in luma.sum(axis=1)]
    num = sum(c * (2 * x - (w - 1)) ** 2 for x, c in enumerate(col)) \
        + sum(r * (2 * y - (h - 1)) ** 2 for y, r in enumerate(row))
    dmax = (w - 1) ** 2 + (h - 1) ** 2
    return 1000 * num // (m * dmax)


def palette_size_unique(px: np.ndarray) -> int:
    """The engine counts nonzero bins of a 4096-wide bincount on the packed
    12-bit color; the golden counts len(np.unique(packed)) — sort-based vs
    bin-based distinct."""
    p = px.astype(np.int64)
    packed = ((p[:, :, 0] >> 4) << 8) | ((p[:, :, 1] >> 4) << 4) \
        | (p[:, :, 2] >> 4)
    return len(np.unique(packed))


def block_variance_reduceat(gray: np.ndarray) -> int:
    """The engine reshapes to (H/8, 8, W/8, 8) and reduces both moments per
    block; the golden computes block FIRST moments with np.add.reduceat
    along each axis and takes the second moment globally via the identity
    Σ_b 64·Σx²_b = 64·ΣX² over the cropped frame — a disjoint block
    geometry that only agrees if the tiling is right."""
    h8, w8 = gray.shape[0] // 8, gray.shape[1] // 8
    if h8 == 0 or w8 == 0:
        return 0
    g = gray[:h8 * 8, :w8 * 8].astype(np.int64)
    rows = np.add.reduceat(g, np.arange(0, h8 * 8, 8), axis=0)
    s1 = np.add.reduceat(rows, np.arange(0, w8 * 8, 8), axis=1)
    total_s2 = int((g * g).sum())  # Σ_b Σx²_b — block-independent identity
    num = 64 * total_s2 - int((s1 * s1).sum())
    return 1000 * num // (4096 * h8 * w8)


def spread_bucket(iid: str, px: np.ndarray) -> int:
    g = _luma_gray(px)
    s_gold, s_eng = spread_from_marginals(g), spread_pm(g)
    assert s_gold == s_eng, (iid, s_gold, s_eng)
    return s_gold // 25


def palette_size_bucket(iid: str, px: np.ndarray) -> int:
    p_gold, p_eng = palette_size_unique(px), palette_size(px)
    assert p_gold == p_eng, (iid, p_gold, p_eng)
    return p_gold // 32


def blockiness_bucket(iid: str, px: np.ndarray) -> int:
    g = _luma_gray(px)
    b_gold, b_eng = block_variance_reduceat(g), block_variance_milli(g)
    assert b_gold == b_eng, (iid, b_gold, b_eng)
    return b_gold // 250


# --- histogram keys: tile duplication, R/G covariance -------------------------

def tile_dup_from_set(gray: np.ndarray) -> int:
    """The engine reshape/swapaxes-packs 8×8 tiles into 64-byte voids and
    counts sort-based uniques; the golden slices each tile with explicit
    [y:y+8, x:x+8] indexing and counts a Python hash-set of .tobytes() —
    disjoint tiling assembly AND disjoint distinct algorithm."""
    h8, w8 = gray.shape[0] // 8, gray.shape[1] // 8
    if h8 == 0 or w8 == 0:
        return 0
    g = (gray >> 5).astype(np.uint8)
    seen = set()
    for ty in range(h8):
        for tx in range(w8):
            seen.add(g[ty * 8:ty * 8 + 8, tx * 8:tx * 8 + 8].tobytes())
    n_tiles = h8 * w8
    return 1000 * (n_tiles - len(seen)) // n_tiles


def rg_cov_from_joint_hist(px: np.ndarray) -> int:
    """The engine takes four direct pixel sums; the golden derives all four
    moments from ONE joint 65536-bin (r<<8|g) histogram in Python ints."""
    p = px.astype(np.int64)
    joint = ((p[:, :, 0] << 8) | p[:, :, 1]).ravel()
    counts = np.bincount(joint, minlength=65536)
    nz = np.nonzero(counts)[0]
    n = joint.size
    s_r = sum(int(c) * (v >> 8) for v, c in zip(nz, counts[nz]))
    s_g = sum(int(c) * (v & 255) for v, c in zip(nz, counts[nz]))
    s_rg = sum(int(c) * (v >> 8) * (v & 255) for v, c in zip(nz, counts[nz]))
    return (n * s_rg - s_r * s_g) // (n * n)


def tile_dup_bucket(iid: str, px: np.ndarray) -> int:
    g = _luma_gray(px)
    t_gold, t_eng = tile_dup_from_set(g), tile_dup_pm(g)
    assert t_gold == t_eng, (iid, t_gold, t_eng)
    return t_gold // 25


def rg_cov_bucket(iid: str, px: np.ndarray) -> int:
    c_gold, c_eng = rg_cov_from_joint_hist(px), rg_cov_scaled(px)
    assert c_gold == c_eng, (iid, c_gold, c_eng)
    return c_gold // 250


# --- histogram key: gradient orientation --------------------------------------

def class_counts_from_bins(gray: np.ndarray) -> np.ndarray:
    """The engine classifies each interior pixel with four vectorized
    boolean masks; the golden ENCODES every pixel as a 27-bin (sign dx,
    sign dy, cmp(|dx|,|dy|)) index, bincounts once, and maps bins to
    classes with a pure-Python lookup — a disjoint decision structure that
    only agrees if both class definitions are exactly the stated one."""
    g = gray.astype(np.int64)
    dx = g[1:-1, 2:] - g[1:-1, :-2]
    dy = g[2:, 1:-1] - g[:-2, 1:-1]
    sx = np.sign(dx) + 1
    sy = np.sign(dy) + 1
    cmp = np.sign(np.abs(dx) - np.abs(dy)) + 1
    e = (sx * 9 + sy * 3 + cmp).ravel()
    bins = np.bincount(e, minlength=27)
    out = np.zeros(4, dtype=np.int64)
    for sxv in (0, 1, 2):
        for syv in (0, 1, 2):
            for cv in (0, 1, 2):
                b = sxv * 9 + syv * 3 + cv
                if cv == 2:
                    cls = 0            # |dx| > |dy|
                elif cv == 0:
                    cls = 1            # |dy| > |dx|
                else:                  # equal magnitudes
                    dxs, dys = sxv - 1, syv - 1
                    cls = 2 if dxs * dys > 0 else 3
                out[cls] += int(bins[b])
    return out


def orientation_key(iid: str, px: np.ndarray) -> tuple[int, int]:
    g = _luma_gray(px)
    gold = class_counts_from_bins(g)
    eng = orientation_class_counts(g)
    assert gold.tolist() == eng.tolist(), (iid, gold, eng)
    total = int(gold.sum())
    if total == 0:
        return (-1, 0)
    dom = int(gold.argmax())
    return (dom, 1000 * int(gold[dom]) // total // 25)


# --- composed image-curation pipeline ------------------------------------------

class Curation:
    """Summary of pipelines/images.q_image_curation_pipeline:

    - quality gates replayed with the INDEPENDENT per-image kernels above
      (histogram-moment colorfulness, Σa²+Σb²−2Σab gradient factorization,
      hash-set tile dup) — the engine uses direct sums / diff squares /
      void-view unique;
    - near-dup pairs found by BRUTE-FORCE O(n²) blocked hamming over all
      survivor phashes — the engine uses 4×16-bit banded LSH, which
      pigeonhole guarantees to surface every hamming ≤ 3 pair; brute force
      would expose a banding bug immediately;
    - the drop-the-larger-of-each-verified-pair rule replayed from the pair
      list in plain Python sets.

    phash64 itself is the shared kernel on both sides (its bit health is
    independently gated by phash_bit_balance against DuckDB bit
    arithmetic)."""

    def __init__(self):
        self.n_decoded = self.n_cf = self.n_gr = self.n_td = 0
        self.surv_ids: list[str] = []
        self.surv_ph: list[int] = []

    def add(self, iid: str, px: np.ndarray) -> None:
        self.n_decoded += 1
        num, n = colorfulness_from_histograms(px)
        cf = num // (n * n)
        num_e, n_e = colorfulness_var_num(px)
        assert cf == num_e // (n_e * n_e), iid
        grad = grad_factorized(px)
        td = tile_dup_from_set(_luma_gray(px))
        assert td == tile_dup_pm(_luma_gray(px)), iid
        if cf < CURATION_GATES["colorfulness_min"]:
            self.n_cf += 1
        elif grad < CURATION_GATES["grad_min"]:
            self.n_gr += 1
        elif td > CURATION_GATES["tile_dup_max"]:
            self.n_td += 1
        else:
            self.surv_ids.append(iid)
            self.surv_ph.append(CC.phash64(px))

    def frame(self) -> pd.DataFrame:
        # brute-force hamming<=2 pairs over ALL survivor pairs (blocked numpy)
        ph = np.array(self.surv_ph, dtype=np.uint64)
        ids = np.array(self.surv_ids)
        order = np.argsort(ids)  # pair rule uses lexicographic id order
        ph, ids = ph[order], ids[order]
        dropped: set[str] = set()
        m = len(ph)
        popcnt = np.array([bin(i).count("1") for i in range(65536)],
                          dtype=np.int64)

        def ham(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            x = a ^ b
            return (popcnt[(x & np.uint64(0xFFFF)).astype(np.int64)]
                    + popcnt[((x >> np.uint64(16)) & np.uint64(0xFFFF))
                             .astype(np.int64)]
                    + popcnt[((x >> np.uint64(32)) & np.uint64(0xFFFF))
                             .astype(np.int64)]
                    + popcnt[((x >> np.uint64(48)) & np.uint64(0xFFFF))
                             .astype(np.int64)])

        for i in range(m):
            d = ham(ph[i + 1:], ph[i])
            for j in np.nonzero(d <= 2)[0]:
                dropped.add(ids[i + 1 + int(j)])  # ids sorted: later id larger

        n_quality = len(self.surv_ids)
        return pd.DataFrame({
            "n_decoded": [self.n_decoded],
            "n_drop_colorfulness": [self.n_cf],
            "n_drop_grad": [self.n_gr],
            "n_drop_tiledup": [self.n_td],
            "n_quality_pass": [n_quality],
            "n_dup_dropped": [len(dropped)],
            "n_survivors": [n_quality - len(dropped)],
        }).astype("int64")


# --- media: video frame sampling, audio clips ---------------------------------

def golden_video(sf_dir: str, stride: int = 2) -> pd.DataFrame:
    """The engine samples frames through the VID0 container (FrameSampler
    actor: length-prefix seeks, per-frame raw-container decode, keyed
    bucketed reduce with a lexsort+reduceat kernel). The golden never
    touches a container or a Dataset: it regenerates each video's ORIGINAL
    pixel arrays from the id, derives the sampled index set from the stride
    rule directly, and counts distinct hashes with Python sets. The pixel
    hash itself (codecs.phash64) is shared with the engine — the golden
    independently validates sampling, container round-trip (raw frames are
    lossless, so decoded == original), id plumbing, and the distributed
    reduce."""
    rows = []
    for vid in range(media.n_videos_for(sf_dir)):
        n_frames, fps = media.video_spec(vid)
        want = sorted(set(range(0, n_frames, stride)) | {n_frames - 1})
        hashes = {CC.phash64(media.video_frame_pixels(vid, i))
                  for i in want}
        rows.append({"video_id": vid,
                     "fps_milli": int(round(fps * 1000)),
                     "n_sampled": len(want),
                     "n_distinct_phash": len(hashes)})
    return pd.DataFrame(rows).astype("int64")


def golden_audio(sf_dir: str) -> pd.DataFrame:
    """The engine decodes AUD0 via struct/frombuffer and reduces with
    vectorized numpy int64. The golden computes the same exact integers
    with pure-Python big-int accumulation over the regenerated sample
    streams — no numpy in the reduction, so overflow/accumulation behavior
    is independently pinned."""
    rows = []
    for cid in range(media.n_clips_for(sf_dir)):
        n, rate = media.audio_spec(cid)
        pcm = [int(v) for v in media.audio_samples(cid)]  # pure-Python ints
        assert len(pcm) == n
        sum_sq = 0
        n_zc = 0
        for i, v in enumerate(pcm):
            sum_sq += v * v
            if i and (v < 0) != (pcm[i - 1] < 0):
                n_zc += 1
        rows.append({"clip_id": cid, "sample_rate": rate,
                     "duration_ms": n * 1000 // rate,
                     "sum_sq": sum_sq, "n_zero_cross": n_zc})
    return pd.DataFrame(rows).astype("int64")


# --- text / embedding operators -------------------------------------------------
# These operators ARE their algorithm — the algorithm is the spec — so the
# oracle re-derives each one from the spec as a SINGLE-PROCESS, ROW-AT-A-TIME
# implementation (plain-Python loops and int bit ops wherever feasible),
# sharing none of the engine's vectorized / distributed execution path:
#
# - rolling_fingerprint: per-row polynomial rolling hash, pure-Python ints
# - simhash: per-row bit-vote with Python integer shifts (no numpy unpackbits)
# - minhash_lsh_dedup: per-row signatures + a dict-of-band-key bucket index +
#   set-based Jaccard verify (no shuffle, no self-join)
# - ann_lsh_topk / ann_ivf_topk: single full-corpus numpy pass on the driver
#   (the engine streams per-batch partial top-k through an actor pool)
#
# Shared SPEC constants (hash seeds, permutation seeds, band/plane/cell
# counts) are re-derived from the documented parameters, not imported from
# the engine.

_WORD_RE_PATTERN = r"[a-z0-9]+"
_MERSENNE = (1 << 61) - 1
_ROLL_BASE = 1_000_003


def _hash64(s: str) -> int:
    # spec: blake2b(digest_size=8, salt=0) little-endian (functions/dedup.py:28)
    h = hashlib.blake2b(s.encode("utf-8"), digest_size=8,
                        salt=(0).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def _tokens(text: str) -> list[str]:
    import re

    return re.findall(_WORD_RE_PATTERN, str(text).lower())


def _shingle_set(text: str, k: int = 3) -> set[str]:
    toks = _tokens(text)
    if len(toks) < k:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}


def oracle_rolling(docs: pd.DataFrame, window: int = 16) -> pd.DataFrame:
    """Rolling fingerprint, pure-Python ints."""
    fps = []
    for t in docs["text"].fillna(""):
        b = t.encode("utf-8")
        if len(b) < window:
            h = 0
            for ch in b:
                h = (h * _ROLL_BASE + ch) % _MERSENNE
            fps.append(h)
            continue
        pw = pow(_ROLL_BASE, window - 1, _MERSENNE)
        h = 0
        for ch in b[:window]:
            h = (h * _ROLL_BASE + ch) % _MERSENNE
        best = h
        for j in range(window, len(b)):
            h = ((h - b[j - window] * pw) * _ROLL_BASE + b[j]) % _MERSENNE
            best = min(best, h)
        fps.append(best)
    return pd.DataFrame({"doc_id": docs["doc_id"].astype("int64"),
                         "fp64": pd.Series(fps, dtype="int64")})


def oracle_simhash(docs: pd.DataFrame) -> pd.DataFrame:
    """Simhash, Python integer bit votes."""
    out = []
    for t in docs["text"].fillna(""):
        toks = _tokens(t)
        if not toks:
            out.append(0)
            continue
        votes = [0] * 64
        for w in toks:
            h = _hash64(w)
            for j in range(64):
                votes[j] += 1 if (h >> j) & 1 else -1
        val = 0
        for j in range(64):
            if votes[j] > 0:
                val |= 1 << j
        if val >= 1 << 63:
            val -= 1 << 64
        out.append(val)
    return pd.DataFrame({"doc_id": docs["doc_id"].astype("int64"),
                         "simhash64": pd.Series(out, dtype="int64")})


def oracle_simhash_near_dup(sim: pd.DataFrame, max_hamming: int = 3) -> pd.DataFrame:
    """Brute-force hamming over the (independently recomputed) simhashes —
    exact oracle for the engine's banded LSH at max_hamming ≤ 3/4-bands."""
    h = sim["simhash64"].to_numpy().view(np.uint64)
    ids = sim["doc_id"].to_numpy()
    x = h[:, None] ^ h[None, :]
    ham = np.unpackbits(x.view(np.uint8).reshape(len(h), len(h), 8), axis=2).sum(axis=2)
    ii, jj = np.nonzero(ham <= max_hamming)
    keep = ii < jj
    return (pd.DataFrame({"doc_a": ids[ii[keep]], "doc_b": ids[jj[keep]]})
            .astype({"doc_a": "int64", "doc_b": "int64"})
            .sort_values(["doc_a", "doc_b"]).reset_index(drop=True))


def oracle_minhash_pairs(docs: pd.DataFrame, num_perm: int = 64,
                         bands: int = 16, threshold: float = 0.7) -> pd.DataFrame:
    """MinHash + LSH + Jaccard verify through a dict bucket index."""
    # spec permutation table: PCG64(42) universal hashes (functions/dedup.py:54)
    rng = np.random.Generator(np.random.PCG64(42))
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    rows = num_perm // bands

    shingles: dict[int, set[str]] = {}
    buckets: dict[str, list[int]] = {}
    for did, text in zip(docs["doc_id"].astype(int), docs["text"].fillna("")):
        sh = _shingle_set(text)
        shingles[did] = sh
        if not sh:
            sig = np.full(num_perm, _MERSENNE, dtype=np.uint64)
        else:
            base = np.array([_hash64(s) for s in sorted(sh)], dtype=np.uint64)
            sig = ((base[:, None] * a[None, :] + b[None, :])
                   % np.uint64(_MERSENNE)).min(axis=0)
        for bi in range(bands):
            key = hashlib.blake2b(sig[bi * rows:(bi + 1) * rows].tobytes(),
                                  digest_size=8).hexdigest()
            buckets.setdefault(f"{bi}:{key}", []).append(did)

    cand: set[tuple[int, int]] = set()
    for ids in buckets.values():
        ids = sorted(set(ids))
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                cand.add((ids[i], ids[j]))

    keep = []
    for x, y in sorted(cand):
        sa, sb = shingles[x], shingles[y]
        if not sa and not sb:
            jac = 1.0
        else:
            u = len(sa | sb)
            jac = len(sa & sb) / u if u else 0.0
        if jac >= threshold:
            keep.append((x, y))
    return pd.DataFrame(keep, columns=["doc_a", "doc_b"]).astype(
        {"doc_a": "int64", "doc_b": "int64"})


def _emb_matrix(emb: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    m = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    return emb["vec_id"].to_numpy().astype(np.int64), m


def oracle_ann_lsh(emb: pd.DataFrame, k: int = 10, planes: int = 12) -> pd.DataFrame:
    ids, mn = _emb_matrix(emb)
    H = np.random.Generator(np.random.PCG64(7)).standard_normal((64, planes))
    qv = mn[ids == 0][0]
    qsig = (qv @ H > 0)
    sig = mn @ H > 0
    mask = ((sig != qsig[None, :]).sum(axis=1) <= 2) & (ids != 0)
    s = mn[mask] @ qv
    top = np.argsort(-s, kind="stable")[:k]
    if len(s) > k:
        assert s[top[-1]] > np.sort(s)[::-1][k], "cos tie at the k boundary"
    return pd.DataFrame({"vec_id": ids[mask][top].astype("int64")})


def _spec_centroids(emb: pd.DataFrame, n_cells: int = 16,
                    sample_n: int = 2048) -> np.ndarray:
    """Spec coarse quantizer: spherical k-means, PCG64(13) init, 3 Lloyd
    iterations, over the first sample_n rows canonicalized by id order."""
    sample = np.stack(emb.head(sample_n).sort_values("vec_id", kind="stable")
                      ["embedding"].to_numpy()).astype(np.float64)
    sample = sample / np.maximum(np.linalg.norm(sample, axis=1, keepdims=True), 1e-12)
    rng = np.random.Generator(np.random.PCG64(13))
    C = sample[rng.choice(len(sample), size=min(n_cells, len(sample)), replace=False)]
    for _ in range(3):
        assign = np.argmax(sample @ C.T, axis=1)
        for c in range(len(C)):
            memb = sample[assign == c]
            if len(memb):
                v = memb.mean(axis=0)
                C[c] = v / max(np.linalg.norm(v), 1e-12)
    return C


def oracle_embed_clusters(emb: pd.DataFrame, n_cells: int = 16) -> pd.DataFrame:
    """k-means labeling spec: every vector → nearest spec centroid."""
    ids, mn = _emb_matrix(emb)
    cell = np.argmax(mn @ _spec_centroids(emb, n_cells).T, axis=1)
    return pd.DataFrame({"vec_id": pd.Series(ids, dtype="int64"),
                         "cluster_id": pd.Series(cell, dtype="int64")})


def oracle_ann_ivf(emb: pd.DataFrame, k: int = 10, n_cells: int = 16,
                   n_probe: int = 4, sample_n: int = 2048) -> pd.DataFrame:
    ids, mn = _emb_matrix(emb)
    C = _spec_centroids(emb, n_cells, sample_n)
    qv = mn[ids == 0][0]
    probe = np.argsort(-(C @ qv))[:n_probe]
    cell = np.argmax(mn @ C.T, axis=1)
    mask = np.isin(cell, probe) & (ids != 0)
    s = mn[mask] @ qv
    top = np.argsort(-s, kind="stable")[:k]
    if len(s) > k:
        assert s[top[-1]] > np.sort(s)[::-1][k], "cos tie at the k boundary"
    return pd.DataFrame({"vec_id": ids[mask][top].astype("int64")})


def oracle_dup_clusters(docs: pd.DataFrame, pairs: pd.DataFrame) -> pd.DataFrame:
    """Plain union-find (path compression) over the spec-derived near-dup
    pair list; cluster id = min doc_id of the component. Independent of the
    engine's iterative label-propagation-over-Datasets execution."""
    ids = docs["doc_id"].astype(int).tolist()
    labels = union_find(zip(pairs["doc_a"].astype(int), pairs["doc_b"].astype(int)), ids)
    return pd.DataFrame({"doc_id": pd.Series(ids, dtype="int64"),
                         "cluster_id": pd.Series(labels, dtype="int64")})


def oracle_name_dup_clusters(sf_dir: str, max_dist: int = 2) -> pd.DataFrame:
    """Independent end-to-end path for the entity-resolution composition:
    candidate pairs from DuckDB's levenshtein (not the engine's banded
    DP), clustered by plain union-find (not label propagation); cluster
    id = min partkey of the component."""
    import duckdb

    con = duckdb.connect()
    con.execute(f"CREATE VIEW part AS SELECT * FROM "
                f"read_parquet('{sf_dir}/part.parquet')")
    pairs = con.execute(f"""
        SELECT a.p_partkey AS pa, b.p_partkey AS pb
        FROM part a JOIN part b
          ON a.p_brand = b.p_brand AND a.p_partkey < b.p_partkey
        WHERE levenshtein(a.p_name, b.p_name) <= {max_dist}
    """).df()
    ids = con.execute("SELECT p_partkey FROM part").df()["p_partkey"].astype(int)
    labels = union_find(zip(pairs["pa"].astype(int), pairs["pb"].astype(int)), ids)
    return pd.DataFrame({"p_partkey": pd.Series(ids.tolist(), dtype="int64"),
                         "cluster_id": pd.Series(labels, dtype="int64")})


def _splitmix64(x: int) -> int:
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _hll(users, p: int) -> int:
    """HyperLogLog, pure-Python ints, one id at a time: splitmix64, rank of
    the low bits, linear counting below 2.5·m."""
    m = 1 << p
    M = [0] * m
    for u in users:
        h = _splitmix64(int(u))
        reg = h >> (64 - p)
        rem = h & ((1 << (64 - p)) - 1)
        rank = (64 - p) - rem.bit_length() + 1
        M[reg] = max(M[reg], rank)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / sum(2.0 ** -r for r in M)
    zeros = M.count(0)
    if e <= 2.5 * m and zeros > 0:
        e = m * math.log(m / zeros)
    return int(round(e))


def oracle_approx_distinct_users(sf_dir: str, p: int = 12) -> pd.DataFrame:
    users = pq.read_table(f"{sf_dir}/events.parquet",
                          columns=["user_id"]).to_pandas()["user_id"]
    return pd.DataFrame({"n_users_approx": pd.Series([_hll(users, p)], dtype="int64"),
                         "n_users_exact": pd.Series([users.nunique()], dtype="int64")})


def oracle_approx_distinct_by_type(sf_dir: str, p: int = 12) -> pd.DataFrame:
    """Grouped HLL spec: one pure-Python sketch per event_type (same
    splitmix64/rank/linear-counting rules as the ungrouped oracle)."""
    df = pq.read_table(f"{sf_dir}/events.parquet",
                       columns=["event_type", "user_id"]).to_pandas()
    rows = []
    for et in sorted(df["event_type"].unique()):
        users = df.loc[df["event_type"] == et, "user_id"]
        rows.append((et, _hll(users, p), int(users.nunique())))
    return pd.DataFrame(rows, columns=["event_type", "n_users_approx",
                                       "n_users_exact"]).astype(
        {"n_users_approx": "int64", "n_users_exact": "int64"})
