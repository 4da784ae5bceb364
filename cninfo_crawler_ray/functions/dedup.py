"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup (SURVEY.md §2.7 extension set).

Scale shape: every variant is (vectorized per-batch signature computation in
``map_batches``) → (a keyed ``groupby`` shuffle on a compact signature) →
(per-group verification). Signatures are small integers/strings so the
shuffle moves kilobytes per million docs, never the documents themselves.
:func:`hamming_lsh_pairs` is that shape for every 64-bit hash family
(simhash, image phash and dhash).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

_WORD_RE = re.compile(r"[a-z0-9]+")


def _shingles(text: str, k: int = 3) -> set[str]:
    toks = _WORD_RE.findall(text.lower())
    if len(toks) < k:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}


def _hash64(s: str, seed: int = 0) -> int:
    h = hashlib.blake2b(s.encode("utf-8"), digest_size=8, salt=seed.to_bytes(8, "little")[:8])
    return int.from_bytes(h.digest(), "little")


# --- MinHash ---------------------------------------------------------------

_MERSENNE = (1 << 61) - 1

#: bound on the per-actor shingle/token→hash64 memo dicts. Long-lived sign
#: actors otherwise grow with corpus vocabulary (unbounded at 10^10-doc
#: scale); a full clear at the cap keeps the common-shingle hot set cheap to
#: rebuild while bounding worst-case memory to ~100 MB/actor.
MEMO_CAP = 1_000_000


def _capped(cache: dict) -> dict:
    if len(cache) > MEMO_CAP:
        cache.clear()
    return cache


class MinHasher:
    """num_perm universal-hash minhash; instantiate once per actor
    (__init__-time coefficient table), call per batch."""

    def __init__(self, num_perm: int = 64, seed: int = 42):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        # per-(band,row) odd mixing weights + per-band salt for band_keys_batch
        # (sized for the largest supported banding: one weight per perm)
        self._band_w = (rng.integers(0, 1 << 63, size=num_perm, dtype=np.uint64)
                        * np.uint64(2) + np.uint64(1))
        self._band_salt_base = rng.integers(0, 1 << 63, size=num_perm, dtype=np.uint64)

    def signature(self, text: str, cache: dict | None = None) -> np.ndarray:
        """``cache`` (per-actor dict) memoizes shingle→hash64 across docs —
        shingle vocabularies repeat heavily in real corpora, and blake2b per
        shingle dominates signature cost without it."""
        sh = _shingles(text)
        if not sh:
            return np.full(self.num_perm, _MERSENNE, dtype=np.uint64)
        if cache is None:
            base = np.array([_hash64(s) for s in sh], dtype=np.uint64)
        else:
            _capped(cache)
            base = np.array([cache.setdefault(s, _hash64(s)) for s in sh], dtype=np.uint64)
        # (a*x + b) mod p, min over shingles — vectorized over (shingle, perm)
        vals = (base[:, None] * self.a[None, :] + self.b[None, :]) % np.uint64(_MERSENNE)
        return vals.min(axis=0)

    def band_keys(self, sig: np.ndarray, bands: int = 16) -> list[str]:
        """LSH banding: bands × rows = num_perm; equal band-hash → candidate."""
        rows = self.num_perm // bands
        return [
            f"{b}:{hashlib.blake2b(sig[b * rows:(b + 1) * rows].tobytes(), digest_size=8).hexdigest()}"
            for b in range(bands)
        ]

    def signatures_batch(self, texts, cache: dict | None = None) -> np.ndarray:
        """Batch-vectorized ``signature``: MATH-IDENTICAL per-doc output
        (same blake2b per shingle, same (a·x+b) mod p row minima — asserted
        equal in tests), but blake2b runs once per UNIQUE shingle in the
        batch (pd.factorize dedups across docs, where the per-doc path
        memo-checks every occurrence) and the (shingle × perm) minima reduce
        in ONE ``np.minimum.reduceat`` over the whole batch instead of a
        tiny per-doc matrix op. Shingle extraction stays per doc (regex +
        set — inherently per string); everything downstream of it is one
        vectorized pass."""
        n = len(texts)
        counts = np.zeros(n, dtype=np.int64)
        all_sh: list[str] = []
        for i, t in enumerate(texts):
            sh = _shingles(t)
            counts[i] = len(sh)
            all_sh.extend(sh)
        out = np.full((n, self.num_perm), _MERSENNE, dtype=np.uint64)
        if not all_sh:
            return out
        codes, uniques = pd.factorize(np.asarray(all_sh, dtype=object))
        if cache is None:
            uh = np.array([_hash64(s) for s in uniques], dtype=np.uint64)
        else:
            _capped(cache)
            for s in uniques:
                if s not in cache:  # setdefault would re-hash hits eagerly
                    cache[s] = _hash64(s)
            uh = np.fromiter((cache[s] for s in uniques), dtype=np.uint64,
                             count=len(uniques))
        # permute UNIQUES only (uint64 modulo is the dominant cost — uniques
        # are typically ~10x fewer than occurrences), then gather by code
        vals_u = (uh[:, None] * self.a[None, :] + self.b[None, :]) % np.uint64(_MERSENNE)
        vals = vals_u[codes]
        nz = counts > 0
        starts = np.concatenate(([0], np.cumsum(counts[nz])[:-1]))
        out[nz] = np.minimum.reduceat(vals, starts, axis=0)
        return out

    def band_keys_batch(self, sigs: np.ndarray, bands: int = 16) -> np.ndarray:
        """Vectorized LSH band keys for a (n, num_perm) signature matrix →
        (n, bands) int64. The key encoding differs from ``band_keys`` (a
        wrapped modular dot per band instead of blake2b hex), which is
        immaterial to the OPERATOR's output: equal band rows still map to
        equal keys, and the ~2⁻⁶¹-rate cross-band collisions only add
        candidate pairs that the Jaccard verify drops — the verified pair
        set is bit-identical (golden-checked). Integer keys also shuffle 8
        bytes instead of an 18-char string."""
        rows = self.num_perm // bands
        n = sigs.shape[0]
        v = sigs.reshape(n, bands, rows)
        w = self._band_w.reshape(bands, rows)
        salt = self._band_salt_base[:bands]
        with np.errstate(over="ignore"):
            mixed = (v * w[None, :, :]).sum(axis=2)  # uint64 wrap is the mix
            mixed = mixed * np.uint64(0x9E3779B97F4A7C15) + salt[None, :]
        return mixed.view(np.int64)


def jaccard_sets(sa: set, sb: set) -> float:
    if not sa and not sb:
        return 1.0
    u = len(sa | sb)
    return len(sa & sb) / u if u else 0.0


def jaccard(a: str, b: str, k: int = 3) -> float:
    return jaccard_sets(_shingles(a, k), _shingles(b, k))


# --- SimHash ---------------------------------------------------------------

def simhash64(texts: pd.Series, cache: dict | None = None) -> pd.Series:
    """64-bit SimHash over word features (charikar), batch-vectorized: every
    token OCCURRENCE votes ±1 per bit (reference semantics — no per-doc
    dedup), so the per-doc bit sums are one ``np.add.reduceat`` over the
    batch's token stream; blake2b and bit-unpacking run once per UNIQUE
    token (factorize), then gather by code. ``cache`` memoizes token→hash64
    across batches in a long-lived actor (capped)."""
    out = np.zeros(len(texts), dtype=np.int64)
    counts = np.zeros(len(texts), dtype=np.int64)
    all_toks: list[str] = []
    for i, t in enumerate(texts.fillna("")):
        toks = _WORD_RE.findall(str(t).lower())
        counts[i] = len(toks)
        all_toks.extend(toks)
    if not all_toks:
        return pd.Series(out, index=texts.index)
    codes, uniques = pd.factorize(np.asarray(all_toks, dtype=object))
    if cache is None:
        uh = np.array([_hash64(w) for w in uniques], dtype=np.uint64)
    else:
        _capped(cache)
        for w in uniques:
            if w not in cache:
                cache[w] = _hash64(w)
        uh = np.fromiter((cache[w] for w in uniques), dtype=np.uint64,
                         count=len(uniques))
    ubits = np.unpackbits(uh.view(np.uint8).reshape(-1, 8), axis=1,
                          bitorder="little").astype(np.int64)
    bits = ubits[codes]  # (occurrences, 64)
    nz = counts > 0
    starts = np.concatenate(([0], np.cumsum(counts[nz])[:-1]))
    sums = np.add.reduceat(bits, starts, axis=0)
    # int64 throughout: negative votes would wrap in unsigned dtypes
    score = sums * 2 - counts[nz][:, None]  # +1/-1 vote per bit
    packed = np.packbits((score > 0).astype(np.uint8), axis=1,
                         bitorder="little")
    out[nz] = packed.view(np.int64).reshape(-1)
    return pd.Series(out, index=texts.index)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = (a.astype(np.int64).view(np.uint64)) ^ (b.astype(np.int64).view(np.uint64))
    # popcount via unpackbits
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)


#: 16-bit bands of a 64-bit hash. Two hashes at hamming distance ≤ 3 differ
#: in at most 3 bands, so they share an untouched one (pigeonhole): banded
#: LSH finds every pair within radius 3 — exact, not probabilistic.
LSH_BANDS = 4


def lsh_band_keys(h: np.ndarray) -> np.ndarray:
    """(n,) int64 hashes → (n, LSH_BANDS) int64 band keys
    ``(b << 16) | band_value``: equal keys ⇔ same band, same 16 bits — no
    two bands share a key."""
    u = np.asarray(h, dtype=np.int64).view(np.uint64)
    b = np.arange(LSH_BANDS, dtype=np.uint64)
    vals = (u[:, None] >> (np.uint64(16) * b)) & np.uint64(0xFFFF)
    return ((b << np.uint64(16)) | vals).astype(np.int64)


def hamming_lsh_pairs(ds, id_col: str, hash_col: str, max_hamming: int):
    """Every pair of rows whose int64 ``hash_col`` values lie within
    ``max_hamming`` bits, as a Dataset of distinct ``(a, b)`` ids (the
    ``id_col`` type) with ``a < b``. Each row explodes into one row per
    band key (:func:`lsh_band_keys`); each bucket of equal keys is
    self-merged and verified with :func:`hamming64`; one keyed reduce drops
    the pairs that share several bands. Only (key, id, hash) triples
    shuffle, and no step is all-pairs. Exact for ``max_hamming`` <
    LSH_BANDS, which is checked."""
    import pyarrow as pa

    from . import bucketed as B

    if not 0 <= max_hamming < LSH_BANDS:
        raise ValueError(f"banded LSH is exact only for max_hamming < {LSH_BANDS}")

    def band_rows(t: pa.Table) -> pa.Table:
        h = t.column(hash_col).to_numpy()
        rows = np.repeat(np.arange(len(h)), LSH_BANDS)
        return pa.table({"band_key": lsh_band_keys(h).ravel(),
                         "id": t.column(id_col).take(rows), "h": h[rows]})

    def pairs_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="band_key")
        m = m[m["id_x"] < m["id_y"]]
        m = m[hamming64(m["h_x"].to_numpy(), m["h_y"].to_numpy()) <= max_hamming]
        # plus one self-pair (id, id): Ray packs a 0-row task output as a
        # schema-less block, which trips the schema-divergence warning among
        # typed peers, and most buckets hold no pair. Real pairs have a < b,
        # so the reduce below drops it.
        first = df["id"].iloc[:1]
        return pd.DataFrame({"a": pd.concat([m["id_x"], first], ignore_index=True),
                             "b": pd.concat([m["id_y"], first], ignore_index=True)})

    def dedup_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["a"] < df["b"]].drop_duplicates(["a", "b"])

    cand = B.bucketed_map_groups(ds.map_batches(band_rows, batch_format="pyarrow"),
                                 ["band_key"], pairs_bucket)
    return B.bucketed_map_groups(cand, ["a", "b"], dedup_bucket,
                                 auto_parallelism=True)


def collect_pairs(pairs, names: tuple[str, str]) -> pd.DataFrame:
    """A :func:`hamming_lsh_pairs` result on the driver, columns renamed to
    ``names`` and rows sorted."""
    out = pairs.to_pandas()
    if "a" not in out.columns:
        # zero pairs end to end: the one empty bundle has no columns
        out = pd.DataFrame(columns=["a", "b"])
    a, b = names
    return (out.rename(columns={"a": a, "b": b}).sort_values([a, b])
            .reset_index(drop=True))


# --- embedding cosine ------------------------------------------------------

def cosine_matrix(q: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Batched cosine similarity: q (k, d) vs m (n, d) → (n, k). float64 for
    oracle agreement."""
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    return mn @ qn.T
