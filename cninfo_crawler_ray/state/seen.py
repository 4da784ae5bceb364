"""Sharded URL-seen set: cuckoo filter front + exact backing set (T2).

The reference's in-flight dedup is a driver-local Python ``set`` over a raw
4-tuple, scoped to one listing stream (cninfo_report_crawler.py:183,
:294-306). At 10^10-URL frontier scale that must become distributed state:

- keyed on SHA1(canonical URL) (north rule),
- sharded by url-hash range across an actor pool (one shard = one hash
  interval, ``shard_of``; the frontier heap shards use the same intervals),
- a cuckoo filter in front answers "definitely new" without touching the
  exact set; the exact per-shard set backs it so false positives can NEVER
  corrupt the *exact* URL-seen match the north rule demands (SURVEY.md §7.5),
- batch RPC (``contains_and_add`` on a list) so callers pay one round trip
  per map_batches batch, not per URL,
- snapshot/restore for checkpointed resume.

Determinism: "first occurrence wins" is defined by the canonical order key,
not arrival order — callers that need the deterministic winner among
duplicates resolve it with a groupby-argmin *before* consulting the seen set
(SURVEY.md §3.4); the actor path is the streaming/incremental admission gate.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np


def shard_of(raw: bytes, num_shards: int) -> np.ndarray:
    """Hash-range shard of each 20-byte SHA1 key concatenated in ``raw``:
    its leading big-endian u32 (a strided view — a key is five u32s) over
    ``num_shards`` equal intervals. The one hash-range rule: the seen set,
    the frontier heap and the per-range counts in each round's record."""
    width = (1 << 32) // num_shards + 1
    return np.frombuffer(raw, dtype=">u4")[::5].astype(np.int64) // width


def admit(shards, raw: bytes) -> np.ndarray:
    """Batch test-and-set of the 20-byte SHA1 keys concatenated in ``raw``
    against the seen-shard actors → is_new mask. A key's shard is
    ``shard_of``; each touched shard gets one RPC with its keys in row
    order."""
    import ray

    shard = shard_of(raw, len(shards))
    calls = []
    for s in np.unique(shard):
        idxs = np.flatnonzero(shard == s)
        calls.append((idxs, shards[s].contains_and_add.remote(
            [raw[20 * i:20 * i + 20] for i in idxs])))
    is_new = np.zeros(len(shard), dtype=bool)
    for idxs, fut in calls:
        is_new[idxs] = ray.get(fut)
    return is_new


class CuckooFilter:
    """Minimal bucketed cuckoo filter (4-slot buckets, 1-byte fingerprints,
    partial-key eviction). Supports add/may_contain; ~2-3% false-positive
    rate at default load, which is fine because an exact set sits behind it."""

    MAX_KICKS = 500

    def __init__(self, capacity: int = 1 << 16):
        self.nbuckets = max(1 << (capacity - 1).bit_length(), 8)
        self.buckets: list[list[int]] = [[] for _ in range(self.nbuckets)]
        self.count = 0

    def _fp_and_buckets(self, key: bytes) -> tuple[int, int, int]:
        h = hashlib.blake2b(key, digest_size=8).digest()
        fp = h[0] or 1  # fingerprint never 0
        i1 = int.from_bytes(h[1:5], "little") % self.nbuckets
        # partial-key cuckoo: i2 = i1 XOR hash(fp)
        fph = int.from_bytes(hashlib.blake2b(bytes([fp]), digest_size=4).digest(), "little")
        i2 = (i1 ^ fph) % self.nbuckets
        return fp, i1, i2

    def may_contain(self, key: bytes) -> bool:
        fp, i1, i2 = self._fp_and_buckets(key)
        return fp in self.buckets[i1] or fp in self.buckets[i2]

    def add(self, key: bytes) -> bool:
        import random

        fp, i1, i2 = self._fp_and_buckets(key)
        for i in (i1, i2):
            if len(self.buckets[i]) < 4:
                self.buckets[i].append(fp)
                self.count += 1
                return True
        # evict (seeded rng not needed — the exact set is authoritative)
        rnd = random.Random(fp ^ i1)
        i = i1
        for _ in range(self.MAX_KICKS):
            slot = rnd.randrange(4)
            fp, self.buckets[i][slot] = self.buckets[i][slot], fp
            fph = int.from_bytes(hashlib.blake2b(bytes([fp]), digest_size=4).digest(), "little")
            i = (i ^ fph) % self.nbuckets
            if len(self.buckets[i]) < 4:
                self.buckets[i].append(fp)
                self.count += 1
                return True
        return False  # table full — callers fall through to the exact set


class SeenShard:
    """One hash-range shard of the URL-seen set. Plain class — wrapped by
    ``ray.remote`` at pool construction so it is unit-testable standalone."""

    def __init__(self, shard_id: int = 0, capacity: int = 1 << 16):
        self.shard_id = shard_id
        self.filter = CuckooFilter(capacity)
        self.overflowed = False  # once full, "not in filter" stops meaning "new"
        self.exact: set[bytes] = set()

    def contains_and_add(self, keys: list[bytes]) -> list[bool]:
        """Batch test-and-set. Returns is_new per key. The cuckoo filter
        short-circuits definite-new keys; the exact set decides the rest."""
        out = []
        for k in keys:
            if self.overflowed or self.filter.may_contain(k):
                new = k not in self.exact  # maybe-seen → exact check
            else:
                new = True
            if new:
                self.exact.add(k)
                if not self.filter.add(k):
                    self.overflowed = True
            out.append(new)
        return out

    def size(self) -> int:
        return len(self.exact)

    def snapshot(self) -> bytes:
        return pickle.dumps((self.shard_id, self.exact))

    def restore(self, blob: bytes) -> None:
        self.shard_id, self.exact = pickle.loads(blob)
        self.filter = CuckooFilter(max(len(self.exact) * 2, 1 << 10))
        self.overflowed = False
        for k in self.exact:
            if not self.filter.add(k):
                self.overflowed = True


class ShardedSeenSet:
    """Driver-side facade over a pool of SeenShard actors, sharded by the
    leading bytes of the sha1 key (``shard_of``, the frontier heap's hash
    ranges too). All calls are batch-per-shard."""

    def __init__(self, num_shards: int, capacity_per_shard: int = 1 << 16):
        import ray

        # coordination actor: tiny per-call CPU, mostly idle — reserving CPU
        # would let a wide shard pool starve the compute stages
        actor = ray.remote(num_cpus=0)(SeenShard)
        self.shards = [actor.remote(i, capacity_per_shard) for i in range(num_shards)]

    def contains_and_add(self, keys: list[bytes]) -> list[bool]:
        return admit(self.shards, b"".join(keys)).tolist()

    def total(self) -> int:
        import ray

        return sum(ray.get([s.size.remote() for s in self.shards]))

    def snapshot(self) -> list[bytes]:
        import ray

        return ray.get([s.snapshot.remote() for s in self.shards])

    def restore(self, blobs: list[bytes]) -> None:
        import ray

        ray.get([s.restore.remote(b) for s, b in zip(self.shards, blobs)])
