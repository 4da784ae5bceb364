"""URL-seen set for one hash range: cuckoo filter front + exact backing set (T2).

The reference's in-flight dedup is a driver-local Python ``set`` over a raw
4-tuple, scoped to one listing stream (cninfo_report_crawler.py:183,
:294-306). At 10^10-URL frontier scale that must become distributed state:

- keyed on SHA1(canonical URL) (north rule),
- split by url-hash range (``shard_of``): each range's plain ``SeenShard``
  is composed inside that range's frontier heap actor
  (``state/frontier.FrontierShard.seen``), so one actor per range holds
  both the range's seen set and its heap,
- a cuckoo filter in front answers "definitely new" without touching the
  exact set; the exact per-shard set backs it so false positives can NEVER
  corrupt the *exact* URL-seen match the north rule demands (SURVEY.md §7.5),
- batch test-and-set (``contains_and_add`` on a list) so callers pay one
  round trip per map_batches batch, not per URL,
- snapshot/restore for checkpointed resume (inside the range actor's blob).

Determinism: the seen set keeps whichever row of a repeated key reaches it
first, i.e. arrival order. The crawl gets the canonical winner (the lowest
``order_key``, SURVEY.md §3.4) only because it admits stage 1's sorted
frontier in order: that sort leaves the frontier in one block, which one map
task sends batch by batch, in row order (tests/test_scheduler.py checks the
winner on both crawl paths). With a multi-block frontier, tasks admit
concurrently and which row wins stays a race.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np


def shard_of(raw: bytes, num_shards: int) -> np.ndarray:
    """Hash-range shard of each 20-byte SHA1 key concatenated in ``raw``:
    its leading big-endian u32 (a strided view — a key is five u32s) over
    ``num_shards`` equal intervals. The one hash-range rule: the range
    actors (seen set + frontier heap) and the per-range counts in each
    round's record."""
    width = (1 << 32) // num_shards + 1
    return np.frombuffer(raw, dtype=">u4")[::5].astype(np.int64) // width


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
    """One hash-range shard of the URL-seen set. Plain class — composed by
    that range's ``FrontierShard``, and unit-testable standalone."""

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
