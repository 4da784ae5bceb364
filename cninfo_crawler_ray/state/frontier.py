"""Sharded priority min-heap frontier (north rule).

The reference has no explicit frontier structure — its traversal order is
the nested (exchange × date × page) loop (cninfo_report_crawler.py:450-469)
and its "priority" is the keep-latest-per-code reduction (C:524-530). The
north rule promotes this to a first-class **priority min-heap frontier held
in Ray actor pools**, priority = disclosure-date recency × seed rank, so a
10^10-URL crawl always works on the currently-most-valuable admissible URLs.

Design:

- one state actor per url-sha1 hash range (``seen.shard_of``, ONE
  partitioning key for all state) holding the range's heap and its seen set
  (``FrontierShard.seen``, a plain ``state/seen.SeenShard``),
- entries ordered by (-priority, order_key, insertion_seq): highest priority
  first, ties broken by the canonical crawl order (SURVEY.md §3.4). The
  insertion counter is a safety tiebreaker ONLY — ``order_key`` is unique
  per admitted URL (``push_rows`` admits each URL once), so the counter
  never decides between two live rows in practice; it exists so the heap
  never falls through to comparing raw row payloads (which raises TypeError
  on None-containing or cross-dtype cells),
- batch API throughout (push/pop whole waves, not URLs); ``push_rows`` is
  the one admit-and-push routing, used by the driver facade and by the
  scheduler's seeding workers alike,
- one staged pop-and-admit path (``pop_admissible_staged``): each shard
  stages its local top-k and ships only compact keys; the driver merges
  them, applies robots and the politeness budget, and sends back per-shard
  verdicts — admitted rows wait in shard outboxes for the fetch workers,
  the merge's losers and budget-denied rows go back on their heap in place,
- pandas round-trips preserve dtypes: the shard records the pushed frame's
  dtype map and every rebuilt frame is cast back to it (``df.values`` alone
  re-infers dtypes and e.g. widens int32 columns to int64),
- one snapshot per range (heap and seen set) for checkpointed resume.

``FrontierShard`` is a plain class wrapped by ``ray.remote`` in the
``ShardedFrontier`` facade; ``ShardedFrontier(use_actors=False)`` keeps the
shards in-process, the unit tests' seam.
"""

from __future__ import annotations

import heapq
import os
import pickle
import tempfile
from typing import TYPE_CHECKING

import numpy as np

from .seen import SeenShard, shard_of

if TYPE_CHECKING:  # imported where used: range actors that never spill skip it
    import pandas as pd


class FrontierShard:
    """One hash range's state: its URL-seen set (``self.seen``) and a
    min-heap on (-priority, order_key, seq).

    ``spill_threshold`` bounds the in-memory heap (VERDICT r02 "what's wrong"
    §6): when a push grows the heap past the threshold, the low-priority tail
    is written to a sorted parquet spill file (actor-local scratch) and only
    the best half stays resident. Pops transparently reload a spill file
    whenever its best entry could beat the in-memory top-k, so pop order is
    byte-identical to an unbounded heap at any threshold — asserted in
    tests/test_scheduler.py. At 10^10-URL frontier scale this caps per-actor
    RSS at O(threshold) rows while the crawl works the high-priority head."""

    def __init__(self, shard_id: int = 0, spill_threshold: int | None = None):
        self.shard_id = shard_id
        self.seen = SeenShard(shard_id)
        self.heap: list[tuple] = []  # (-priority, order_key, seq, row_values)
        self.columns: list[str] | None = None
        self.dtypes: list[str] | None = None
        self._seq = 0  # monotonic insertion counter (see module docstring)
        self.spill_threshold = spill_threshold
        self._spill: list[dict] = []  # {path, min_key, n} per spill file
        self._spill_dir: str | None = None
        self._spill_ctr = 0
        #: staged-admission state (pull path): heap entries popped by
        #: stage_top awaiting the driver's verdict, admitted row payloads
        #: awaiting a worker pull, and dead-lettered rows kept for lineage.
        self._staged: list[tuple] = []
        self._outbox: list[list] = []
        self.dead_rows: list[tuple[str, list]] = []

    def contains_and_add(self, keys: list[bytes]) -> list[bool]:
        """Batch test-and-set against this range's seen set → is_new."""
        return self.seen.contains_and_add(keys)

    def admit_and_push(self, columns: list[str], rows: list[list],
                       dtypes: list[str] | None = None) -> int:
        """Admit the rows whose ``url_sha1`` this range has not seen (the
        first of a repeated key wins) and push them → admitted count."""
        ui = columns.index("url_sha1")
        is_new = self.seen.contains_and_add([bytes.fromhex(r[ui]) for r in rows])
        admitted = [r for r, new in zip(rows, is_new) if new]
        self.push(columns, admitted, dtypes)
        return len(admitted)

    def push(self, columns: list[str], rows: list[list],
             dtypes: list[str] | None = None) -> int:
        if self.columns is None:
            self.columns = list(columns)
        if dtypes is not None and self.dtypes is None:
            self.dtypes = list(dtypes)
        pi = columns.index("priority")
        oi = columns.index("order_key")
        for r in rows:
            heapq.heappush(self.heap, (-r[pi], r[oi], self._seq, r))
            self._seq += 1
        self._maybe_spill()
        return len(self.heap) + sum(f["n"] for f in self._spill)

    # -- spill (bounded actor memory) ---------------------------------------

    def _spill_path(self) -> str:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(
                prefix=f"frontier_spill_{self.shard_id}_")
        self._spill_ctr += 1
        return os.path.join(self._spill_dir, f"spill_{self._spill_ctr:06d}.parquet")

    def _maybe_spill(self) -> None:
        if not self.spill_threshold or len(self.heap) <= self.spill_threshold:
            return
        self._spill_down(self.spill_threshold // 2)

    def _spill_down(self, keep: int) -> None:
        import pandas as pd

        entries = sorted(self.heap, key=lambda e: e[:3])
        self.heap = entries[:keep]
        heapq.heapify(self.heap)
        tail = entries[keep:]
        if not tail:
            return
        df = pd.DataFrame([e[3] for e in tail], columns=self.columns)
        if self.dtypes:
            df = df.astype(dict(zip(self.columns, self.dtypes)))
        df.insert(0, "_sk0", [float(e[0]) for e in tail])
        df.insert(1, "_sk1", [e[1] for e in tail])
        df.insert(2, "_sk2", [int(e[2]) for e in tail])
        path = self._spill_path()
        df.to_parquet(path, index=False)
        self._spill.append({"path": path, "min_key": tail[0][:3], "n": len(tail)})

    def _reload_spill(self, f: dict) -> None:
        import pandas as pd

        df = pd.read_parquet(f["path"])
        payload = df[self.columns]
        if self.dtypes:
            payload = payload.astype(dict(zip(self.columns, self.dtypes)))
        rows = payload.values.tolist()
        for k0, k1, k2, row in zip(df["_sk0"], df["_sk1"], df["_sk2"], rows):
            heapq.heappush(self.heap, (k0, k1, int(k2), row))
        self._spill.remove(f)
        os.unlink(f["path"])

    def _ensure_top(self, k: int) -> None:
        """Reload any spill file whose best entry could belong to the next
        top-k pop, so pop order is byte-identical to an unbounded heap; the
        heap is re-bounded after each reload (the kept top-k is never
        re-spilled, so the loop strictly consumes files and terminates)."""
        while self._spill:
            if len(self.heap) >= k:
                kth = heapq.nsmallest(k, self.heap, key=lambda e: e[:3])[-1][:3]
                best = min(self._spill, key=lambda f: f["min_key"])
                if best["min_key"] >= kth:
                    return
                self._reload_spill(best)
            else:
                self._reload_spill(min(self._spill, key=lambda f: f["min_key"]))
            self._rebound(k)

    def _rebound(self, k: int) -> None:
        """Invariant after every public push/pop: in-memory heap ≤
        max(spill_threshold, 2k) rows."""
        if (self.spill_threshold
                and len(self.heap) > max(self.spill_threshold, 2 * k)):
            self._spill_down(max(k, self.spill_threshold // 2))

    # -- staged admission (pull path) ---------------------------------------
    # Control plane / data plane split (VERDICT r02 §3): the driver's global
    # merge + politeness decision sees ONLY these compact key columns; the
    # full row payloads never leave the shard until a fetch worker pulls the
    # admitted outbox directly (ShardedFrontier.wave_dataset).

    def stage_top(self, k: int) -> dict:
        """Pop the local top-k into staging; return compact admission keys
        (priority, order_key, host, robots path) for the driver merge.
        Clears the previous round's outbox — by the time a new round is
        staged, the prior round's rows are durably written (scheduler
        commits the round parquet before looping), and keeping the outbox
        readable until then makes worker pulls idempotent under task
        retries."""
        self._outbox = []
        self._ensure_top(k)
        self._staged = [heapq.heappop(self.heap)
                        for _ in range(min(k, len(self.heap)))]
        self._rebound(k)
        ci = {c: i for i, c in enumerate(self.columns or [])}
        rows = [e[3] for e in self._staged]
        return {
            "priority": [r[ci["priority"]] for r in rows],
            "order_key": [r[ci["order_key"]] for r in rows],
            "host": [r[ci["host"]] for r in rows],
            "path": [_path_of(r[ci["PDF链接"]]) for r in rows],
        }

    def resolve(self, admit_idx: list[int], requeue_idx: list[int],
                dead: list[tuple[int, str]]) -> dict:
        """Apply the driver's verdicts to the staged entries: admitted rows
        move to the pull outbox (in the given global-merge order), requeued
        entries go back on the heap unchanged (original seq preserved), dead
        rows are kept shard-side for lineage. Returns per-reason dead counts."""
        for i in admit_idx:
            self._outbox.append(self._staged[i][3])
        for i in requeue_idx:
            heapq.heappush(self.heap, self._staged[i])
        counts: dict[str, int] = {}
        for i, reason in dead:
            self.dead_rows.append((reason, self._staged[i][3]))
            counts[reason] = counts.get(reason, 0) + 1
        self._staged = []
        return {"admitted": len(admit_idx), "dead": counts}

    def read_outbox(self) -> tuple[list[str], list[list]]:
        """Non-destructive (idempotent under Ray task retries); cleared by
        the next stage_top."""
        return (self.columns or [], list(self._outbox))

    def read_dead(self) -> tuple[list[str], list[list], list[str]]:
        reasons = [r for r, _ in self.dead_rows]
        rows = [row for _, row in self.dead_rows]
        return (reasons, rows, self.columns or [])

    def meta(self) -> tuple[list[str] | None, list[str] | None]:
        return (self.columns, self.dtypes)

    def size(self) -> int:
        return len(self.heap) + sum(f["n"] for f in self._spill)

    def seen_size(self) -> int:
        return self.seen.size()

    def snapshot(self) -> bytes:
        # spill files travel inside the blob (self-contained checkpoint);
        # at real scale these would be lineage-referenced parquet on shared
        # storage rather than inlined bytes
        spills = []
        for f in self._spill:
            with open(f["path"], "rb") as fh:
                spills.append((f["min_key"], f["n"], fh.read()))
        return pickle.dumps((self.shard_id, self.columns, self.dtypes,
                             self.heap, self._seq, self.spill_threshold,
                             spills, self.seen.snapshot()))

    def restore(self, blob: bytes) -> None:
        (self.shard_id, self.columns, self.dtypes, heap, self._seq,
         self.spill_threshold, spills, seen) = pickle.loads(blob)
        self.seen.restore(seen)
        self.heap = heap
        heapq.heapify(self.heap)
        self._spill = []
        for min_key, n, data in spills:
            path = self._spill_path()
            with open(path, "wb") as fh:
                fh.write(data)
            self._spill.append({"path": path, "min_key": tuple(min_key), "n": n})
        # in-flight staging/outbox state is never snapshotted: a kill mid-round
        # resumes from the previous round's state and recomputes the round
        self._staged = []
        self._outbox = []


def _path_of(url) -> str:
    """scheme://host/path... → /path... (robots matching input)."""
    s = str(url)
    i = s.find("://")
    rest = s[i + 3:] if i >= 0 else s
    j = rest.find("/")
    return rest[j:] if j >= 0 else "/"


def _route(shards, raw: bytes, method: str, args_of) -> list[tuple]:
    """One ``method(*args_of(idxs))`` call per hash range touched by the
    20-byte SHA1 keys concatenated in ``raw`` (``idxs``: the range's key
    positions, in order) → [(idxs, result)]. ``shards`` are FrontierShard
    actor handles, or in-process FrontierShards in unit tests."""
    shard = shard_of(raw, len(shards))
    groups = [(s, np.flatnonzero(shard == s)) for s in np.unique(shard)]
    if groups and isinstance(shards[0], FrontierShard):
        return [(idxs, getattr(shards[s], method)(*args_of(idxs)))
                for s, idxs in groups]
    import ray

    futs = [getattr(shards[s], method).remote(*args_of(idxs))
            for s, idxs in groups]
    return [(idxs, res) for (_, idxs), res in zip(groups, ray.get(futs))]


def admit(shards, raw: bytes) -> np.ndarray:
    """Batch test-and-set of the 20-byte SHA1 keys concatenated in ``raw``
    against the range actors' seen sets → is_new mask (the batch path's
    admission; nothing is pushed)."""
    keys = [raw[i:i + 20] for i in range(0, len(raw), 20)]
    is_new = np.zeros(len(keys), dtype=bool)
    for idxs, got in _route(shards, raw, "contains_and_add",
                            lambda idxs: ([keys[i] for i in idxs],)):
        is_new[idxs] = got
    return is_new


def push_rows(shards, df: pd.DataFrame, dtypes: list[str] | None) -> int:
    """The one admit-and-push routing: each touched range gets one
    ``admit_and_push`` with its rows in frame order, so a row reaches the
    heap only if its ``url_sha1`` is new to the range → admitted count."""
    cols = list(df.columns)
    rows = df.values.tolist()
    return sum(n for _, n in _route(
        shards, bytes.fromhex("".join(df["url_sha1"])), "admit_and_push",
        lambda idxs: (cols, [rows[i] for i in idxs], dtypes)))


def _pull_outbox(df: pd.DataFrame, *, shards, dtypes) -> pd.DataFrame:
    """Wave data plane: a map task pulls its shard's admitted rows straight
    from the FrontierShard actor. Runs as a Ray task (plain fn), one per
    non-empty shard; read_outbox is non-destructive so retries are safe."""
    import pandas as pd
    import ray

    frames = []
    for s in df["shard_id"]:
        cols, rows = ray.get(shards[int(s)].read_outbox.remote())
        sub = pd.DataFrame(rows, columns=cols)
        if dtypes:
            sub = sub.astype(dict(zip(cols, dtypes)))
        frames.append(sub)
    return pd.concat(frames, ignore_index=True)


class ShardedFrontier:
    """Driver-side facade over one FrontierShard actor per ``url_sha1``
    hash range (``shard_of``); each holds its range's seen set and heap."""

    def __init__(self, num_shards: int = 8, use_actors: bool = True,
                 spill_threshold: int | None = None):
        self.num_shards = num_shards
        self.use_actors = use_actors
        if use_actors:
            import ray

            # coordination actor: tiny per-call CPU, mostly idle — reserving
            # CPU would let a wide shard pool starve the compute stages
            actor = ray.remote(num_cpus=0)(FrontierShard)
            self.shards = [actor.remote(i, spill_threshold)
                           for i in range(num_shards)]
        else:
            self.shards = [FrontierShard(i, spill_threshold)
                           for i in range(num_shards)]
        self.columns: list[str] | None = None
        self.dtypes: list[str] | None = None
        #: hosts denied a grant in the most recent staged wave —
        #: the scheduler uses them to advance the virtual clock by exactly
        #: the soonest refill instead of spinning tick-by-tick.
        self.last_denied_hosts: list[str] = []

    # -- internals ---------------------------------------------------------

    def _calls(self, method: str, args_per_shard: list[tuple]):
        if self.use_actors:
            import ray

            return ray.get([
                getattr(s, method).remote(*a) for s, a in zip(self.shards, args_per_shard)
            ])
        return [getattr(s, method)(*a) for s, a in zip(self.shards, args_per_shard)]

    def _rebuild(self, rows: list[list], cols: list[str] | None) -> pd.DataFrame:
        import pandas as pd

        if not cols:
            return pd.DataFrame()
        df = pd.DataFrame(rows, columns=cols)
        if self.dtypes:  # restore the pushed dtypes (values.tolist re-infers)
            df = df.astype(dict(zip(cols, self.dtypes)))
        return df

    # -- API ---------------------------------------------------------------

    def push_pandas(self, df: pd.DataFrame) -> int:
        """Admit and push frontier rows (must include priority, order_key,
        url_sha1, host and PDF链接) → admitted count."""
        if len(df) == 0:
            return 0
        self.columns = list(df.columns)
        if self.dtypes is None:
            self.dtypes = [str(t) for t in df.dtypes]
        return push_rows(self.shards, df, self.dtypes)

    def total(self) -> int:
        return sum(self._calls("size", [() for _ in self.shards]))

    def seen_total(self) -> int:
        """URLs in the seen sets of all ranges."""
        return sum(self._calls("seen_size", [() for _ in self.shards]))

    def pop_admissible_staged(self, k: int, gate) -> dict:
        """Globally best k entries by (priority desc, order_key asc),
        filtered by robots rules then the politeness budget, with the data
        plane left on the shards (VERDICT r02 §3): shards stage their local
        top-k and ship ONLY compact key columns (priority, order_key, host,
        url path) for the driver's global merge + robots + politeness
        decision; per-shard verdict lists go back; the admitted full rows
        wait in shard outboxes for fetch workers to pull (``wave_dataset``).
        Driver memory per round is O(wave keys), never O(wave rows).

        - the merge's losers (beyond the global top-k) go back on their heap;
        - robots-disallowed rows (gate.allowed) are dead-lettered shard-side:
          never fetched, never requeued;
        - budget-denied rows whose host can never be granted (zero refill
          rate with an exhausted bucket) are dead-lettered too — requeueing
          them would spin the scheduler forever (ADVICE r01);
        - other budget-denied rows go back on the heap in place (they stay
          top-priority and win a later round once the host budget refills)
          and their hosts are exposed via ``last_denied_hosts`` so the
          caller can advance the virtual clock by exactly the soonest
          refill. Grants consume the gate's virtual-tick budget in global
          merge order, so admission is deterministic (SURVEY.md §7).

        Returns per-shard admitted counts and per-reason dead counts."""
        self.last_denied_hosts = []
        staged = self._calls("stage_top", [(k,) for _ in self.shards])
        # merged candidate keys: (-priority, order_key, arrival, shard, local)
        recs: list[tuple] = []
        hosts: list[str] = []
        paths: list[str] = []
        for s, st in enumerate(staged):
            for j, (pr, ok_) in enumerate(zip(st["priority"], st["order_key"])):
                recs.append((-pr, ok_, len(recs), s, j))
            hosts += st["host"]
            paths += st["path"]
        recs.sort()
        requeue: dict[int, list[int]] = {s: [] for s in range(self.num_shards)}
        admit: dict[int, list[int]] = {s: [] for s in range(self.num_shards)}
        dead: dict[int, list[tuple[int, str]]] = {s: [] for s in range(self.num_shards)}
        for r in recs[k:]:
            requeue[r[3]].append(r[4])
        by_host: dict[str, list[tuple]] = {}
        for r in recs[:k]:
            by_host.setdefault(hosts[r[2]], []).append(r)
        live: list[tuple] = []
        for host, grp in by_host.items():
            ok = gate.allowed(host, [paths[r[2]] for r in grp])
            for r, o in zip(grp, ok):
                if o:
                    live.append(r)
                else:
                    dead[r[3]].append((r[4], "robots"))
        # restore global merge order for the grant sequence
        live.sort()
        granted = gate.acquire_batch([hosts[r[2]] for r in live],
                                     [1] * len(live))
        denied = [r for r, g in zip(live, granted) if g != 1]
        for r, g in zip(live, granted):
            if g == 1:
                admit[r[3]].append(r[4])
        if denied:
            waits = {h: gate.wait_ticks_for(h, 1)
                     for h in {hosts[r[2]] for r in denied}}
            requeued_hosts = set()
            for r in denied:
                h = hosts[r[2]]
                if waits[h] < 0:
                    dead[r[3]].append((r[4], "zero_rate_host"))
                else:
                    requeue[r[3]].append(r[4])
                    requeued_hosts.add(h)
            self.last_denied_hosts = sorted(requeued_hosts)
        results = self._calls(
            "resolve",
            [(admit[s], requeue[s], dead[s]) for s in range(self.num_shards)])
        dead_counts: dict[str, int] = {}
        for res in results:
            for reason, n in res["dead"].items():
                dead_counts[reason] = dead_counts.get(reason, 0) + n
        return {"admitted": [res["admitted"] for res in results],
                "dead": dead_counts}

    def wave_dataset(self, shard_counts: list[int]):
        """Round Dataset for the staged wave: one pull task per non-empty
        shard reads that shard's outbox DIRECTLY (actor RPC from inside the
        map task) — admitted rows flow shard → worker, never via the driver.
        Needs actor shards (the scheduler's); in-process shards serve the
        heap unit tests only."""
        import ray.data as rd

        idx = [s for s, n in enumerate(shard_counts) if n > 0]
        return rd.from_items([{"shard_id": int(s)} for s in idx]).map_batches(
            _pull_outbox,
            fn_kwargs={"shards": self.shards, "dtypes": self.dtypes},
            batch_format="pandas", batch_size=1, num_cpus=0.25,
        )

    def dead_letter_rows(self) -> pd.DataFrame:
        """Lineage view of shard-side dead letters (staged path)."""
        import pandas as pd

        frames = []
        for res in self._calls("read_dead", [() for _ in self.shards]):
            reasons, rows, cols = res
            if rows:
                df = self._rebuild(rows, cols)
                df["_dead_reason"] = reasons
                frames.append(df)
        return (pd.concat(frames, ignore_index=True)
                if frames else pd.DataFrame())

    def close(self) -> None:
        """End the range actors. Map tasks handed the shard handles (seeding,
        admission, wave pulls) can keep them alive after the driver drops
        its own, so a crawl ends them when it is done with them."""
        if self.use_actors:
            import ray

            for s in self.shards:
                ray.kill(s)

    def snapshot(self) -> list[bytes]:
        return self._calls("snapshot", [() for _ in self.shards])

    def restore(self, blobs: list[bytes]) -> None:
        self._calls("restore", [(b,) for b in blobs])
        for cols, dtypes in self._calls("meta", [() for _ in self.shards]):
            if cols:
                self.columns = cols
                if dtypes:
                    self.dtypes = dtypes
