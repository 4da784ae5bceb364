"""Flagship end-to-end crawl: seeds → frontier → seen-set admission →
fetch → decode/validate/extract → long + wide reports.

This is the full composition (SURVEY.md §8): stage 1 builds the frontier in
canonical order; admission consults the cuckoo-fronted URL-seen sets held by
the per-hash-range state actors (``state/frontier.FrontierShard``; exact-set
backed, so the final URL-seen set matches the oracle's regardless of
parallelism); the per-host politeness budget is replayed over the admitted
hosts to report the virtual ticks it would wait (the scheduler path enforces
it); stage 2 streams fetch→decode→extract into the long/wide reductions.
"""

from __future__ import annotations

import pandas as pd

from ..config import CrawlConfig
from ..sources import corpus as fixtures
from ..state.frontier import ShardedFrontier, admit
from ..state.politeness import PolitenessGate
from . import stage1, stage2


def _grant_schedule(host_counts: dict[str, int], gate) -> int:
    """Replay the scheduler's round loop over per-host ADMITTED counts only —
    O(hosts × rounds) driver work, identical decision procedure to
    scheduler.run_scheduled_crawl at unbounded wave size (grant floor(tokens)
    per host per round tick; advance the virtual clock by exactly the soonest
    refill among denied hosts). Returns the total wait ticks."""
    remaining = {h: int(n) for h, n in host_counts.items() if int(n) > 0}
    wait_ticks = 0
    while remaining:
        for h in list(remaining):
            remaining[h] -= gate.acquire(h, remaining[h])
            if remaining[h] == 0:
                del remaining[h]
        if remaining:
            adv = gate.soonest_refill(remaining)
            if adv is None:
                raise ValueError(
                    "zero-refill host(s) with exhausted budget can never drain "
                    "on the batch path: %s — use the scheduler path, which "
                    "dead-letters them" % sorted(remaining))
            gate.advance(adv)
            wait_ticks += adv
    return wait_ticks


def run_crawl(
    n_images: int = 1_000,
    cfg: CrawlConfig | None = None,
    *,
    concurrency=None,
    gate_overrides: dict | None = None,
):
    """Returns dict with long/wide pandas frames + crawl counters.

    Politeness: the batch path fetches the whole admitted frontier in one
    Dataset pass, so the per-host budget cannot reorder or drop anything —
    it only defines request timing, and the scheduler path
    (``scheduler.run_scheduled_crawl``) is the one that enforces it. This
    path replays the scheduler's round loop over per-host admitted counts
    and reports the virtual ticks that schedule would wait in
    ``counters["politeness_wait_ticks"]`` (equal to the scheduler's —
    tests/test_scheduler.py); fetch proceeds unspaced. A zero-refill host
    whose budget runs out raises ``ValueError`` (the scheduler dead-letters
    those instead). ``gate_overrides`` maps host → (rate_per_second,
    burst)."""
    cfg = cfg or CrawlConfig()
    fdir = fixtures.ensure_fixtures(n_images)
    frontier = stage1.build_frontier(fdir, cfg, concurrency=concurrency).materialize()

    counters = {"frontier_rows": frontier.count()}
    if counters["frontier_rows"]:
        # URL-seen admission (T2) runs INSIDE the map tasks (each batch RPCs
        # the range actors' seen sets and keeps only first-seen rows) — the
        # frontier never lands on the driver for admission. A URL listed
        # under several stock codes arrives once per code; one row passes.
        fr = ShardedFrontier(cfg.seen_shards)

        class Admit:
            def __init__(self, shards):
                self.shards = shards

            def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
                if len(df) == 0:
                    return df
                raw = bytes.fromhex("".join(df["url_sha1"]))
                return df[admit(self.shards, raw)]

        frontier = frontier.map_batches(
            Admit, fn_constructor_args=(fr.shards,), batch_format="pandas",
            batch_size=4096, concurrency=(1, 8), num_cpus=0.5,
        ).materialize()
        counters["seen_admitted"] = frontier.count()
        counters["seen_total"] = fr.seen_total()

        # politeness (T3): the grant schedule over per-host ADMITTED counts
        # (a tiny Ray aggregate — one row per host), replayed through the
        # same round loop as the scheduler so both paths report the same
        # wait ticks
        from ray.data.aggregate import Count

        host_counts_df = (frontier.groupby("host")
                          .aggregate(Count(alias_name="n")).to_pandas())
        gate = PolitenessGate(rate_per_second=cfg.host_rate, burst=cfg.host_burst,
                              ticks_per_second=cfg.ticks_per_second)
        for host, (rate, burst) in (gate_overrides or {}).items():
            gate.set_host_rate(host, rate, burst)
        counters["politeness_wait_ticks"] = _grant_schedule(
            dict(zip(host_counts_df["host"], host_counts_df["n"])), gate)

    decoded = stage2.fetch_decode(frontier, f"{fdir}/corpus.parquet", cfg, concurrency=concurrency)
    long_df, wide_df = stage2.reports(stage2.long_from_decoded(decoded))
    counters["long_rows"] = len(long_df)
    counters["wide_rows"] = len(wide_df)
    return {"long": long_df, "wide": wide_df, "counters": counters}
