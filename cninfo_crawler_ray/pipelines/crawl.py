"""Flagship end-to-end crawl: seeds → frontier → seen-set admission →
fetch → decode/validate/extract → long + wide reports.

This is the full composition (SURVEY.md §8): stage 1 builds the frontier in
canonical order while the per-hash-range state actors
(``state/frontier.FrontierShard``) start; admission runs in plain map tasks
that consult the actors' cuckoo-fronted URL-seen sets (exact-set backed, so
the final URL-seen set matches the oracle's regardless of parallelism); the
per-host politeness budget is replayed over the admitted hosts, counted per
block, to report the virtual ticks it would wait (the scheduler path
enforces it); stage 2 streams fetch→decode→extract into the long/wide
reductions.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import CrawlConfig
from ..sources import corpus as fixtures
from ..state.frontier import ShardedFrontier, admit
from ..state.politeness import PolitenessGate
from . import stage1, stage2


def _admit_batch(df: pd.DataFrame, shards) -> pd.DataFrame:
    """Keep the batch's rows whose URL the range actors' seen sets have not
    seen. Within a batch the first of a repeated URL wins, so a frontier
    admitted in order keeps each URL's lowest-``order_key`` row."""
    if len(df) == 0:
        return df
    return df[admit(shards, bytes.fromhex("".join(df["url_sha1"])))]


def _block_host_counts(t: pa.Table) -> pa.Table:
    """One block's rows per host."""
    vc = pc.value_counts(t["host"])
    return pa.table({"host": vc.field("values"), "n": vc.field("counts")})


def _host_counts(frontier) -> dict[str, int]:
    """Rows per host of a Dataset: per-block value counts summed on the
    driver (one row per host and block reaches it; no exchange)."""
    parts = frontier.map_batches(_block_host_counts, batch_format="pyarrow",
                                 batch_size=None).to_pandas()
    if parts.empty:
        return {}
    return {h: int(n) for h, n in parts.groupby("host")["n"].sum().items()}


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
    # the range actors start while stage 1 runs
    fr = ShardedFrontier(cfg.seen_shards)
    try:
        frontier = stage1.build_frontier(
            fdir, cfg, concurrency=concurrency).materialize()

        counters = {"frontier_rows": frontier.count()}
        if counters["frontier_rows"]:
            # URL-seen admission (T2) runs INSIDE plain map tasks (each batch
            # RPCs the range actors' seen sets and keeps only first-seen
            # rows) — the frontier never lands on the driver for admission.
            # A URL listed under several stock codes arrives once per code;
            # one row passes. It is the lowest-order_key row only because
            # stage 1's sort leaves the frontier in one block, which one task
            # admits in order (state/seen.py).
            frontier = frontier.map_batches(
                _admit_batch, fn_kwargs={"shards": fr.shards},
                batch_format="pandas", batch_size=4096,
            ).materialize()
            counters["seen_admitted"] = frontier.count()
            counters["seen_total"] = fr.seen_total()

            # politeness (T3): the grant schedule over per-host ADMITTED
            # counts, replayed through the same round loop as the scheduler
            # so both paths report the same wait ticks
            gate = PolitenessGate(rate_per_second=cfg.host_rate, burst=cfg.host_burst,
                                  ticks_per_second=cfg.ticks_per_second)
            for host, (rate, burst) in (gate_overrides or {}).items():
                gate.set_host_rate(host, rate, burst)
            counters["politeness_wait_ticks"] = _grant_schedule(
                _host_counts(frontier), gate)
    finally:
        fr.close()

    decoded = stage2.fetch_decode(frontier, f"{fdir}/corpus.parquet", cfg, concurrency=concurrency)
    long_df, wide_df = stage2.reports(stage2.long_from_decoded(decoded))
    counters["long_rows"] = len(long_df)
    counters["wide_rows"] = len(wide_df)
    return {"long": long_df, "wide": wide_df, "counters": counters}
