"""Typed crawl configuration.

Elevates the reference's scattered module constants and magic numbers
(SURVEY.md §2.10, §4.2) into one config object. The listing pace is the
reference's: 1 listing page / 0.3 s per stream (cninfo_report_crawler.py:331).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CrawlConfig:
    # --- listing / pagination guards (cninfo_report_crawler.py) ---
    max_pages_limit: int = 500     # :263-267
    overrun_pages: int = 3         # stop at totalpages + 3   (:249-252)
    overrun_empty_stop: int = 2    # past totalpages + 2 consecutive empty (:254-257)
    max_empty_pages: int = 3       # 3 consecutive zero-novelty pages      (:317-326)

    # --- politeness budget (virtual ticks; 10 ticks == 1 s) ---
    ticks_per_second: int = 10
    listing_page_ticks: int = 3    # 0.3 s between listing pages (:331)
    #: token-bucket refill per host, requests per second (fetch stage).
    host_rate: float = 1000.0
    host_burst: int = 2000

    # --- state sharding ---
    #: url-sha1 hash ranges (``state/seen.shard_of``): one state actor per
    #: range (``state/frontier.FrontierShard``: the range's seen set and
    #: heap); each round's lineage record counts its admitted URLs per range
    seen_shards: int = 8
    #: bound on each frontier heap shard's in-memory rows; past it the
    #: low-priority tail spills to sorted parquet (pop order unchanged —
    #: state/frontier.py). None = unbounded (sandbox default; a 10^10-URL
    #: run sets this to O(10^6) per shard).
    frontier_spill_rows: int | None = None

    # --- Ray Data stage sizing ---
    listing_batch_size: int = 1        # seeds per listing task — one stream
                                       # is the parallel unit (its page loop
                                       # is inherently sequential)
    probe_batch_size: int = 4096       # HEAD-analog probe rows per batch
    #: GET-fallback on ambiguous HEADs (reference C:146-150): sniff the first
    #: 1 KB's container magic when HEAD metadata contradicts the URL ext.
    #: Off by default — HEAD-trust is the reference's primary rule.
    probe_sniff_magic: bool = False
    fetch_batch_size: int = 512        # binary payload rows per batch (bytes are KB-MB each)
    fetch_actors: tuple[int, int] = (1, 8)
    #: sort the admitted wave by content key before fetch so each batch hits
    #: a contiguous store range (per-shard request coalescing).
    fetch_locality: bool = True
    #: CPUs reserved per stage actor. Fractional so the MINIMUM reservations
    #: of all concurrent pools never exceed the cluster and deadlock the
    #: streaming executor (each pool pre-reserves min_actors × num_cpus);
    #: autoscaling grows pools into idle CPUs when a stage is the bottleneck.
    actor_num_cpus: float = 0.5
    #: fault-injection hook (tests only): while a file exists at this path,
    #: every FetchDecode batch raises — simulating a worker dying mid-stream
    #: so stream-close-on-error + resume-after-error semantics are testable
    #: deterministically (tests/test_scheduler.py). The path travels to the
    #: actor via its constructor args, so it works across worker processes.
    fault_inject_path: str | None = None


DEFAULT_CONFIG = CrawlConfig()
