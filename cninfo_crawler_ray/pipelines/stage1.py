"""Stage 1 — listing enumeration → validated, deduplicated frontier.

Ray-Data shape (SURVEY.md §3.1 traced → §7.6):

    seeds ──map_batches(ListingEnumerator actor pool)──▶ announcements
          ──map_batches(vectorized normalize+filter+hash)──▶ candidates
          ──map_batches(Prober actor pool)──▶ head-validated
          ──map_batches(partial A2 combiner)──▶ combiner output
          ──bucketed_map_groups(股票代码, vectorized A2+A3)──▶ one row per code
          ──sort(order_key)──▶ frontier

One keyed reduction total: A2 (3-col dedup) and A3 (keep-latest per code)
share the 股票代码 key, so they collapse into one
``functions/bucketed.bucketed_map_groups`` call — the engine's keyed-reduce
skeleton: codes hash into buckets, each reduce call handles MANY codes with
vectorized pandas (per-group Python overhead is O(partitions), not
O(codes)), and the partition count follows the combiner's row count
(``auto_parallelism``). A within-batch A2 combiner shrinks the exchange
first. Every other step is an embarrassingly-parallel batch transform.
Crawl order is pinned by ``order_key`` stamped at admission (SURVEY.md
§3.4), so results are identical at any parallelism.
"""

from __future__ import annotations

import json
import math
import os
from datetime import date

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..config import CrawlConfig
from ..functions.bucketed import _pa_from_pandas, bucketed_map_groups
from ..functions import kernels, urls as U
from ..schemas import FRONTIER_CSV_COLUMNS, FRONTIER_SCHEMA
from ..stages.fetch import Prober
from ..stages.listing import ListingEnumerator


def _prepare_candidates(batch: pa.Table, years: list[int]) -> pa.Table:
    """Vectorized normalize/filter/hash (M1-M5 + url canon + sha1)."""
    if batch.num_rows == 0:
        return FRONTIER_SCHEMA.empty_table()
    keep = kernels.title_keep_mask(batch["announcementTitle"], years)
    t = batch.filter(keep)
    if t.num_rows == 0:
        return FRONTIER_SCHEMA.empty_table()
    codes = kernels.normalize_sec_code(t["secCode"])
    dates = kernels.decode_announcement_time(t["announcementTime"])
    url_raw = pd.Series(["https://" + u for u in t["adjunctUrl"].to_pylist()])
    url_canon = U.canonicalize(url_raw)
    sha = U.sha1_hex(url_canon)
    host = U.host_of(url_canon)
    # priority = disclosure-date recency × seed rank (north rule): more
    # recent reports and earlier-ranked exchanges fetch first.
    days = kernels.parse_report_date(dates)
    days_np = np.array([d if d is not None else -1 for d in days.to_pylist()], dtype=np.float64)
    erank = (t["order_key"].to_numpy() >> 37).astype(np.float64)  # top 3 bits
    priority = days_np + (4.0 - erank) / 10.0
    return pa.table(
        {
            "股票代码": codes,
            "公司名称": t["secName"],
            "财报名称": t["announcementTitle"],
            "报告日期": dates,
            "PDF链接": pa.array(url_canon.tolist(), pa.string()),
            "url_sha1": pa.array(list(sha), pa.string()),
            "host": pa.array(host.tolist(), pa.string()),
            "priority": pa.array(priority, pa.float64()),
            "order_key": t["order_key"],
        }
    )


A2_KEYS = ["股票代码", "公司名称", "财报名称"]


def _partial_a2_bucket(t: pa.Table) -> pa.Table:
    """Combiner before the A2/A3 exchange.

    Within-batch A2 dedup (keep min order_key per 3-key) is a safe partial
    reduction — the global winner per key is the global min order_key, an
    associative argmin — and it shrinks shuffle volume."""
    df = t.to_pandas()
    df = df.sort_values("order_key", kind="stable").drop_duplicates(
        subset=A2_KEYS, keep="first"
    )
    return _pa_from_pandas(df, preserve_index=False)


def _a2_a3_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """A2 (3-col dedup, keep first-in-canonical-order) + A3 (keep latest
    报告日期 per 股票代码, ties → canonical order) for EVERY code in one
    reduce partition, fully vectorized (cninfo_report_crawler.py:524-530)."""
    g = df.sort_values("order_key", kind="stable")
    g = g.drop_duplicates(subset=A2_KEYS, keep="first")
    d = pd.to_datetime(g["报告日期"], errors="coerce").fillna(pd.Timestamp.min)
    g = g.assign(_d=d).sort_values(
        ["股票代码", "_d", "order_key"], ascending=[True, False, True], kind="stable"
    )
    g = g.drop_duplicates(subset=["股票代码"], keep="first")
    return g.drop(columns=["_d"])


def fixture_dates(fixture_dir: str) -> list[date]:
    with open(os.path.join(fixture_dir, "meta.json")) as f:
        meta = json.load(f)
    return [date.fromisoformat(d) for d in meta["dates"]]


def target_years_for(fixture_dir: str, dates: list[date] | None = None) -> list[int]:
    ds = dates or fixture_dates(fixture_dir)
    return kernels.target_years(min(ds), max(ds))


@ray.remote(num_cpus=0)
def _import_package() -> None:
    # a worker unpickles this function by reference, which imports the
    # package; the body only names the import the check is about
    import cninfo_crawler_ray  # noqa: F401


def _require_worker_import() -> None:
    """Raise at once when Ray workers cannot import ``cninfo_crawler_ray``.

    Otherwise every stage actor dies unpickling its class and Ray restarts
    it in a loop, so the crawl never returns. One zero-CPU task is enough:
    its function is shipped by reference, exactly like the actor classes."""
    if not ray.is_initialized():
        return  # the driver owns the session; Ray Data starts one lazily
    try:
        ray.get(_import_package.remote())
    except ray.exceptions.RayTaskError as e:
        raise RuntimeError(
            "Ray workers cannot import cninfo_crawler_ray: put the repository "
            "on the workers' path (PYTHONPATH, or runtime_env py_modules / "
            "working_dir) before ray.init") from e


def build_frontier(
    fixture_dir: str,
    config: CrawlConfig | None = None,
    *,
    concurrency: int | tuple[int, int] | None = None,
    dates: list[date] | None = None,
) -> rd.Dataset:
    """Run stage 1 over a fixture directory; returns the frontier Dataset
    sorted by canonical order. Does NOT call ray.init (driver owns the
    session). Listing, probe and the A2 combiner execute here, once: the
    A2/A3 reduce sizes its partitions from their row count; the reduce and
    the order sort stay lazy.

    ``dates`` restricts the crawl to the given listing dates (the CLI's
    --start-date/--end-date range, cninfo_report_crawler.py:32-53); target
    years derive from the requested range like the reference (C:384-400)."""
    _require_worker_import()
    cfg = config or CrawlConfig()
    years = target_years_for(fixture_dir, dates)
    ann_path = os.path.join(fixture_dir, "announcements.parquet")
    corpus_path = os.path.join(fixture_dir, "corpus.parquet")

    # the seeds table is one row per (exchange, date) stream — tiny. Ray's
    # default sizing splits it into 64 blocks whose bookkeeping costs ~1.4 s
    # of pipeline-start latency (measured); one block per seed (capped)
    # starts the listing pool in <0.1 s. map_batches re-batches regardless,
    # so parallelism is unaffected.
    seeds_path = os.path.join(fixture_dir, "seeds.parquet")
    import pyarrow.parquet as _pq

    n_seeds = _pq.ParquetFile(seeds_path).metadata.num_rows
    from ..sources.readers import read_parquet_clean

    seeds = read_parquet_clean(seeds_path,
                               override_num_blocks=max(1, min(n_seeds, 64)))
    if dates is not None:
        want = pa.array(dates, pa.date32())
        seeds = seeds.map_batches(
            lambda t, w=want: t.filter(pa.compute.is_in(t["date"], value_set=w)),
            batch_format="pyarrow",
        )
    # pool floor from the cluster (same ramp fix as the fused fetch+decode
    # pools): a (1, 8) pool spends the head of a short stage autoscaling up
    # one actor at a time; floors reserve little (0.5 CPU per actor) and
    # skip the ramp. Caps stay modest — listing parallelism is bounded by
    # the (exchange, date) stream count anyway. The listing and probe pools
    # hold their floors for the whole stage, so together they must leave a
    # CPU for the read and candidate tasks, or stage 1 never progresses.
    _ncpu = (int(ray.cluster_resources().get("CPU", 8))
             if ray.is_initialized() else 8)
    fit = int((_ncpu - 1) // (2 * cfg.actor_num_cpus))
    if fit < 1:
        raise RuntimeError(
            "stage 1 needs at least %d CPUs (two actor pools at %s CPU per "
            "actor plus one CPU for tasks); the cluster has %d"
            % (math.ceil(2 * cfg.actor_num_cpus + 1), cfg.actor_num_cpus, _ncpu))
    pool = concurrency or (min(max(2, _ncpu // 8), fit), max(8, _ncpu // 4))
    anns = seeds.map_batches(
        ListingEnumerator,
        fn_constructor_args=(ann_path, cfg),
        batch_format="pyarrow",
        batch_size=cfg.listing_batch_size,
        concurrency=pool,
        num_cpus=cfg.actor_num_cpus,
    )
    cands = anns.map_batches(
        _prepare_candidates,
        fn_kwargs={"years": years},
        batch_format="pyarrow",
    )
    probed = cands.map_batches(
        Prober,
        fn_constructor_args=(corpus_path, cfg.probe_sniff_magic),
        batch_format="pyarrow",
        batch_size=cfg.probe_batch_size,
        concurrency=pool,
        num_cpus=cfg.actor_num_cpus,
    )
    valid = probed.map_batches(
        lambda t: _partial_a2_bucket(
            t.filter(t["head_ok"]).drop_columns(
                ["status", "content_type", "content_length", "head_ok"]
            )
        ),
        batch_format="pyarrow",
    )
    frontier = bucketed_map_groups(valid, ["股票代码"], _a2_a3_bucket,
                                   auto_parallelism=True)
    return frontier.sort("order_key")


def frontier_csv_view(frontier: rd.Dataset) -> pd.DataFrame:
    """The reference's 5-column CSV artifact (cninfo_report_crawler.py:535),
    in canonical order — for conformance goldens. Small (≤1 row per stock
    code) → driver-side pandas is appropriate."""
    df = frontier.to_pandas()
    return df.sort_values("order_key", kind="stable")[FRONTIER_CSV_COLUMNS].reset_index(drop=True)


def write_frontier_csv(frontier: rd.Dataset, path: str) -> pd.DataFrame:
    """S5 — the reference's CSV sink (cninfo_report_crawler.py:535-537):
    fixed column order, utf-8-sig BOM so the artifact is byte-compatible.
    Returns the written view, so callers never execute the frontier again."""
    view = frontier_csv_view(frontier)
    view.to_csv(path, index=False, encoding="utf-8-sig")
    return view


def frontier_from_csv(path: str) -> rd.Dataset:
    """S6 → stage-2 bridge: rebuild the engine's frontier columns from the
    reference's 5-column CSV artifact. The reference reads the CSV all-string
    and fetches in row order (report_info_collection.py:598-648); here
    ``order_key`` is the CSV row index (the CSV is written in canonical
    order) and url_sha1/host re-derive from the URL, so the CSV hand-off
    composes with every downstream stage."""
    df = read_frontier_csv(path).to_pandas()  # reference artifact: small
    url = pd.Series(df["PDF链接"], dtype=object)
    canon = U.canonicalize(url)
    sha = U.sha1_hex(canon)
    days = kernels.parse_report_date(pa.array(df["报告日期"].astype(str), pa.string()))
    days_np = np.array([d if d is not None else -1 for d in days.to_pylist()],
                       dtype=np.float64)
    df = df.assign(
        **{"PDF链接": canon.tolist()},
        url_sha1=list(sha),
        host=U.host_of(canon).tolist(),
        priority=days_np,
        order_key=np.arange(len(df), dtype=np.int64),
    )
    return rd.from_arrow(_pa_from_pandas(df))


def read_frontier_csv(path: str) -> rd.Dataset:
    """S6 — the stage-2 CSV source (report_info_collection.py:598-611):
    ``ray.data.read_csv`` with an explicit all-string schema (the analog of
    ``pd.read_csv(dtype=str)`` — codes like 000005 must NOT become ints),
    plus the reference's required-column check."""
    import pyarrow.csv as pacsv

    schema = pa.schema([(c, pa.string()) for c in FRONTIER_CSV_COLUMNS])
    ds = rd.read_csv(
        path,
        convert_options=pacsv.ConvertOptions(column_types=schema),
    )
    missing = set(FRONTIER_CSV_COLUMNS) - set(ds.schema().names)
    if missing:
        raise ValueError(f"CSV missing required columns: {sorted(missing)}")
    return ds
