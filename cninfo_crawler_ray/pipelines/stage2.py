"""Stage 2 — frontier → fetch → decode/validate/extract → long + wide tables.

Ray-Data shape (SURVEY.md §3.2 traced → §7.6-7.8):

    frontier ──map_batches(FetchDecode actor pool)──▶ decoded+items
                                          (GET R:253 + decode R:151-198)
             ──map_batches(explode long rows)──▶ long             (R:287-310)
    long     ──bucketed_map_groups(PDF链接, A5+A6+J3)──▶ wide     (R:431-548)

``reports`` materializes the long rows once and builds both report views
from them; the wide pivot runs on ``functions/bucketed``'s keyed-reduce
skeleton, its partition count sized from the long row count (the
materialized rows' metadata, so no count pass).

Checkpointed resume is the round scheduler's (pipelines/scheduler.py): each
round's long rows commit through state/storage.py with a lineage record,
and every row's placement and order are pure functions of (url_sha1,
order_key), so a resumed crawl is byte-identical to an uninterrupted one
(SURVEY.md §4.4). The payload sink here keeps the reference's own
skip-if-file-exists resume (report_info_collection.py:241-249).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..config import CrawlConfig
from ..functions.bucketed import bucketed_map_groups
from ..functions.kernels import adjust_amount_special, sentinel_to_zero
from ..schemas import LONG_COLUMNS, PARENT_CATEGORIES
from ..stages.decode import FetchDecode

DOC_KEYS = ["证券代码", "公司名称", "报告名称", "报告日期", "PDF链接"]


def _explode_long(batch: pa.Table) -> pa.Table:
    """Decoded docs → long rows (M17 zero-fill expansion + M9 unit adjust).

    Rows that failed fetch or the content gate contribute nothing (the
    reference returns [] for those, R:257-259, :271-273)."""
    ok = batch.filter(batch["type_ok"])
    # per-doc item lists (json parse is inherently per-row; everything else
    # below is vectorized via np.repeat over the doc-level columns)
    items_col = ok["items_json"].to_pylist()
    cats: list[str] = []
    vals: list[str] = []
    item_idx: list[int] = []
    counts = np.empty(ok.num_rows, dtype=np.int64)
    for i, blob in enumerate(items_col):
        items = json.loads(blob) if blob else []
        if items:
            counts[i] = len(items)
            cats.extend(it["category"] for it in items)
            vals.extend(it["value"] for it in items)
            item_idx.extend(range(len(items)))
        else:
            counts[i] = len(PARENT_CATEGORIES)
            cats.extend(PARENT_CATEGORIES)
            vals.extend("0" for _ in PARENT_CATEGORIES)
            item_idx.extend(range(len(PARENT_CATEGORIES)))
    ridx = np.repeat(np.arange(ok.num_rows), counts)
    idx_arr = pa.array(ridx, pa.int64())

    def rep(col_name: str):
        return ok[col_name].take(idx_arr)

    codes = rep("股票代码")
    # vectorized unit adjust (M9) + sink cleanup (R:680-681)
    amounts = adjust_amount_special(pd.Series(codes.to_pylist(), dtype=object),
                                    pd.Series(vals, dtype=object))
    cleaned = sentinel_to_zero(pa.array([str(a) if a is not None else None for a in amounts], pa.string()))
    flags = pc.cast(rep("_has_data_resource"), pa.int64())
    t = pa.table(
        {
            "证券代码": codes,
            "公司名称": rep("公司名称"),
            "报告名称": rep("财报名称"),
            "报告日期": rep("报告日期"),
            "项目名称": pa.array(cats, pa.string()),
            "金额": cleaned,
            "PDF链接": rep("PDF链接"),
            "_has_data_resource": flags,
            "order_key": rep("order_key"),
            "_item": pa.array(item_idx, pa.int64()),
            "url_sha1": rep("url_sha1"),
        }
    )
    return t


def _with_fetch_key(t: pa.Table) -> pa.Table:
    ids = [str(u).rsplit("/", 1)[-1] for u in t["PDF链接"].to_pylist()]
    # metadata-free schema: pandas-written parquet carries a b'pandas' blob
    # that makes pyarrow-16 schemas unhashable and spams Ray's schema-dedup
    # warning on every downstream batch concat
    return t.replace_schema_metadata(None).append_column(
        "_fetch_key", pa.array(ids, pa.string())
    )


def fetch_decode(
    frontier: rd.Dataset,
    corpus_path: str,
    cfg: CrawlConfig,
    *,
    concurrency: int | tuple[int, int] | None = None,
    nrows_hint: int | None = None,
) -> rd.Dataset:
    """frontier → decoded docs (streaming; payload bytes dropped after decode
    so only light rows reach the shuffles).

    Fetch locality: the admitted wave is first sorted by content key
    (image id) so each fetch batch covers a contiguous store range and the
    corpus store serves it from O(1) row groups — the columnar analog of
    coalescing a crawl wave into per-shard request queues. Without this,
    order_key-ordered batches scatter across every row group and per-batch
    fetch cost approaches O(corpus), not O(batch). Crawl-order correctness
    is unaffected: ``order_key``/``fetch_seq`` travel with the rows and all
    downstream reductions key on them, never on arrival order."""
    if cfg.fetch_locality:
        frontier = frontier.map_batches(
            _with_fetch_key, batch_format="pyarrow"
        ).sort("_fetch_key")
        # The sort emits uneven range-partitioned blocks (observed 10× size
        # skew); one oversized block = one straggler task holding the whole
        # pipeline's tail (~6 s idle tail measured at 32 CPUs). Split into
        # many small order-preserving blocks so the actor pool drains evenly.
        import ray as _ray

        ncpu = int(_ray.cluster_resources().get("CPU", 32)) if _ray.is_initialized() else 32
        npart = max(64, ncpu * 8)
        if nrows_hint is not None:
            # small waves (scheduler rounds): splitting N rows into >N blocks
            # makes Ray's repartition pad the shortfall with SCHEMA-LESS
            # 0-column tables (split_repartition_task_scheduler builds
            # pyarrow_table_from_pydict({}) for the missing blocks) — keep
            # every block non-empty instead
            npart = max(1, min(npart, nrows_hint))
        frontier = frontier.repartition(npart)
    # one pool doing fetch→decode in-process: payload bytes never enter the
    # object store (see stages.decode.FetchDecode)
    return frontier.map_batches(
        FetchDecode,
        fn_constructor_args=(corpus_path, cfg.fault_inject_path),
        batch_format="pyarrow",
        batch_size=cfg.fetch_batch_size,
        concurrency=concurrency or cfg.fetch_actors,
        num_cpus=cfg.actor_num_cpus,
    )


def long_from_decoded(decoded: rd.Dataset) -> rd.Dataset:
    return decoded.map_batches(_explode_long, batch_format="pyarrow")


def _wide_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """A5 (per (doc, 项目名称): first positive 金额 else first, canonical
    order, report_info_collection.py:462-489) + A6 pivot (R:492-497) + J3
    flag carry (constant per document, R:507-516) for every document in one
    reduce partition — all vectorized."""
    from ..functions.kernels import numeric_value_col
    from ..schemas import SENTINELS, WIDE_COLUMNS

    pos = (numeric_value_col(df["金额"]) > 0).astype(int)
    g = (
        df.assign(_pos=pos)
        .sort_values(["_pos", "order_key", "_item"],
                     ascending=[False, True, True], kind="stable")
        .drop_duplicates(subset=DOC_KEYS + ["项目名称"], keep="first")
    )
    wide = (
        g.set_index(DOC_KEYS + ["_has_data_resource", "项目名称"])["金额"]
        .unstack("项目名称")
        .reset_index()
        .rename_axis(columns=None)
    )
    for cat in PARENT_CATEGORIES:
        if cat not in wide.columns:
            wide[cat] = "0"
        col = wide[cat]
        wide[cat] = col.where(col.notna() & ~col.isin(SENTINELS), "0").astype(str)
    wide = wide.rename(columns={"_has_data_resource": "是否包含数据资产"})
    wide["是否包含数据资产"] = wide["是否包含数据资产"].astype(int)
    return wide[WIDE_COLUMNS]


def wide_from_long(long_ds: rd.Dataset) -> rd.Dataset:
    """A5+A6+J3 in one bucketed keyed reduction over the document URL, its
    partition count sized from the long row count. The long rows are
    materialized first, so the count is their metadata; rows that arrive
    materialized (``reports``) pay no extra pass."""
    long_ds = long_ds.materialize()
    return bucketed_map_groups(long_ds, ["PDF链接"], _wide_bucket,
                               nrows_hint=long_ds.count())


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------

class _PayloadExporter:
    """Actor for ``export_payloads``: one store handle per actor; per batch
    it writes the payload files its rows name and reports what it did."""

    def __init__(self, corpus_path: str, out_dir: str):
        from ..sources.http_store import open_store

        self.store = open_store(corpus_path)
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..functions.files import sanitize_report_filename
        from ..sources.store import ext_of_url

        urls = t["PDF链接"].to_pylist()
        exts = ext_of_url(urls)
        names = [
            sanitize_report_filename(nm, ti, dt, ext)
            for nm, ti, dt, ext in zip(
                t["公司名称"].to_pylist(), t["财报名称"].to_pylist(),
                t["报告日期"].to_pylist(), exts)
        ]
        action = ["exists"] * len(urls)
        nbytes = [0] * len(urls)
        missing = [i for i, nm in enumerate(names)
                   if not os.path.exists(os.path.join(self.out_dir, nm))]
        if missing:
            g = self.store.get([urls[i] for i in missing])
            statuses = g["status"].to_pylist()
            ctypes = g["content_type"].to_pylist()
            blobs = g["bytes"]
            for j, i in enumerate(missing):
                # the reference's content-type gate (R:257-259): only a
                # payload whose type matches its extension is saved
                if statuses[j] != 200 or ctypes[j] != f"image/{exts[i]}":
                    action[i] = "rejected"
                    continue
                blob = blobs[j].as_py()
                path = os.path.join(self.out_dir, names[i])
                tmp = f"{path}.tmp.{os.getpid()}"
                with open(tmp, "wb") as f:
                    f.write(blob)
                os.replace(tmp, path)  # atomic: a killed run never leaves partials
                action[i] = "written"
                nbytes[i] = len(blob)
        return pa.table({
            "file_name": pa.array(names, pa.string()),
            "action": pa.array(action, pa.string()),
            "nbytes": pa.array(nbytes, pa.int64()),
        })


def export_payloads(frontier: rd.Dataset, corpus_path: str, out_dir: str,
                    cfg: CrawlConfig) -> rd.Dataset:
    """Payload file sink (S8 + M13): write each validated report's payload
    under the reference's sanitized filename
    ``{公司名称}：{财报名称}_[{报告日期}].{ext}`` (report_info_collection.py
    :237-268), skipping files that already exist — the reference's
    skip-if-file-exists resume (R:241-249). Distributed: each actor fetches
    and writes only its own batch's files; a rerun after a kill re-exports
    only the missing ones. Returns the per-file action table."""
    return frontier.map_batches(
        _PayloadExporter,
        fn_constructor_args=(corpus_path, out_dir),
        batch_format="pyarrow",
        batch_size=cfg.fetch_batch_size,
        concurrency=cfg.fetch_actors,
        num_cpus=cfg.actor_num_cpus,
    )


def write_excel_reports(long_df: pd.DataFrame, wide_df: pd.DataFrame,
                        long_path: str, wide_path: str) -> bool:
    """S9 — the reference's Excel sinks (report_info_collection.py:701-715):
    delete-if-exists first, long sheet plain, wide sheet with
    ``freeze_panes=(1, 0)``. Uses openpyxl when installed (byte-compatible
    with the reference's pandas.to_excel artifact); otherwise falls back to
    the vendored stdlib OOXML writer (functions/xlsx.py) so the sink is
    exercised end-to-end even in this engine-less sandbox. Returns True —
    an .xlsx is always produced."""
    for p in (long_path, wide_path):
        if os.path.exists(p):
            os.remove(p)  # delete-if-exists (R:701-703)
    try:
        import openpyxl  # noqa: F401

        long_df.to_excel(long_path, index=False)
        with pd.ExcelWriter(wide_path) as xw:
            wide_df.to_excel(xw, index=False, freeze_panes=(1, 0))
    except ImportError:
        from ..functions.xlsx import write_xlsx

        write_xlsx(long_path, long_df)
        write_xlsx(wide_path, wide_df, freeze_panes=(1, 0))
    return True


def long_view(long_ds: rd.Dataset) -> pd.DataFrame:
    """Long table in canonical order with the reference's column set."""
    df = long_ds.to_pandas().sort_values(["order_key", "_item"], kind="stable")
    return df[LONG_COLUMNS].reset_index(drop=True)


def wide_view(wide_ds: rd.Dataset) -> pd.DataFrame:
    df = wide_ds.to_pandas()
    return df.sort_values(DOC_KEYS, kind="stable").reset_index(drop=True)


def reports(long_ds: rd.Dataset) -> tuple[pd.DataFrame, pd.DataFrame]:
    """The crawl's two reports, (long, wide), from its long rows. The rows
    are materialized once, so both views read the same blocks and the plan
    behind them (fetch+decode, or the round parquet) runs once."""
    long_ds = long_ds.materialize()
    return long_view(long_ds), wide_view(wide_from_long(long_ds))
