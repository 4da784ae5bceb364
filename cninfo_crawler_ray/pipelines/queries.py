"""Driver-facing query surface: every operator family from SURVEY.md §2 plus
the training-data extensions (dedup, similarity search, text analysis,
multimodal plumbing), each as a callable over an sf_dir of parquet tables.

Conventions:
- Ray-Data-first: read_parquet with pruned columns → vectorized map_batches →
  keyed groupby only where a shuffle is semantically required.
- SQL-checked queries name every output column identically to their
  ``ORACLE_SQL`` entry, and reduce doubles to integer cents via
  floor(x*100 + 0.5) BEFORE summing so hashes are order- and
  backend-independent.
- Crawl-specific queries (no SQL equivalent — they run the synthetic corpus)
  return deterministic tables and get the driver's rows-only check.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from ..functions import bucketed as B
from ..functions.bucketed import _pa_from_pandas
from ..functions import dedup as D
from ..functions import text as T


def _actor_pool(lo_div: int = 8, hi_div: int = 4,
                lo_min: int = 1, hi_min: int = 4) -> tuple[int, int]:
    """Cluster-derived (min, max) actor-pool sizing for the short stateful
    stages in this module. A (1, 4) pool spends the head of a ~1-2 s stage
    autoscaling up one actor at a time; flooring at ncpu/8 (0.5-CPU
    reservations) removes the ramp for a trivial reservation cost — the
    same fix measured on the fused fetch+decode pools (BASELINE.md round 5)."""
    ncpu = (int(ray.cluster_resources().get("CPU", 8))
            if ray.is_initialized() else 8)
    return (max(lo_min, ncpu // lo_div), max(hi_min, ncpu // hi_div))


def _cents(x: np.ndarray) -> np.ndarray:
    """Order-independent money reduction: per-row floor(x*100+0.5) → int64."""
    return np.floor(np.asarray(x, dtype=np.float64) * 100.0 + 0.5).astype(np.int64)


def _read(sf_dir: str, table: str, columns: list[str] | None = None,
          filter_expr=None) -> rd.Dataset:
    """Pruned parquet read: column projection, metadata-free schema, block
    sizing from the footer row count, and (``filter_expr``) an optional
    pyarrow dataset expression pushed INTO the fragment scan — row groups
    whose stats exclude the predicate never leave storage, and the filter
    may reference columns outside the projection."""
    path = f"{sf_dir}/{table}.parquet"
    kwargs = {}
    import pyarrow.parquet as _pq

    pf = _pq.ParquetFile(path)
    n = pf.metadata.num_rows  # footer-only probe
    if n <= 1_000_000:
        # small single file: Ray's default sizing splits it into 64 blocks
        # whose bookkeeping costs ~1.3 s of pipeline-start latency
        # (measured 1.34 s → 0.06 s on a 500-row table). One block per ~8k
        # rows keeps task overhead trivial; map operators re-batch and
        # shuffles re-partition, so stage parallelism is unaffected. Large
        # files keep Ray's default multi-block sizing.
        kwargs["override_num_blocks"] = max(1, min(64, -(-n // 8192)))
    # Pass an explicit metadata-free schema so the READ operator itself emits
    # clean blocks: pyarrow-16 schemas carrying the b'pandas' metadata blob
    # are unhashable, so every bundle out of ReadParquet trips Ray's
    # schema-dedup fast path ("Failed to hash the schemas" warnings) before
    # any downstream strip-map could run (VERDICT r02 §1).
    full = pf.schema_arrow.remove_metadata()
    sub = pa.schema([full.field(c) for c in columns]) if columns else full
    if filter_expr is not None:
        kwargs["filter"] = filter_expr
    ds = rd.read_parquet(path, columns=columns, schema=sub, **kwargs)
    if filter_expr is None:
        # carry the footer row count: count() on a mapped dataset EXECUTES
        # the plan (Ray can't know the map is row-preserving), so consumers
        # that only need cardinality — attach()'s broadcast-vs-shuffle
        # decision — would otherwise pay a full read per join side.
        # (Not valid under a row filter: the footer count is pre-filter.)
        ds._graft_nrows = n
    return ds


# ---------------------------------------------------------------------------
# A7 / partial-aggregation pattern — TPC-H Q1-shaped pricing summary
# ---------------------------------------------------------------------------

def q_pricing_summary(sf_dir: str):
    """Per-batch partial aggregation (one row per key per batch) ahead of the
    groupby, so the shuffle moves O(keys × batches) rows, not O(rows)."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["sum_qty"] = df["l_quantity"].astype(np.int64)
        df["base_cents"] = _cents(df["l_extendedprice"])
        df["revenue_cents"] = _cents(df["l_extendedprice"] * (1.0 - df["l_discount"]))
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("sum_qty", "sum"),
            base_cents=("base_cents", "sum"),
            revenue_cents=("revenue_cents", "sum"),
            n_rows=("sum_qty", "size"),
        )
        return _pa_from_pandas(g, preserve_index=False)

    return B.grouped_aggregate_small(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        [Sum("sum_qty", alias_name="sum_qty"),
         Sum("base_cents", alias_name="base_cents"),
         Sum("revenue_cents", alias_name="revenue_cents"),
         Sum("n_rows", alias_name="n_rows")],
        key_domain=6)


# ---------------------------------------------------------------------------
# A3 — per-key keep-latest (argmax by date, deterministic tie-break)
# ---------------------------------------------------------------------------

def q_latest_order_per_customer(sf_dir: str):
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"])

    def per_batch_top1(t: pa.Table) -> pa.Table:
        # partial argmax per batch — shrinks the shuffle to ≤1 row/key/batch
        df = t.to_pandas()
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                            ascending=[True, False, True], kind="stable")
        return _pa_from_pandas(df.drop_duplicates("o_custkey"), preserve_index=False)

    def top1_bucket(b: pd.DataFrame) -> pd.DataFrame:
        # vectorized argmax for EVERY custkey in the bucket
        b = b.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                          ascending=[True, False, True], kind="stable")
        return b.drop_duplicates("o_custkey")

    out = B.bucketed_map_groups(
        ds.map_batches(per_batch_top1, batch_format="pyarrow"),
        ["o_custkey"], top1_bucket,
    )
    return out.map_batches(
        lambda df: df.assign(o_orderdate=df["o_orderdate"].dt.strftime("%Y-%m-%d")),
        batch_format="pandas",
    )


# ---------------------------------------------------------------------------
# A1/A2 — exact dedup (hash-partitioned first-wins)
# ---------------------------------------------------------------------------

def q_exact_dedup_docs(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def add_hash(t: pa.Table) -> pa.Table:
        h = [hashlib.md5(x.encode("utf-8")).hexdigest() for x in t["text"].to_pylist()]
        return pa.table({"text_md5": pa.array(h, pa.string()), "doc_id": t["doc_id"]})

    out = (
        ds.map_batches(add_hash, batch_format="pyarrow")
        .groupby("text_md5")
        .aggregate(Min("doc_id", alias_name="doc_id"))
        .select_columns(["doc_id"])
    )
    return out


# ---------------------------------------------------------------------------
# distinct / filter+project
# ---------------------------------------------------------------------------

def q_distinct_flag_status(sf_dir: str):
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"])

    def partial(t: pa.Table) -> pa.Table:
        return _pa_from_pandas(
            t.to_pandas().drop_duplicates(), preserve_index=False)

    return B.grouped_aggregate_small(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"], [Count(alias_name="_n")],
        key_domain=6,
    ).select_columns(["l_returnflag", "l_linestatus"])


def q_filter_docs_regex(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    return ds.map_batches(
        lambda t: t.filter(
            pc.and_(pc.match_substring_regex(t["text"], "vector|stream"),
                    pc.equal(t["lang"], "en"))
        ).select(["doc_id", "source"]),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# J1 — broadcast join (small dims via ray.put, no shuffle)
# ---------------------------------------------------------------------------

def q_nation_revenue(sf_dir: str):
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    cust_ref = ray.put(dict(zip(cust["c_custkey"], cust["c_nationkey"])))
    name_by_key = dict(zip(nat["n_nationkey"], nat["n_name"]))

    class JoinOrders:
        def __init__(self):
            self.c2n = ray.get(cust_ref)  # broadcast: fetched once per actor

        def __call__(self, t: pa.Table) -> pa.Table:
            df = t.to_pandas()
            df["n_nationkey"] = df["o_custkey"].map(self.c2n).astype(np.int64)
            df["revenue_cents"] = _cents(df["o_totalprice"])
            g = df.groupby("n_nationkey", as_index=False)["revenue_cents"].sum()
            return _pa_from_pandas(g, preserve_index=False)

    out = B.grouped_aggregate_small(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(JoinOrders, batch_format="pyarrow", concurrency=_actor_pool(), num_cpus=0.5),
        "n_nationkey", [Sum("revenue_cents", alias_name="revenue_cents")],
        key_domain=25)
    return out.map_batches(
        lambda df: df.assign(nation=df["n_nationkey"].map(name_by_key)).drop(columns=["n_nationkey"]),
        batch_format="pandas",
    )


# ---------------------------------------------------------------------------
# A6 — pivot long→wide (fixed category domain)
# ---------------------------------------------------------------------------

_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_PRIO_COLS = ["p1_urgent", "p2_high", "p3_medium", "p4_not_specified", "p5_low"]


def q_orders_pivot(sf_dir: str):
    ds = _read(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby(["o_orderstatus", "o_orderpriority"], as_index=False).size()
        wide = g.pivot_table(index="o_orderstatus", columns="o_orderpriority",
                             values="size", aggfunc="sum", fill_value=0).reset_index()
        for p in _PRIORITIES:
            if p not in wide.columns:
                wide[p] = 0
        wide = wide[["o_orderstatus"] + _PRIORITIES]
        wide.columns = ["o_orderstatus"] + _PRIO_COLS
        return _pa_from_pandas(wide, preserve_index=False)

    aggs = [Sum(c, alias_name=c) for c in _PRIO_COLS]
    return B.grouped_aggregate_small(
        ds.map_batches(partial, batch_format="pyarrow"),
        "o_orderstatus", aggs, key_domain=4)


def q_orders_unpivot(sf_dir: str):
    """Inverse of A6 (unpivot/melt, wide→long): each wide row explodes into
    one row per priority column. The category set is fixed and known
    (closed-set pivot, same as the reference's 3-category wide report —
    report_info_collection.py:492-546), so the melt is a pure per-batch
    repeat/tile with no shuffle: row counts multiply by k but nothing ever
    leaves the batch, which is exactly how a 100 TB wide table melts too."""
    wide = q_orders_pivot(sf_dir)
    k = len(_PRIO_COLS)

    def melt(t: pa.Table) -> pa.Table:
        status = np.repeat(t["o_orderstatus"].to_numpy(zero_copy_only=False), k)
        prio = np.tile(np.array(_PRIORITIES, dtype=object), len(t))
        counts = (
            np.stack([t[c].to_numpy() for c in _PRIO_COLS], axis=1).reshape(-1)
            if len(t) else np.array([], dtype=np.int64)
        )
        return pa.table({
            "o_orderstatus": pa.array(status, pa.string()),
            "o_orderpriority": pa.array(prio, pa.string()),
            "n": pa.array(counts, pa.int64()),
        })

    return wide.map_batches(melt, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# J4 — anti join (broadcast key set / bloom at scale)
# ---------------------------------------------------------------------------

def q_customers_without_orders(sf_dir: str):
    """Anti join: customers with no URGENT order. At 100 TB the broadcast
    side becomes a Bloom filter of key hashes; at these sizes the exact key
    set is cheaper and exact."""
    custkeys = (
        _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
        .map_batches(
            lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")).select(["o_custkey"]),
            batch_format="pyarrow",
        )
        .unique("o_custkey")
    )
    keys_ref = ray.put(sorted(custkeys))

    class AntiJoin:
        def __init__(self):
            # Arrow value_set built once per actor; the per-batch membership
            # test is a vectorized is_in, never a Python loop
            self.value_set = pa.array(ray.get(keys_ref), pa.int64())

        def __call__(self, t: pa.Table) -> pa.Table:
            mask = pc.invert(pc.is_in(t["c_custkey"], value_set=self.value_set))
            return t.filter(mask).select(["c_custkey"])

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        AntiJoin, batch_format="pyarrow", concurrency=_actor_pool(), num_cpus=0.5
    )


# ---------------------------------------------------------------------------
# streaming-shaped: tumbling window + sessionization (SURVEY.md §2.9 analog)
# ---------------------------------------------------------------------------

def q_events_hourly(sf_dir: str):
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["hour"] = df["ts"].dt.floor("h").dt.strftime("%Y-%m-%d %H:00:00")
        df["value_cents"] = _cents(df["value"])
        g = df.groupby(["event_type", "hour"], as_index=False).agg(
            n_events=("value_cents", "size"), value_cents=("value_cents", "sum")
        )
        return _pa_from_pandas(g, preserve_index=False)

    return B.grouped_aggregate_small(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "hour"],
        [Sum("n_events", alias_name="n_events"),
         Sum("value_cents", alias_name="value_cents")],
        key_domain=256)


def q_sessionize(sf_dir: str, gap_minutes: int = 30):
    """Sessionization = ordered, partitioned-log windowing: shuffle on
    user_id, per-group pandas over the time-sorted log. Ordering assumption:
    (ts, event_id) is a total order within a user."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    gap = pd.Timedelta(minutes=gap_minutes)

    def sessions_bucket(b: pd.DataFrame) -> pd.DataFrame:
        # vectorized across ALL users in the bucket: a session break is a
        # user change or a gap > threshold in the (user, ts, event_id) order
        b = b.sort_values(["user_id", "ts", "event_id"], kind="stable")
        new_user = b["user_id"].ne(b["user_id"].shift())
        brk = new_user | (b["ts"] - b["ts"].shift() > gap)
        return (
            b.assign(_ns=brk.astype("int64"))
            .groupby("user_id", as_index=False)
            .agg(n_events=("_ns", "size"), n_sessions=("_ns", "sum"))
            .astype({"n_events": "int64", "n_sessions": "int64"})
        )

    return B.bucketed_map_groups(ds, ["user_id"], sessions_bucket,
                                 auto_parallelism=True)


def q_asof_latest_order(sf_dir: str):
    """As-of join — a relational operator Ray Data lacks as a primitive:
    for every event, attach the latest order of the same customer at or
    before the event time (missing → -1).

    Distributed shape: tag both sides into ONE typed schema, union,
    hash-bucket on the join key (co-locating each customer's events and
    orders), then a per-bucket vectorized sort-merge as-of
    (``pd.merge_asof`` over time-sorted frames). The shuffle moves only the
    tagged key/time/id triples; no side is broadcast and no bucket holds
    more than its key range. Tie-break is deterministic: max o_orderdate,
    then max o_orderkey (time-sorted with orderkey ascending → backward
    as-of picks the last)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"]).map_batches(
        lambda df: pd.DataFrame({
            "key": df["user_id"].astype("int64"), "t": df["ts"],
            "event_id": df["event_id"].astype("int64"),
            "o_orderkey": np.int64(-1), "side": np.int8(0)}),
        batch_format="pandas")
    od = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda df: pd.DataFrame({
            "key": df["o_custkey"].astype("int64"), "t": df["o_orderdate"],
            "event_id": np.int64(-1),
            "o_orderkey": df["o_orderkey"].astype("int64"), "side": np.int8(1)}),
        batch_format="pandas")

    def asof_bucket(b: pd.DataFrame) -> pd.DataFrame:
        e = (b[b["side"] == 0][["key", "t", "event_id"]]
             .sort_values("t", kind="stable"))
        o = (b[b["side"] == 1][["key", "t", "o_orderkey"]]
             .sort_values(["t", "o_orderkey"], kind="stable"))
        if len(e) == 0:
            return pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                                 "o_orderkey": pd.Series([], dtype="int64")})
        m = pd.merge_asof(e, o, on="t", by="key", direction="backward")
        return pd.DataFrame({
            "event_id": m["event_id"].astype("int64"),
            "o_orderkey": m["o_orderkey"].fillna(-1).astype("int64"),
        })

    return B.bucketed_map_groups(ev.union(od), ["key"], asof_bucket,
                                 auto_parallelism=True)


def q_range_join_order_events(sf_dir: str, days: int = 7):
    """Range (interval) join — the second relational operator Ray Data
    lacks as a primitive: for every order, the count of same-customer
    events inside [o_orderdate, o_orderdate + days). Same distributed shape
    as the as-of join: union-tag → hash-bucket on the key → per-bucket
    vectorized interval counting (two ``searchsorted`` probes per order into
    the key-sliced, time-sorted event array) — never a per-pair expansion,
    so a hot customer costs O(E log E + O log E), not O(E·O)."""
    ev = _read(sf_dir, "events", ["user_id", "ts"]).map_batches(
        lambda df: pd.DataFrame({
            "key": df["user_id"].astype("int64"), "t": df["ts"],
            "o_orderkey": np.int64(-1), "side": np.int8(0)}),
        batch_format="pandas")
    od = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda df: pd.DataFrame({
            "key": df["o_custkey"].astype("int64"), "t": df["o_orderdate"],
            "o_orderkey": df["o_orderkey"].astype("int64"), "side": np.int8(1)}),
        batch_format="pandas")
    span = np.timedelta64(days, "D")

    def range_bucket(b: pd.DataFrame) -> pd.DataFrame:
        o = b[b["side"] == 1]
        if len(o) == 0:
            return pd.DataFrame({"o_orderkey": pd.Series([], dtype="int64"),
                                 "n_events": pd.Series([], dtype="int64")})
        e = (b[b["side"] == 0][["key", "t"]]
             .sort_values(["key", "t"], kind="stable"))
        ekeys = e["key"].to_numpy()
        ets = e["t"].to_numpy()
        # per-key slice boundaries in the sorted event log
        k_lo = np.searchsorted(ekeys, o["key"].to_numpy(), side="left")
        k_hi = np.searchsorted(ekeys, o["key"].to_numpy(), side="right")
        ots = o["t"].to_numpy()
        n = np.empty(len(o), dtype=np.int64)
        for i in range(len(o)):  # bounded by bucket's orders; probes are log E
            lo = np.searchsorted(ets[k_lo[i]:k_hi[i]], ots[i], side="left")
            hi = np.searchsorted(ets[k_lo[i]:k_hi[i]], ots[i] + span, side="left")
            n[i] = hi - lo
        return pd.DataFrame({"o_orderkey": o["o_orderkey"].to_numpy(),
                             "n_events": n}).astype(
            {"o_orderkey": "int64", "n_events": "int64"})

    return B.bucketed_map_groups(ev.union(od), ["key"], range_bucket,
                                 auto_parallelism=True)


def q_events_sliding_3h(sf_dir: str):
    """Time-RANGE sliding-window aggregate: per event type, the event count
    over the trailing 3 hours [hour-2h, hour] at each active hour. Two-level
    shape: hourly pre-aggregate inside map_batches + a tiny keyed groupby
    (the shuffle moves ≤ one row per (event_type, hour)), then a per-type
    vectorized prefix-sum window with ``searchsorted`` on the real hour
    timeline (RANGE semantics — gaps in the timeline are honored, unlike a
    ROWS frame)."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["hour"] = df["ts"].dt.floor("h").dt.strftime("%Y-%m-%d %H:00:00")
        g = df.groupby(["event_type", "hour"], as_index=False).size()
        return _pa_from_pandas(g.rename(columns={"size": "n"}), preserve_index=False)

    hourly = B.grouped_aggregate_small(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "hour"], [Sum("n", alias_name="n")],
        key_domain=256)

    def window_bucket(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"event_type": pd.Series([], dtype=object),
                                 "hour": pd.Series([], dtype=object),
                                 "n3h": pd.Series([], dtype="int64")})
        out = []
        for etype, g in b.groupby("event_type", sort=False):
            g = g.sort_values("hour", kind="stable")
            hours = pd.to_datetime(g["hour"]).to_numpy()
            n = g["n"].to_numpy(dtype=np.int64)
            csum = np.concatenate([[0], np.cumsum(n)])
            lo = np.searchsorted(hours, hours - np.timedelta64(2, "h"), side="left")
            hi = np.arange(1, len(n) + 1)
            out.append(pd.DataFrame({"event_type": etype, "hour": g["hour"],
                                     "n3h": csum[hi] - csum[lo]}))
        return pd.concat(out, ignore_index=True).astype({"n3h": "int64"})

    return B.bucketed_map_groups(hourly, ["event_type"], window_bucket,
                                 key_domain=8)


# ---------------------------------------------------------------------------
# text analysis (documents table)
# ---------------------------------------------------------------------------

def q_token_stats(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda df: pd.DataFrame(
            {"doc_id": df["doc_id"], "n_tokens": T.token_count(df["text"]),
             "n_chars": df["text"].str.len().astype("int64")}
        ),
        batch_format="pandas",
    )


def q_quality_features(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda df: pd.concat([df[["doc_id"]].reset_index(drop=True),
                              T.quality_features(df["text"]).reset_index(drop=True)], axis=1),
        batch_format="pandas",
    )


def q_lang_id(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda df: pd.DataFrame({"doc_id": df["doc_id"], "pred_lang": T.lang_id(df["text"])}),
        batch_format="pandas",
    )


def q_fingerprint_md5(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda df: pd.DataFrame({"doc_id": df["doc_id"], "fp": T.md5_fingerprint(df["text"])}),
        batch_format="pandas",
    )


def q_rolling_fingerprint(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda df: pd.DataFrame({"doc_id": df["doc_id"], "fp64": T.rolling_fingerprint(df["text"])}),
        batch_format="pandas",
    )


def q_chunk_documents(sf_dir: str, chunk_size: int = 200, stride: int = 150):
    """Training-data chunking (M17-style flat-map explode): split each
    document into fixed-size character windows with overlap — chunk ``k``
    covers codepoints ``[k*stride, k*stride + chunk_size)``; a document of
    length n yields ceil(n/stride) chunks (n > 0).

    The per-batch kernel is vectorized per CHUNK INDEX, not per row: pass k
    slices every still-long-enough doc at once with Arrow's
    ``utf8_slice_codeunits``, so the Python loop runs max-chunks-per-doc
    times (~4 on this corpus), each iteration a zero-copy vectorized kernel.
    Output is O(input × chunk_size/stride) and never leaves the batch — at
    100 TB this stage streams with no shuffle and no driver contact.
    Python slicing, Arrow slice_codeunits, and DuckDB substr all agree on
    codepoint indexing (corpus is ASCII; all three are codepoint-based)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    empty = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "chunk_id": pa.array([], pa.int64()),
        "chunk_text": pa.array([], pa.string()),
        "chunk_len": pa.array([], pa.int64()),
    })

    def explode(t: pa.Table) -> pa.Table:
        parts, k = [], 0
        while True:
            sub = t.filter(pc.greater(pc.utf8_length(t["text"]), k * stride))
            if len(sub) == 0:
                break
            txt = pc.utf8_slice_codeunits(
                sub["text"], start=k * stride, stop=k * stride + chunk_size)
            parts.append(pa.table({
                "doc_id": sub["doc_id"],
                "chunk_id": pa.array(np.full(len(sub), k, np.int64)),
                "chunk_text": txt,
                "chunk_len": pc.cast(pc.utf8_length(txt), pa.int64()),
            }))
            k += 1
        return pa.concat_tables(parts) if parts else empty

    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# near-dup dedup family
# ---------------------------------------------------------------------------

def minhash_lsh_pairs_ds(sf_dir: str, bands: int = 16,
                         threshold: float = 0.7) -> rd.Dataset:
    """MinHash+LSH verified near-dup pairs as a **Dataset** (columns
    doc_a/doc_b int64, a < b): per-batch signatures → explode
    (band_key, doc_id) → groupby(band_key) → candidate pairs →
    Jaccard-verify. The scale path — consumers that feed the pair graph
    onward (connected components, anti-joins) take this directly so the
    edge list never lands on the driver (VERDICT r02 §2);
    :func:`q_minhash_lsh_dedup` is the small-result query wrapper."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    class Sign:
        def __init__(self):
            self.mh = D.MinHasher(64)
            self.cache: dict[str, int] = {}  # shingle→hash64, per actor

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            # batch-vectorized: one factorize+reduceat for all signatures,
            # one modular-dot for all band keys — no per-row Python loop
            sigs = self.mh.signatures_batch(df["text"].tolist(), cache=self.cache)
            keys = self.mh.band_keys_batch(sigs, bands)  # (n, bands) int64
            return _pa_from_pandas(pd.DataFrame({
                "band_key": keys.reshape(-1),
                "doc_id": np.repeat(df["doc_id"].to_numpy(), bands),
            }))

    def pairs_bucket(b: pd.DataFrame) -> pd.DataFrame:
        # band keys are hashed whole into one bucket → vectorized self-join
        # per bucket produces every same-band pair (no per-key Python call);
        # pairs leave PACKED (doc_a·2³²|doc_b in one int64 — ids < 2³², the
        # engine's documented key-width envelope) so the cross-band dedup
        # shuffles one key column and reduces with a single np.unique
        m = b.merge(b, on="band_key")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        pk = ((m["doc_id_x"].to_numpy().astype(np.uint64) << np.uint64(32))
              | m["doc_id_y"].to_numpy().astype(np.uint64))
        return pd.DataFrame({"pk": np.unique(pk).view(np.int64)})

    import ray as _ray

    _ncpu = (int(_ray.cluster_resources().get("CPU", 8))
             if _ray.is_initialized() else 8)
    cand = B.bucketed_map_groups(
        ds.map_batches(Sign, batch_format="pandas", batch_size=512,
                       concurrency=(max(2, _ncpu // 4), max(12, _ncpu // 2)),
                       num_cpus=0.5),
        ["band_key"], pairs_bucket,
    )

    # distributed candidate dedup + Jaccard verify (VERDICT r01 §2): pairs
    # repeat across bands, so dedupe with a keyed shuffle (the UNVERIFIED
    # candidate set can be much larger than the output — it never lands on
    # the driver); each verify task then fetches ONLY the texts its batch's
    # pairs reference with a predicate-pushdown parquet read (row-group
    # pruning — the same selective-read pattern as the fetch store,
    # sources/store.py): per-batch cost is O(batch), no corpus-wide shuffle
    # or broadcast at any scale. Only the verified output reaches the driver.
    def dedup_pairs_bucket(t: pa.Table) -> pa.Table:
        ku = np.unique(t.column("pk").to_numpy()).view(np.uint64)
        return pa.table({
            "doc_a": pa.array((ku >> np.uint64(32)).astype(np.int64)),
            "doc_b": pa.array(
                (ku & np.uint64(0xFFFFFFFF)).astype(np.int64))})

    cand = B.bucketed_map_groups(cand, ["pk"], dedup_pairs_bucket,
                                 auto_parallelism=True, arrow_fn=True)

    class Verify:
        def __init__(self, path: str):
            import pyarrow.parquet as pq

            pa.set_cpu_count(1)  # N actors × full-width Arrow pools thrash
            self._pq = pq
            self.path = path

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:
                return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                     "doc_b": pd.Series([], dtype="int64")})
            ids = sorted(pd.concat([df["doc_a"], df["doc_b"]]).unique())
            t = self._pq.read_table(self.path, columns=["doc_id", "text"],
                                    filters=[("doc_id", "in", ids)])
            # shingle each unique doc once per batch — docs recur across
            # pairs, and shingling dominates the per-pair set intersection
            shs = {i: D._shingles(tx) for i, tx in
                   zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}
            keep = [D.jaccard_sets(shs[a], shs[b]) >= threshold
                    for a, b in zip(df["doc_a"], df["doc_b"])]
            return df.loc[keep, ["doc_a", "doc_b"]].astype(
                {"doc_a": "int64", "doc_b": "int64"})

    return cand.map_batches(Verify, fn_constructor_args=(f"{sf_dir}/documents.parquet",),
                            batch_format="pandas", batch_size=512,
                            concurrency=(max(1, _ncpu // 8), max(4, _ncpu // 4)),
                            num_cpus=0.5)


def q_minhash_lsh_dedup(sf_dir: str, bands: int = 16, threshold: float = 0.7):
    """Query wrapper over :func:`minhash_lsh_pairs_ds` — collects the (small)
    verified pair list sorted for the oracle compare."""
    out = minhash_lsh_pairs_ds(sf_dir, bands=bands, threshold=threshold).to_pandas()
    if len(out) == 0:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64")})
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def q_dedup_retention(sf_dir: str):
    """End-to-end dedup retention — the composition a training-data pipeline
    actually runs over a corpus: exact dedup (md5 → keep min doc_id per
    text), then near-dup removal (drop the larger id of every verified
    MinHash pair; pairs are always emitted doc_a < doc_b, so keep-smaller is
    deterministic without connected components).

    The near-dup drop is a bucketed hash ANTI-join over Datasets: survivors
    and drop-ids are union-tagged and co-located by id hash, and the pair
    list stays a Dataset end to end (minhash_lsh_pairs_ds), so the step
    survives a pair list that outgrows any single node."""
    survivors = q_exact_dedup_docs(sf_dir).map_batches(
        lambda df: pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                                 "side": np.int8(0)}),
        batch_format="pandas")
    drops = minhash_lsh_pairs_ds(sf_dir).map_batches(
        # batch-local dedup only trims volume; cross-batch repeats are
        # absorbed by the anti-join bucket's set()
        lambda df: pd.DataFrame(
            {"doc_id": df["doc_b"].drop_duplicates().astype("int64"),
             "side": np.int8(1)}),
        batch_format="pandas")

    def anti_bucket(b: pd.DataFrame) -> pd.DataFrame:
        keep = b.loc[b["side"] == 0, "doc_id"]
        drop = set(b.loc[b["side"] == 1, "doc_id"])
        out = keep[~keep.isin(drop)]
        return pd.DataFrame({"doc_id": out.astype("int64")})

    return B.bucketed_map_groups(survivors.union(drops), ["doc_id"],
                                 anti_bucket, auto_parallelism=True)


def q_customer_order_counts(sf_dir: str):
    """LEFT OUTER join + grouped count: every customer survives, customers
    with no orders get n_orders = 0. Shape: per-batch partial counts on the
    fact side (≤1 row/key/batch leaves each batch) union-tagged with the
    dimension keys, ONE keyed bucketed reduce — the outer semantics cost no
    extra shuffle over the inner count."""
    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def cust_tag(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"c_custkey": df["c_custkey"].astype("int64"),
                             "n": np.zeros(len(df), dtype="int64"),
                             "side": np.full(len(df), 0, dtype="int8")})

    def ord_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", as_index=False).size()
        return pd.DataFrame({"c_custkey": g["o_custkey"].astype("int64"),
                             "n": g["size"].astype("int64"),
                             "side": np.full(len(g), 1, dtype="int8")})

    u = cust.map_batches(cust_tag, batch_format="pandas").union(
        orders.map_batches(ord_partial, batch_format="pandas"))

    def outer_bucket(b: pd.DataFrame) -> pd.DataFrame:
        left = b.loc[b["side"] == 0, "c_custkey"]
        cnt = b[b["side"] == 1].groupby("c_custkey")["n"].sum()
        out = pd.DataFrame({"c_custkey": left.astype("int64")})
        out["n_orders"] = out["c_custkey"].map(cnt).fillna(0).astype("int64")
        return out

    return B.bucketed_map_groups(u, ["c_custkey"], outer_bucket,
                                 auto_parallelism=True)


def q_curation_pipeline(sf_dir: str, min_tokens: int = 30):
    """Flagship training-data curation composition — the chain a 100 TB text
    corpus actually runs, end-to-end in the engine's own operators:

    1. vectorized per-batch language-ID + integer quality gates
       (pred_lang == 'en', n_tokens >= min_tokens, 2·n_alpha >= n_chars);
    2. exact dedup among survivors (md5 → keyed keep-min-id);
    3. near-dup removal: drop doc_b of every verified MinHash pair whose
       doc_a survived steps 1-2 (LSH banding and Jaccard verify are
       pairwise, so full-corpus pairs restricted to the survivor set equal
       pairs computed on the survivor corpus; the drop is non-iterative —
       chains do not propagate — matching q_dedup_retention semantics);
    4. per-source retention stats (docs kept + total whitespace tokens).

    Scale shape: the text column is dropped inside the FIRST map (only ids,
    md5 strings and integer features ever shuffle); exact dedup and the
    near-dup semi/anti joins are bucketed keyed reductions; the output is
    O(sources) rows. Oracle: hybrid — the filter/dedup/stats chain in SQL
    over the live table with the near-dup pair list from the spec-derived
    minhash golden (same pattern as dedup_retention)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        feats = T.quality_features(df["text"])
        lang = T.lang_id(df["text"])
        keep = ((lang == "en") & (feats["n_tokens"] >= min_tokens)
                & (2 * feats["n_alpha"] >= feats["n_chars"])).to_numpy()
        kept = df.loc[keep]
        return pd.DataFrame({
            "doc_id": kept["doc_id"].astype("int64").to_numpy(),
            "source": kept["source"].to_numpy(),
            "n_tokens": feats.loc[keep, "n_tokens"].astype("int64").to_numpy(),
            "text_md5": [hashlib.md5(x.encode("utf-8")).hexdigest()
                         for x in kept["text"]],
        })

    gated = ds.map_batches(gate, batch_format="pandas")

    def exact_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["text_md5", "doc_id"], kind="stable")
        b = b.groupby("text_md5", sort=False).head(1)
        return b[["doc_id", "source", "n_tokens"]].astype(
            {"doc_id": "int64", "n_tokens": "int64"})

    # pin the dedup survivors: three branches consume them (semi-join keys,
    # the tagged anti-join side, and the per-source stats) and a lazy result
    # would re-run the md5 sort once per consumer
    surv = B.bucketed_map_groups(gated, ["text_md5"], exact_bucket,
                                 auto_parallelism=True).materialize()

    pairs = q_minhash_lsh_dedup(sf_dir)
    if len(pairs):
        # semi-join: pair rows whose doc_a survived → their doc_b becomes a drop
        surv_keys = surv.map_batches(
            lambda df: pd.DataFrame({"k": df["doc_id"].astype("int64"),
                                     "b": np.int64(0),
                                     "side": np.int8(0)}),
            batch_format="pandas")
        pair_rows = rd.from_pandas(pd.DataFrame({
            "k": pairs["doc_a"].astype("int64"),
            "b": pairs["doc_b"].astype("int64"),
            "side": np.int8(1)}).reset_index(drop=True))

        def semi_bucket(df: pd.DataFrame) -> pd.DataFrame:
            sk = set(df.loc[df["side"] == 0, "k"])
            p = df[(df["side"] == 1) & df["k"].isin(sk)]
            return pd.DataFrame({"doc_id": p["b"].astype("int64")})

        drops = B.bucketed_map_groups(surv_keys.union(pair_rows), ["k"],
                                      semi_bucket, auto_parallelism=True)

        surv_tag = surv.map_batches(
            lambda df: pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                                     "source": df["source"],
                                     "n_tokens": df["n_tokens"].astype("int64"),
                                     "side": np.int8(0)}),
            batch_format="pandas")
        drop_tag = drops.map_batches(
            lambda df: pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                                     "source": pd.Series([""] * len(df), dtype=object),
                                     "n_tokens": np.zeros(len(df), dtype="int64"),
                                     "side": np.full(len(df), 1, dtype="int8")}),
            batch_format="pandas")

        def anti_bucket(b: pd.DataFrame) -> pd.DataFrame:
            dr = set(b.loc[b["side"] == 1, "doc_id"])
            out = b[(b["side"] == 0) & ~b["doc_id"].isin(dr)]
            return out[["doc_id", "source", "n_tokens"]].astype(
                {"doc_id": "int64", "n_tokens": "int64"})

        surv = B.bucketed_map_groups(surv_tag.union(drop_tag), ["doc_id"],
                                 anti_bucket, auto_parallelism=True)

    def stats_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("source", as_index=False)
             .agg(n_docs=("n_tokens", "size"),
                  total_tokens=("n_tokens", "sum")))
        return g.astype({"n_docs": "int64", "total_tokens": "int64"})

    stats = B.grouped_aggregate_small(
        surv.map_batches(stats_partial, batch_format="pandas"), "source",
        [Sum("n_docs", alias_name="n_docs"),
         Sum("total_tokens", alias_name="total_tokens")],
        key_domain=64).to_pandas()
    stats["n_docs"] = stats["n_docs"].astype("int64")
    stats["total_tokens"] = stats["total_tokens"].astype("int64")
    return stats.sort_values("source").reset_index(drop=True)


def q_simhash(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda df: pd.DataFrame({"doc_id": df["doc_id"], "simhash64": D.simhash64(df["text"])}),
        batch_format="pandas",
    )


def q_simhash_near_dup(sf_dir: str):
    """SimHash near-dup pairs at hamming ≤ 3 via the exact banded LSH of
    :func:`~cninfo_crawler_ray.functions.dedup.hamming_lsh_pairs`: with 4
    16-bit bands, any pair at hamming ≤ 3 shares an untouched band
    (pigeonhole), which is what the brute-force golden checks. Scale shape:
    the shuffle moves (band_key, doc_id, hash) triples — never documents."""
    hashed = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda df: pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                                 "h": D.simhash64(df["text"]).to_numpy()}),
        batch_format="pandas", batch_size=512, num_cpus=0.5)
    return D.collect_pairs(D.hamming_lsh_pairs(hashed, "doc_id", "h", 3),
                           ("doc_a", "doc_b"))


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def _emb_matrix(t: pa.Table, col: str = "embedding") -> np.ndarray:
    """Arrow list column → (rows × dim) float64 matrix via the flat values
    buffer — one buffer copy for the astype, zero per-row Python (VERDICT
    r03 item 7; ``np.stack(df[col].to_numpy())`` builds an object array and
    converts row by row). Embeddings are uniform-length by the table
    contract (TESTDATA.md), enforced by the reshape."""
    c = t[col].combine_chunks()
    n = len(c)
    flat = c.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    if n == 0:
        return flat.reshape(0, 0)
    return flat.reshape(n, -1)


def _ivf_centroids(emb: rd.Dataset, n_cells: int, seed: int = 13,
                   sample_n: int = 2048) -> np.ndarray:
    """Seeded spherical k-means on a driver-side sample (the coarse
    quantizer both IVF operators share). The sample/centroid matrices are
    tiny and fixed-size regardless of corpus scale.

    The sample frame is sorted by its id column before seeding: ``limit()``
    delivers a deterministic row SET (the first ``sample_n`` logical rows)
    but ``to_pandas`` concatenates blocks in arrival order, and the k-means
    init indexes into that order — unsorted, the centroids (and every
    downstream probe/topk) would vary run to run."""
    sdf = emb.limit(sample_n).to_pandas()
    sdf = sdf.sort_values(sdf.columns[0], kind="stable").reset_index(drop=True)
    sample = np.stack(sdf["embedding"].to_numpy()).astype(np.float64)
    sample = _normalize_rows(sample)
    rng = np.random.Generator(np.random.PCG64(seed))
    C = sample[rng.choice(len(sample), size=min(n_cells, len(sample)), replace=False)]
    for _ in range(3):  # Lloyd iterations, spherical
        assign = np.argmax(sample @ C.T, axis=1)
        for c in range(len(C)):
            m = sample[assign == c]
            if len(m):
                v = m.mean(axis=0)
                C[c] = v / max(np.linalg.norm(v), 1e-12)
    return C


def _topk_pair_frame(ids_a, ids_b, sims, k: int) -> pd.DataFrame:
    va, vb = np.minimum(ids_a, ids_b), np.maximum(ids_a, ids_b)
    top = np.argsort(-sims, kind="stable")[:k]
    return pd.DataFrame({"vec_a": va[top].astype(np.int64),
                         "vec_b": vb[top].astype(np.int64),
                         "cos": sims[top]})


_EMPTY_PAIRS = {"vec_a": pd.Series([], dtype="int64"),
                "vec_b": pd.Series([], dtype="int64"),
                "cos": pd.Series([], dtype="float64")}


def q_embedding_topk_pairs(sf_dir: str, k: int = 20, n_blocks: int = 8,
                           mode: str = "exact", n_cells: int = 16,
                           n_assign: int = 2):
    """Embedding near-dup top-k pairs, EXACT, with no full-matrix broadcast
    (VERDICT r01 §3 flagged the O(corpus) matrix shipped to every actor).

    ``mode="exact"`` (default) is a blocked all-pairs self-join: vectors are
    hashed into ``n_blocks`` blocks, every vector is replicated to the
    block-PAIR buckets it participates in (replication factor = n_blocks,
    never the corpus), and each bucket computes one (n/B)×(n/B) matmul +
    local top-k; the global reduce sees ≤ B² × k tiny rows. Work is O(n²)
    split evenly across buckets — the right EXACT algorithm at any n where
    exact all-pairs is affordable at all.

    ``mode="ivf"`` is the approximate scale path for 10^10-row corpora
    (exact n² is off the table there): multi-probe IVF cell assignment →
    per-cell exact pairs → global reduce. On real near-dup data (pair cos
    ≈ 1) cells co-locate true pairs w.h.p.; on this fixture's random
    embeddings its recall vs exact is partial, which is why it is not the
    default for the rows-checked query (the VERDICT's suggestion to route
    through IVF assumed near-dup geometry; the exact blocked join removes
    the broadcast without giving up exactness)."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    if mode == "ivf":
        C = _ivf_centroids(emb, n_cells)
        ref = ray.put(C)

        class AssignCells:
            def __init__(self):
                self.C = ray.get(ref)

            def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
                mn = _normalize_rows(np.stack(df["embedding"].to_numpy()).astype(np.float64))
                order = np.argsort(-(mn @ self.C.T), axis=1)[:, :n_assign]
                parts = []
                for j in range(n_assign):
                    parts.append(pd.DataFrame({
                        "cell": order[:, j].astype(np.int64),
                        "vec_id": df["vec_id"].to_numpy(),
                        "embedding": df["embedding"].to_numpy(),
                    }))
                return pd.concat(parts, ignore_index=True)

        def cell_pairs(b: pd.DataFrame) -> pd.DataFrame:
            outs = []
            for _, g in b.groupby("cell", sort=True):
                g = g.drop_duplicates("vec_id")
                if len(g) < 2:
                    continue
                mn = _normalize_rows(np.stack(g["embedding"].to_numpy()).astype(np.float64))
                ids = g["vec_id"].to_numpy()
                iu = np.triu_indices(len(g), k=1)
                outs.append(_topk_pair_frame(ids[iu[0]], ids[iu[1]], (mn @ mn.T)[iu], k))
            return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame(_EMPTY_PAIRS)

        assigned = emb.map_batches(AssignCells, batch_format="pandas", batch_size=1024,
                                   concurrency=_actor_pool(), num_cpus=0.5)
        allp = B.bucketed_map_groups(assigned, ["cell"], cell_pairs)
    else:
        def replicate(df: pd.DataFrame) -> pd.DataFrame:
            blk = (df["vec_id"].to_numpy() % n_blocks).astype(np.int64)
            parts = []
            for j in range(n_blocks):
                lo, hi = np.minimum(blk, j), np.maximum(blk, j)
                parts.append(pd.DataFrame({
                    "pb": lo * n_blocks + hi,
                    "blk": blk,
                    "vec_id": df["vec_id"].to_numpy(),
                    "embedding": df["embedding"].to_numpy(),
                }))
            return pd.concat(parts, ignore_index=True).drop_duplicates(["pb", "vec_id"])

        def block_pairs(g: pd.DataFrame) -> pd.DataFrame:
            outs = []
            for pb, gg in g.groupby("pb", sort=True):
                i, j = divmod(int(pb), n_blocks)
                if i == j:
                    gi = gg
                    mn = _normalize_rows(np.stack(gi["embedding"].to_numpy()).astype(np.float64))
                    ids = gi["vec_id"].to_numpy()
                    if len(ids) < 2:
                        continue
                    iu = np.triu_indices(len(ids), k=1)
                    outs.append(_topk_pair_frame(ids[iu[0]], ids[iu[1]], (mn @ mn.T)[iu], k))
                else:
                    gi, gj = gg[gg["blk"] == i], gg[gg["blk"] == j]
                    if len(gi) == 0 or len(gj) == 0:
                        continue
                    mi = _normalize_rows(np.stack(gi["embedding"].to_numpy()).astype(np.float64))
                    mj = _normalize_rows(np.stack(gj["embedding"].to_numpy()).astype(np.float64))
                    sims = (mi @ mj.T).ravel()
                    ia = np.repeat(gi["vec_id"].to_numpy(), len(gj))
                    ib = np.tile(gj["vec_id"].to_numpy(), len(gi))
                    outs.append(_topk_pair_frame(ia, ib, sims, k))
            return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame(_EMPTY_PAIRS)

        replicated = emb.map_batches(replicate, batch_format="pandas", batch_size=1024)
        allp = B.bucketed_map_groups(replicated, ["pb"], block_pairs,
                                     num_buckets=n_blocks * n_blocks,
                                     key_domain=n_blocks * n_blocks)

    out = (
        allp.to_pandas()
        .drop_duplicates(["vec_a", "vec_b"])
        .sort_values(["cos", "vec_a", "vec_b"], ascending=[False, True, True])
        .head(k)
    )
    return out[["vec_a", "vec_b"]].reset_index(drop=True)


# ---------------------------------------------------------------------------
# similarity search (ANN)
# ---------------------------------------------------------------------------

def q_ann_topk(sf_dir: str, k: int = 10):
    """Brute-force cosine top-k vs a fixed query (vec_id=0): broadcast query,
    per-batch matmul partial top-k, tiny global reduce."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # predicate-pushdown row lookup: a lambda filter would run Python
    # once per row over the whole table
    q_row = emb.filter(expr="vec_id == 0").take(1)[0]["embedding"]
    qv = np.asarray(q_row, dtype=np.float64)
    qv = qv / max(np.linalg.norm(qv), 1e-12)
    q_ref = ray.put(qv)

    class TopK:
        def __init__(self):
            self.q = ray.get(q_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            m = _normalize_rows(_emb_matrix(t))
            s = m @ self.q
            ids = t["vec_id"].to_numpy()
            keep = ids != 0
            s, ids = s[keep], ids[keep]
            top = np.argsort(-s)[:k]
            return pa.table({"vec_id": pa.array(ids[top].astype(np.int64)),
                             "cos": pa.array(s[top])})

    part = emb.map_batches(TopK, batch_format="pyarrow", batch_size=4096,
                           concurrency=_actor_pool(), num_cpus=0.5)
    final = part.to_pandas().sort_values("cos", ascending=False).head(k)
    return final[["vec_id"]].astype({"vec_id": "int64"}).reset_index(drop=True)


def q_ann_multi_topk(sf_dir: str, k: int = 10, n_queries: int = 8):
    """Batched brute-force ANN: top-k neighbors for EVERY query in a query
    MATRIX (vec_id 0..n_queries-1), one (batch × dim) @ (dim × n_queries)
    matmul per batch against the matrix broadcast once via ray.put. The
    per-batch partial keeps k rows per query, so the reduce sees
    O(batches × n_queries × k) tiny rows — per-query cost amortizes to one
    GEMM column, which is why inference-style ANN serving batches queries."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q_rows = emb.filter(expr=f"vec_id < {n_queries}").take(n_queries)
    q_rows.sort(key=lambda r: r["vec_id"])
    Qm = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in q_rows])
    Qm = Qm / np.maximum(np.linalg.norm(Qm, axis=1, keepdims=True), 1e-12)
    q_ref = ray.put(Qm)

    class MultiTopK:
        def __init__(self):
            self.Q = ray.get(q_ref)  # (n_queries, dim), broadcast once

        def __call__(self, t: pa.Table) -> pa.Table:
            m = _normalize_rows(_emb_matrix(t))
            s = m @ self.Q.T  # (batch, n_queries) — one GEMM for all queries
            ids = t["vec_id"].to_numpy()
            qids, vids, coss = [], [], []
            for qi in range(self.Q.shape[0]):
                keep = ids != qi  # a query is not its own neighbor
                sq, idq = s[keep, qi], ids[keep]
                top = np.argsort(-sq)[:k]
                qids.append(np.full(len(top), qi, np.int64))
                vids.append(idq[top])
                coss.append(sq[top])
            return pa.table({
                "query_id": pa.array(np.concatenate(qids)),
                "vec_id": pa.array(np.concatenate(vids).astype(np.int64)),
                "cos": pa.array(np.concatenate(coss))})

    part = emb.map_batches(MultiTopK, batch_format="pyarrow", batch_size=4096,
                           concurrency=_actor_pool(), num_cpus=0.5)
    final = (part.to_pandas()
             .sort_values(["query_id", "cos", "vec_id"],
                          ascending=[True, False, True], kind="stable")
             .groupby("query_id", sort=False).head(k))
    return final[["query_id", "vec_id"]].astype("int64").reset_index(drop=True)


def q_ann_lsh_topk(sf_dir: str, k: int = 10, planes: int = 12):
    """LSH-bucketed ANN (the scale path): random-hyperplane bucket per
    vector; search only buckets within hamming ≤ 2 of the query's bucket.
    Approximate — returns its own top-k (rows-only check)."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    rng = np.random.Generator(np.random.PCG64(7))
    H = rng.standard_normal((64, planes))
    # predicate-pushdown row lookup: a lambda filter would run Python
    # once per row over the whole table
    q_row = emb.filter(expr="vec_id == 0").take(1)[0]["embedding"]
    qv = np.asarray(q_row, dtype=np.float64)
    qv = qv / max(np.linalg.norm(qv), 1e-12)
    qsig = (qv @ H > 0).astype(np.uint8)
    refs = ray.put((H, qv, qsig))

    class Bucketed:
        def __init__(self):
            self.H, self.q, self.qsig = ray.get(refs)

        def __call__(self, t: pa.Table) -> pa.Table:
            mn = _normalize_rows(_emb_matrix(t))
            sig = (mn @ self.H > 0).astype(np.uint8)
            dist = (sig != self.qsig[None, :]).sum(axis=1)
            ids = t["vec_id"].to_numpy()
            mask = (dist <= 2) & (ids != 0)
            if not mask.any():
                return pa.table({"vec_id": pa.array([], pa.int64()),
                                 "cos": pa.array([], pa.float64())})
            s = mn[mask] @ self.q
            top = np.argsort(-s)[:k]
            return pa.table({
                "vec_id": pa.array(ids[mask][top].astype(np.int64)),
                "cos": pa.array(s[top])})

    part = emb.map_batches(Bucketed, batch_format="pyarrow", batch_size=4096,
                           concurrency=_actor_pool(), num_cpus=0.5)
    final = part.to_pandas().sort_values("cos", ascending=False).head(k)
    return final[["vec_id"]].astype({"vec_id": "int64"}).reset_index(drop=True)


def q_ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.8, stop_cap: int = 100):
    """Exact n-gram (word-3-gram) Jaccard near-dup pairs via an inverted
    shingle index: doc → distinct shingles (map_batches) → bucketed
    self-join per shingle → pair-intersection counts (groupby) → Jaccard
    gate against full per-doc shingle counts.

    Any pair with J > 0 shares a shingle, so the index is exhaustive;
    shingles appearing in > ``stop_cap`` docs are skipped (stop-shingles —
    they'd add O(cap²) candidate pairs each and can't push a true near-dup
    pair below threshold alone; the SQL oracle applies the same cap)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def shingle_rows(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, text in zip(df["doc_id"], df["text"]):
            toks = D._WORD_RE.findall(str(text).lower())
            if len(toks) < 3:
                continue
            for s in {" ".join(toks[i : i + 3]) for i in range(len(toks) - 2)}:
                rows.append((s, did))
        return pd.DataFrame(rows, columns=["shingle", "doc_id"])

    sh = ds.map_batches(shingle_rows, batch_format="pandas")

    def size_partial(df: pd.DataFrame) -> pd.DataFrame:
        # exact per batch — every doc's shingles come from one input row, so
        # one batch holds all of them; the aggregate below merges partials
        # across batches only for the (rare) block-split case
        g = df.groupby("doc_id", as_index=False).size().rename(columns={"size": "n"})
        return g.astype({"n": "int64"})

    sizes = B.grouped_aggregate_auto(
        sh.map_batches(size_partial, batch_format="pandas"),
        "doc_id", [Sum("n", alias_name="n")])

    def pairs_bucket(b: pd.DataFrame) -> pd.DataFrame:
        # shingles are hashed whole into one bucket → counts here are exact
        cnt = b["shingle"].value_counts()
        b = b[b["shingle"].map(cnt) <= stop_cap]
        m = b.merge(b, on="shingle")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        g = m.groupby(["doc_id_x", "doc_id_y"], as_index=False).size()
        return g.rename(columns={"doc_id_x": "doc_a", "doc_id_y": "doc_b", "size": "i"})

    inter = B.grouped_aggregate_auto(
        B.bucketed_map_groups(sh, ["shingle"], pairs_bucket),
        ["doc_a", "doc_b"], [Sum("i", alias_name="i")])
    # per-doc shingle counts join back to the pairs distributed (the
    # driver-side id→size dict was O(corpus) memory; VERDICT r01 §4)
    j1 = B.bucketed_attach(inter, "doc_a", sizes, "doc_id", "n", "na")
    j2 = B.bucketed_attach(j1, "doc_b", sizes, "doc_id", "n", "nb")

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        keep = df["i"] >= threshold * (df["na"] + df["nb"] - df["i"])
        return df.loc[keep, ["doc_a", "doc_b"]].astype({"doc_a": "int64", "doc_b": "int64"})

    out = j2.map_batches(gate, batch_format="pandas").to_pandas()
    if len(out) == 0:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64")})
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def q_top_orders(sf_dir: str, k: int = 100):
    """Global top-k: per-batch partial top-k (so the sort sees ≤ k ×
    n_batches rows, never the table) → tiny global sort → limit."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def partial_topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["total_cents"] = _cents(df["o_totalprice"])
        df = df.sort_values(["total_cents", "o_orderkey"],
                            ascending=[False, True], kind="stable").head(k)
        return _pa_from_pandas(df[["o_orderkey", "total_cents"]], preserve_index=False)

    return (
        ds.map_batches(partial_topk, batch_format="pyarrow")
        .sort(["total_cents", "o_orderkey"], descending=[True, False])
        .limit(k)
    )


def q_union_custkeys(sf_dir: str):
    """Union-all of two sources + exact distinct (set-op family)."""
    a = _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        lambda t: pa.table({"k": t["o_custkey"]}), batch_format="pyarrow"
    )
    b = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda t: pa.table({"k": t["c_custkey"]}), batch_format="pyarrow"
    )
    return a.union(b).groupby("k").aggregate(Count(alias_name="_n")).select_columns(["k"])


def q_source_histogram_salted(sf_dir: str, num_salts: int = 8):
    """Skew-proof keyed count via an explicit SALTED two-phase shuffle (the
    north rule's hot-key treatment, demonstrated as a first-class operator):

      phase 1: groupby((key, salt)) partial counts — a hot key's rows spread
               over ``num_salts`` reducers instead of melting one;
      phase 2: groupby(key) sums the ≤num_salts partials (tiny).

    The ``documents.source`` column is Zipf-skewed in the fixtures, making
    it the natural demo key. Same result as a plain groupby — verified
    against the SQL oracle."""
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def salt_and_count(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["_salt"] = (df["doc_id"] % num_salts).astype("int32")
        g = df.groupby(["source", "_salt"], as_index=False).size()
        return _pa_from_pandas(g.rename(columns={"size": "n"}), preserve_index=False)

    phase1 = B.grouped_aggregate_small(
        ds.map_batches(salt_and_count, batch_format="pyarrow"),
        ["source", "_salt"], [Sum("n", alias_name="n")],
        key_domain=20 * num_salts)                    # phase 1: salted
    return B.grouped_aggregate_small(
        phase1, "source", [Sum("n", alias_name="n")],
        key_domain=20)                                # phase 2: tiny


def q_ann_ivf_topk(sf_dir: str, k: int = 10, n_cells: int = 16, n_probe: int = 4):
    """IVF-style ANN (the scale path next to LSH): coarse centroids from a
    deterministic seeded k-means on a driver-side sample, then each batch
    keeps only vectors whose nearest cell is one of the query's ``n_probe``
    cells and scores those — per-batch work drops to ~n_probe/n_cells of
    brute force while the matmul stays vectorized. Approximate → rows-only
    check; recall vs brute force is asserted in tests."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    C = _ivf_centroids(emb, n_cells)
    # predicate-pushdown row lookup: a lambda filter would run Python
    # once per row over the whole table
    q_row = emb.filter(expr="vec_id == 0").take(1)[0]["embedding"]
    qv = np.asarray(q_row, dtype=np.float64)
    qv = qv / max(np.linalg.norm(qv), 1e-12)
    probe_cells = np.argsort(-(C @ qv))[:n_probe]
    ref = ray.put((C, qv, set(int(c) for c in probe_cells)))

    class IVFSearch:
        def __init__(self):
            self.C, self.q, self.cells = ray.get(ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
            mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
            cell = np.argmax(mn @ self.C.T, axis=1)
            mask = np.isin(cell, list(self.cells)) & (df["vec_id"].to_numpy() != 0)
            if not mask.any():
                return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                     "cos": pd.Series([], dtype="float64")})
            s = mn[mask] @ self.q
            ids = df["vec_id"].to_numpy()[mask]
            top = np.argsort(-s)[:k]
            return pd.DataFrame({"vec_id": ids[top], "cos": s[top]})

    part = emb.map_batches(IVFSearch, batch_format="pandas", batch_size=4096,
                           concurrency=_actor_pool(), num_cpus=0.5)
    final = part.to_pandas().sort_values("cos", ascending=False).head(k)
    return final[["vec_id"]].astype({"vec_id": "int64"}).reset_index(drop=True)


def q_group_centroids(sf_dir: str, n_groups: int = 16):
    """Grouped vector centroid (the aggregate under k-means/IVF training):
    per-dimension sums of every group's embeddings. Each batch quantizes
    its (rows × dim) matrix to int64 micro-units and scatter-adds into a
    dense (groups × dim) accumulator — one numpy op, no per-row work — so
    the shuffle moves O(groups × dim) partial rows per batch regardless of
    corpus size, and the int sums are bit-exact under any batch split /
    reduction order (the float mean is sum_q / n downstream). Output long
    (grp, dim, n_vecs, sum_q) so every column is an exact scalar the
    driver's hash can check."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        m = _emb_matrix(t)  # zero-copy flatten, no per-row object array
        q = np.floor(m * 1_000_000 + 0.5).astype(np.int64)
        g = (t["vec_id"].to_numpy().astype(np.int64)) % n_groups
        dim = q.shape[1]
        acc = np.zeros((n_groups, dim), dtype=np.int64)
        np.add.at(acc, g, q)
        cnt = np.bincount(g, minlength=n_groups).astype(np.int64)
        seen = cnt > 0
        gi = np.nonzero(seen)[0]
        return pa.table({
            "grp": pa.array(np.repeat(gi, dim).astype(np.int64)),
            "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(gi))),
            "n_vecs": pa.array(np.repeat(cnt[gi], dim)),
            "sum_q": pa.array(acc[gi].ravel()),
        })

    return (emb.map_batches(partial, batch_format="pyarrow", batch_size=4096)
            .groupby(["grp", "dim"])
            .aggregate(Sum("n_vecs", alias_name="n_vecs"),
                       Sum("sum_q", alias_name="sum_q")))


def q_embed_clusters(sf_dir: str, n_cells: int = 16):
    """Embedding-space clustering for corpus curation: assign every vector
    to its nearest deterministic spherical-k-means centroid (the same coarse
    quantizer IVF uses — seeded sample, 3 Lloyd rounds, so the partition is
    reproducible run-to-run and cluster-size-to-cluster-size). The centroid
    matrix is tiny and broadcast once via ``ray.put``; assignment is one
    matmul per batch, embarrassingly parallel — the canonical shape for
    k-means labeling at 100 TB (only the fixed-size C ships; vectors
    stream). Output is (vec_id, cluster_id); golden-checked against an
    independent single-pass numpy spec implementation."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    C = _ivf_centroids(emb, n_cells)
    ref = ray.put(C)

    class Assign:
        def __init__(self):
            self.C = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            mn = _normalize_rows(_emb_matrix(t))
            cell = np.argmax(mn @ self.C.T, axis=1)
            return pa.table({
                "vec_id": pa.array(t["vec_id"].to_numpy().astype(np.int64)),
                "cluster_id": pa.array(cell.astype(np.int64))})

    return emb.map_batches(Assign, batch_format="pyarrow", batch_size=4096,
                           concurrency=_actor_pool(), num_cpus=0.5)


# ---------------------------------------------------------------------------
# curation: redaction / decontamination / export sharding
# ---------------------------------------------------------------------------

def q_redact_docs(sf_dir: str):
    """PII-style pattern redaction: vectorized regex replace + match count
    per batch — the scrubbing stage every training corpus runs (emails,
    phones, IDs). Pure per-batch map: no shuffle, no state, so it streams at
    any scale. The pattern is a parameter; here a fixed entity alternation
    so the DuckDB oracle can mirror it exactly (Python re and DuckDB RE2
    agree on this subset: literal alternation + \\b)."""
    pat = r"\b(customer|spark)\b"
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].astype(str)
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64").to_numpy(),
            "clean_text": s.str.replace(pat, "<ENT>", regex=True).to_numpy(dtype=object),
            "n_redacted": s.str.count(pat).astype("int64").to_numpy(),
        })

    return ds.map_batches(fn, batch_format="pandas")


def q_decontaminate_docs(sf_dir: str, n: int = 8, bench_source: str = "src0"):
    """Benchmark decontamination (the GPT-3/PaLM n-gram overlap check): count
    each corpus doc's DISTINCT word ``n``-grams shared with a benchmark set,
    so contaminated docs can be dropped before training.

    Scale shape: the benchmark side (here source == 'src0') is small by
    nature (eval sets are KBs-MBs, not TBs) → read once with predicate
    pushdown, shingled on the driver, broadcast via ``ray.put`` as a frozen
    set; the 100 TB corpus side streams through a stateless actor pool that
    shingles each batch vectorized (functions/text.word_grams — one explode
    + n shifted str.cat views) and counts set hits per doc. No shuffle at
    all: each doc's text lives in one row, so per-batch distinct counts are
    exact."""
    docs = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    bt = docs.filter(expr=f"source == '{bench_source}'").select_columns(["text"]).to_pandas()
    bench_set = frozenset(T.word_grams(bt["text"], n)["gram"].unique().tolist())
    ref = ray.put(bench_set)

    class Flag:
        def __init__(self):
            self.bench = ray.get(ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            sub = df[df["source"] != bench_source]
            empty = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                  "n_shared": pd.Series([], dtype="int64")})
            if sub.empty:
                return empty
            g = T.word_grams(sub["text"].reset_index(drop=True), n).drop_duplicates()
            g = g[g["gram"].isin(self.bench)]
            if g.empty:
                return empty
            cnt = g.groupby("row").size()
            ids = sub["doc_id"].to_numpy()
            return pd.DataFrame({"doc_id": ids[cnt.index.to_numpy()].astype("int64"),
                                 "n_shared": cnt.to_numpy().astype("int64")})

    return docs.map_batches(Flag, batch_format="pandas", batch_size=2048,
                            concurrency=_actor_pool(), num_cpus=0.5)


def q_shuffle_shards(sf_dir: str, n_shards: int = 8):
    """Deterministic training-data export shuffle: Knuth-hash each doc_id,
    shard = h % n_shards, rank within shard by (h, doc_id) — a seeded global
    shuffle with reproducible order, i.e. the write-side of a sharded export
    (each rank is the doc's position in its output shard file). Only
    (doc_id, h) pairs move through the one keyed shuffle — at 100 TB the
    payload columns stay put and are joined back by doc_id per shard after
    assignment, so the exchange is O(rows × 16 bytes), not O(corpus)."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def hashes(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        # uint64 so the Knuth multiply never wraps for doc_id >= ~3.5e9 (ADVICE r02)
        h = ((ids.astype(np.uint64) * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)).astype(np.int64)
        return pd.DataFrame({"doc_id": ids, "shard": (h % n_shards).astype(np.int64),
                             "h": h})

    hd = ds.map_batches(hashes, batch_format="pandas")

    def rank_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["shard", "h", "doc_id"], kind="stable")
        out = df[["doc_id", "shard"]].copy()
        out["rk"] = df.groupby("shard").cumcount().to_numpy() + 1
        return out.astype({"doc_id": "int64", "shard": "int64", "rk": "int64"})

    return B.bucketed_map_groups(hd, ["shard"], rank_bucket,
                                 num_buckets=n_shards, key_domain=n_shards)


def q_snapshot_dedup(sf_dir: str, split_id: int = 250, prefix: int = 40):
    """Incremental (cross-snapshot) dedup — the recurring-crawl scenario:
    keep only NEW-snapshot docs whose content fingerprint never appeared in
    the historical corpus (here: doc_id < split_id plays the history, ≥
    plays the new snapshot). The fingerprint is a parameter; md5 of the
    first ``prefix`` chars here (prefix fingerprints are the cheap
    boilerplate-dedup variant, and the synthetic corpus has no FULL-text
    cross-split dups, so the prefix key is what actually exercises the
    drop path — 13 of 250 new docs drop at sf0.01). Both sides stream
    fingerprint+side tags into ONE bucketed keyed anti-join — the history
    is never collected anywhere (at 100 TB the historical hash set dwarfs
    memory; the shuffle moves only 16-byte digests + ids). Within-snapshot
    dups are kept (they are exact_dedup's job); this operator answers only
    "seen before?"."""
    import hashlib as _hl

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64").to_numpy()
        return pd.DataFrame({
            "md5": [_hl.md5(t[:prefix].encode("utf-8")).hexdigest()
                    for t in df["text"]],
            "doc_id": ids,
            "side": (ids >= split_id).astype(np.int8),  # 0=history, 1=new
        })

    tagged = ds.map_batches(tag, batch_format="pandas")

    def anti_bucket(b: pd.DataFrame) -> pd.DataFrame:
        old = set(b.loc[b["side"] == 0, "md5"])
        new = b[(b["side"] == 1) & ~b["md5"].isin(old)]
        return pd.DataFrame({"doc_id": new["doc_id"].astype("int64")})

    return B.bucketed_map_groups(tagged, ["md5"], anti_bucket)


def export_survivors(sf_dir: str, min_tokens: int = 30, n_shards: int = 8,
                     n: int = 8, bench_source: str = "src0"):
    """Flagship composition #2 — the full training-data EXPORT chain, the
    write-side counterpart of q_curation_pipeline. Returns the survivor
    Dataset ``(doc_id, n_tokens, shard)``:

    1. per-batch language-ID + integer quality gates (en, n_tokens ≥ 30,
       2·n_alpha ≥ n_chars), benchmark source excluded from the corpus;
    2. benchmark decontamination flagged in the SAME pass (word-8-gram
       overlap vs the broadcast src0 gram set — the text is already in
       hand, so the flag costs one vectorized shingle and the text column
       is dropped before anything shuffles);
    3. exact dedup among gate survivors (md5 → keyed keep-min doc_id);
    4. contaminated survivors dropped (flag carried through the dedup —
       same semantics as SQL's dedup-then-NOT-IN);
    5. deterministic Knuth-hash shard assignment — the survivor rows are
       what a shard-file writer consumes (CLI ``export``), and
       q_export_pipeline reduces them to per-shard stats.

    Scale shape: one stateless actor-pool pass over the corpus, ONE keyed
    shuffle (md5 dedup) of id/int/flag rows, and an O(shards) aggregate;
    the benchmark gram set is small by nature and broadcast once."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    bt = (ds.filter(expr=f"source == '{bench_source}'")
          .select_columns(["text"]).to_pandas())
    bench_set = frozenset(T.word_grams(bt["text"], n)["gram"].unique().tolist())
    ref = ray.put(bench_set)

    class Gate:
        def __init__(self):
            self.bench = ray.get(ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            df = df[df["source"] != bench_source]
            empty = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                  "n_tokens": pd.Series([], dtype="int64"),
                                  "text_md5": pd.Series([], dtype=object),
                                  "contam": pd.Series([], dtype=bool)})
            if df.empty:
                return empty
            feats = T.quality_features(df["text"])
            lang = T.lang_id(df["text"])
            keep = ((lang == "en") & (feats["n_tokens"] >= min_tokens)
                    & (2 * feats["n_alpha"] >= feats["n_chars"])).to_numpy()
            kept = df.loc[keep]
            if kept.empty:
                return empty
            g = T.word_grams(kept["text"].reset_index(drop=True), n).drop_duplicates()
            contam = np.zeros(len(kept), dtype=bool)
            hits = g.loc[g["gram"].isin(self.bench), "row"].unique()
            contam[hits] = True
            return pd.DataFrame({
                "doc_id": kept["doc_id"].astype("int64").to_numpy(),
                "n_tokens": feats.loc[keep, "n_tokens"].astype("int64").to_numpy(),
                "text_md5": [hashlib.md5(x.encode("utf-8")).hexdigest()
                             for x in kept["text"]],
                "contam": contam,
            })

    gated = ds.map_batches(Gate, batch_format="pandas", batch_size=2048,
                           concurrency=_actor_pool(), num_cpus=0.5)

    def dedup_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["text_md5", "doc_id"], kind="stable")
        b = b.groupby("text_md5", sort=False).head(1)
        b = b[~b["contam"]]
        return b[["doc_id", "n_tokens"]].astype({"doc_id": "int64",
                                                 "n_tokens": "int64"})

    surv = B.bucketed_map_groups(gated, ["text_md5"], dedup_bucket,
                                 auto_parallelism=True)

    def shard_col(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        # uint64: never wraps for doc_id >= ~3.5e9 (ADVICE r02)
        h = ((ids.astype(np.uint64) * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)).astype(np.int64)
        return pd.DataFrame({"doc_id": ids,
                             "n_tokens": df["n_tokens"].to_numpy().astype(np.int64),
                             "shard": (h % n_shards).astype(np.int64)})

    return surv.map_batches(shard_col, batch_format="pandas")


def q_export_pipeline(sf_dir: str, min_tokens: int = 30, n_shards: int = 8,
                      n: int = 8, bench_source: str = "src0"):
    """Per-shard export stats over :func:`export_survivors` (see there for
    the full chain) — O(shards) output rows, what a shard-file writer needs
    to plan capacity. The CLI ``export`` subcommand writes the survivor
    rows themselves as per-shard parquet, each shard committed with its
    lineage record (state/storage.py)."""
    surv = export_survivors(sf_dir, min_tokens=min_tokens, n_shards=n_shards,
                            n=n, bench_source=bench_source)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"shard": df["shard"].astype("int64"),
                             "n_docs": np.ones(len(df), dtype=np.int64),
                             "n_tokens": df["n_tokens"].astype("int64")})

    return B.grouped_aggregate_small(
        surv.map_batches(partial, batch_format="pandas"), "shard",
        [Sum("n_docs", alias_name="n_docs"),
         Sum("n_tokens", alias_name="total_tokens")],
        key_domain=n_shards)


# ---------------------------------------------------------------------------
# temporal funnel / windowed distinct / percent-of-total / co-occurrence
# ---------------------------------------------------------------------------

def q_funnel_users(sf_dir: str):
    """Sequential funnel: for every ordered event-type pair (a, b), the
    number of users whose FIRST a strictly precedes their FIRST b — the
    two-step conversion count an analytics pipeline computes per funnel
    edge. Shape: per-batch (user, type) min-ts partials → keyed min
    aggregate (auto-sized), → per-user pair explosion inside one bucketed
    reduce (vectorized self-merge; ≤ |types|² rows per user) → an
    O(|types|²) aggregate. The only corpus-sized shuffle is the keyed min."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (pd.DataFrame({"user_id": df["user_id"].astype("int64"),
                           "event_type": df["event_type"],
                           "t0": df["ts"].astype("int64")})
             .groupby(["user_id", "event_type"], as_index=False)["t0"].min())
        return _pa_from_pandas(g)

    firsts = B.grouped_aggregate_auto(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id", "event_type"], [Min("t0", alias_name="t0")])

    def pair_bucket(b: pd.DataFrame) -> pd.DataFrame:
        m = b.merge(b, on="user_id")
        m = m[(m["event_type_x"] != m["event_type_y"]) & (m["t0_x"] < m["t0_y"])]
        g = (m.groupby(["event_type_x", "event_type_y"], as_index=False).size()
             .rename(columns={"event_type_x": "type_a", "event_type_y": "type_b",
                              "size": "n_users"}))
        return g.astype({"n_users": "int64"})

    part = B.bucketed_map_groups(firsts, ["user_id"], pair_bucket,
                                 auto_parallelism=True)
    out = B.grouped_aggregate_small(
        part, ["type_a", "type_b"], [Sum("n_users", alias_name="n_users")],
        key_domain=64).to_pandas()
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


def q_sliding_distinct_users_3h(sf_dir: str):
    """Sliding-window COUNT DISTINCT: per (event_type, hour), the distinct
    users active in [hour-2h, hour] — the windowed-cardinality cousin of
    q_events_sliding_3h (which counts events). Distinctness is resolved
    inside ONE user-keyed bucketed reduce: all observations of a user
    co-locate, so the ×3 window replication and the (type, window, user)
    dedup are batch-local; only O(types × hours) partial counts shuffle
    afterwards. Window hours with no base activity for that type are
    dropped at the end against the O(types × hours) base-hour set."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "user_id"])

    def trio(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        # normalize to ns first: the parquet column is timestamp[us] and
        # pandas 2.x keeps the unit, so a bare astype(int64) would yield µs
        floored = df["ts"].dt.floor("h").astype("datetime64[ns]")
        hour = (floored.astype("int64") // (3600 * 10**9)).astype("int64")
        g = pd.DataFrame({"event_type": df["event_type"], "hour": hour,
                          "user_id": df["user_id"].astype("int64")}).drop_duplicates()
        return _pa_from_pandas(g)

    # pin: two consumers (window counts + the base-hour set) would otherwise
    # each re-run the event scan
    trios = ds.map_batches(trio, batch_format="pyarrow").materialize()

    def window_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.drop_duplicates()  # global (type, hour, user) distinct: user-keyed
        reps = []
        for off in range(3):
            r = b.copy()
            r["whour"] = r["hour"] + off
            reps.append(r[["event_type", "whour", "user_id"]])
        w = pd.concat(reps, ignore_index=True).drop_duplicates()
        g = (w.groupby(["event_type", "whour"], as_index=False).size()
             .rename(columns={"size": "n"}))
        return g.astype({"n": "int64"})

    counts = B.grouped_aggregate_auto(
        B.bucketed_map_groups(trios, ["user_id"], window_bucket,
                              auto_parallelism=True),
        ["event_type", "whour"],
        [Sum("n", alias_name="n_users_3h")]).to_pandas()

    def base_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df[["event_type", "hour"]].drop_duplicates()

    base = B.grouped_aggregate_auto(
        trios.map_batches(base_partial, batch_format="pandas"),
        ["event_type", "hour"],
        [Count(alias_name="_n")]).to_pandas()[["event_type", "hour"]]

    out = counts.merge(base, left_on=["event_type", "whour"],
                       right_on=["event_type", "hour"])
    out["hour"] = pd.to_datetime(out["whour"] * 3600, unit="s").dt.strftime(
        "%Y-%m-%d %H:00:00")
    out = out[["event_type", "hour", "n_users_3h"]].astype({"n_users_3h": "int64"})
    return out.sort_values(["event_type", "hour"]).reset_index(drop=True)


def q_revenue_share_bps(sf_dir: str):
    """Percent-of-total normalization: each nation's revenue share in basis
    points (integer: rev·10⁴ // total). The grouped sums come from the
    distributed nation_revenue chain; the 25-row result and the scalar
    total are driver-side by nature."""
    base = q_nation_revenue(sf_dir).to_pandas()
    total = int(base["revenue_cents"].sum())
    base = base.sort_values("nation").reset_index(drop=True)
    base["share_bps"] = (base["revenue_cents"].astype("int64") * 10000 // total).astype("int64")
    return base[["nation", "revenue_cents", "share_bps"]]


def _distinct_order_part(t: pa.Table) -> pa.Table:
    """Arrow-in/arrow-out distinct (l_orderkey, l_partkey) partial: one
    packed-uint64 np.unique instead of a pandas hash drop_duplicates —
    no DataFrame is ever built (VERDICT r03 item 7, the copurchase family
    was the bench tail). Envelope: both ids < 2³² and non-negative (the
    engine's documented key-width envelope, same packing as the triangle
    counter's orientation rank)."""
    ok = t.column("l_orderkey").to_numpy().astype(np.uint64)
    pk = t.column("l_partkey").to_numpy().astype(np.uint64)
    key = np.unique((ok << np.uint64(32)) | pk)
    return pa.table({
        "l_orderkey": pa.array((key >> np.uint64(32)).astype(np.int64)),
        "l_partkey": pa.array((key & np.uint64(0xFFFFFFFF)).astype(np.int64)),
    })


def _copurchase_pair_counts(sf_dir: str):
    """Distinct co-purchased part pairs with their order co-occurrence
    counts — the shared base of q_copurchase_pairs (HAVING filter),
    q_copurchase_degree_hist (graph degrees), q_copurchase_triangles and
    q_copurchase_lift. The pair explosion runs inside an order-keyed
    bucketed reduce (orders have ≤7 lineitems, so ≤21 pairs per order —
    bounded by construction); pair partial counts then reduce under an
    auto-sized aggregate.

    The bucket kernel is pure index arithmetic (VERDICT r03 item 7 — the
    former pandas self-merge built the full d² cross product with 6
    columns and a hash groupby): one packed-uint64 np.unique sorts+dedups
    the (order, part) rows, np.repeat/cumsum generate exactly the
    Σd(d−1)/2 (i<j) index pairs, and a second packed np.unique counts
    pair occurrences — no DataFrame ops in the hot path.

    The pair partials then stay PACKED (one int64 ``pair`` column, not
    (part_a, part_b)) through the count aggregate — half the key bytes in
    the shuffle and a single-key numpy sort+reduceat reduce instead of a
    pandas two-key hash groupby — and the reduce's partition count comes
    from the lineitem footer row count (pairs ≤ 3.5× lineitems at ≤7
    lines/order), skipping the auto-parallelism materialize+count pass.
    Unpacking to (part_a, part_b) happens once, on the O(distinct-pairs)
    output."""
    grouped, nrows_li = _grouped_order_part(sf_dir)
    return _pair_counts_from_grouped(grouped, nrows_li)


def _grouped_order_part(sf_dir: str):
    """Distinct (l_orderkey, l_partkey) rows, order-bucketed so every
    output BLOCK holds whole orders, sorted by (order, part) — the shared
    exchange of the co-purchase family (_pair_counts_from_grouped explodes
    pairs from it; q_copurchase_lift also derives part frequencies and the
    distinct-order count from the very same blocks instead of running its
    own second keyed exchange over lineitem). Returns (ds, lineitem_rows);
    the row count comes from the parquet footer, not a count() pass."""
    import pyarrow.parquet as _pq

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    nrows_li = _pq.ParquetFile(f"{sf_dir}/lineitem.parquet").metadata.num_rows

    def dedup_bucket(b: pa.Table) -> pa.Table:
        ok = b.column("l_orderkey").to_numpy().astype(np.uint64)
        pk = b.column("l_partkey").to_numpy().astype(np.uint64)
        key = np.unique((ok << np.uint64(32)) | pk)
        return pa.table({
            "l_orderkey": pa.array((key >> np.uint64(32)).astype(np.int64)),
            "l_partkey": pa.array(
                (key & np.uint64(0xFFFFFFFF)).astype(np.int64))})

    return B.bucketed_map_groups(
        ds.map_batches(_distinct_order_part, batch_format="pyarrow"),
        ["l_orderkey"], dedup_bucket, arrow_fn=True), nrows_li


def _pair_counts_from_grouped(grouped, nrows_li: int):
    """Pair explosion + packed-key count over the shared grouped-distinct
    base. Runs ``pairs_block`` per BLOCK (batch_size=None): a bucketed
    reduce emits one block per sort partition, so whole orders never split
    across the map calls (blocks would only split past Ray's 128 MB
    dynamic-block threshold — ~8M of these 16 B rows, two orders of
    magnitude above the ~19k-row partitions this stage produces)."""

    def pairs_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"pair": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        # rows arrive distinct and (order, part)-sorted from dedup_bucket;
        # within an order partkeys ascend, so pk[li] < pk[ri] holds by
        # construction — no re-sort, no re-unique
        ok_s = b.column("l_orderkey").to_numpy().astype(np.uint64)
        pk_s = b.column("l_partkey").to_numpy().astype(np.uint64)
        starts = np.flatnonzero(np.r_[True, ok_s[1:] != ok_s[:-1]])
        sizes = np.diff(np.r_[starts, len(ok_s)])
        within = np.arange(len(ok_s)) - np.repeat(starts, sizes)
        rep = np.repeat(sizes, sizes) - 1 - within  # partners after row i
        total = int(rep.sum())
        if total == 0:
            return pa.table({"pair": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        li = np.repeat(np.arange(len(ok_s)), rep)
        rstarts = np.cumsum(rep) - rep
        ri = np.arange(total) - np.repeat(rstarts, rep) + li + 1
        pair, counts = np.unique((pk_s[li] << np.uint64(32)) | pk_s[ri],
                                 return_counts=True)
        return pa.table({
            "pair": pa.array(pair.view(np.int64)),
            "n": pa.array(counts.astype(np.int64))})

    def reduce_pairs(t: pa.Table) -> pa.Table:
        k = t.column("pair").to_numpy()
        n = t.column("n").to_numpy()
        if len(k) == 0:
            return pa.table({"part_a": pa.array([], pa.int64()),
                             "part_b": pa.array([], pa.int64()),
                             "n_orders": pa.array([], pa.int64())})
        order = np.argsort(k, kind="stable")
        k = k[order]
        n = n[order]
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        ku = k[starts].view(np.uint64)
        return pa.table({
            "part_a": pa.array((ku >> np.uint64(32)).astype(np.int64)),
            "part_b": pa.array((ku & np.uint64(0xFFFFFFFF)).astype(np.int64)),
            "n_orders": pa.array(np.add.reduceat(n, starts).astype(np.int64))})

    part = grouped.map_batches(pairs_block, batch_size=None,
                               batch_format="pyarrow")
    # 64 Ki rows/reduce task: at ~16 B/row a task still holds <2 MB, and the
    # previous 8 Ki sizing made 257 sub-10 ms tasks whose scheduling cost 3×
    # the whole reduce (measured 2.9 s → 0.92 s for the full base at sf0.1)
    return B.bucketed_map_groups(part, ["pair"], reduce_pairs,
                                 arrow_fn=True, nrows_hint=nrows_li * 7 // 2,
                                 rows_per_block=65536)


def q_copurchase_pairs(sf_dir: str, min_orders: int = 2):
    """Market-basket co-occurrence: part pairs bought together in ≥
    ``min_orders`` distinct orders (HAVING over the shared pair base)."""
    agg = _copurchase_pair_counts(sf_dir)
    return agg.map_batches(
        lambda df: df[df["n_orders"] >= min_orders].astype(
            {"part_a": "int64", "part_b": "int64", "n_orders": "int64"}),
        batch_format="pandas")


def q_copurchase_degree_hist(sf_dir: str):
    """Degree distribution of the co-purchase graph: for each part, its
    number of distinct co-purchased partner parts, histogrammed as
    (degree → n_parts). Built from the shared pair base: each undirected
    pair contributes one degree unit to both endpoints (a stateless ×2
    explode), then two auto-sized keyed aggregates — per-part degree, then
    the O(max-degree)-row histogram. The canonical shape for graph degree
    profiles at scale: nothing materializes but the pair list partials."""
    agg = _copurchase_pair_counts(sf_dir)

    def explode(t: pa.Table) -> pa.Table:
        part, n = np.unique(np.concatenate([t.column("part_a").to_numpy(),
                                            t.column("part_b").to_numpy()]),
                            return_counts=True)
        return pa.table({"part": pa.array(part.astype(np.int64)),
                         "one": pa.array(n.astype(np.int64))})

    deg = B.grouped_aggregate_auto(
        agg.map_batches(explode, batch_format="pyarrow"),
        "part", [Sum("one", alias_name="degree")])

    def to_hist(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("degree", as_index=False).size()
        return _pa_from_pandas(pd.DataFrame({
            "degree": g["degree"].astype("int64"),
            "n_parts": g["size"].astype("int64")}))

    return B.grouped_aggregate_auto(
        deg.map_batches(to_hist, batch_format="pandas"),
        "degree", [Sum("n_parts", alias_name="n_parts")])


def q_cohort_retention(sf_dir: str):
    """Cohort retention matrix: users grouped by first-seen day, counted on
    each later active day as (cohort_day, offset_days) → n_active. The
    classic growth-analytics table, done scale-right: per-batch distinct
    (user, day) observations, then ONE user-keyed bucketed reduce that
    derives each user's cohort AND its per-offset activity locally (all of
    a user's days co-locate), emitting O(cohorts × offsets) partials."""
    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def ud(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        floored = df["ts"].dt.floor("D").astype("datetime64[ns]")
        day = (floored.astype("int64") // (86400 * 10**9)).astype("int64")
        g = pd.DataFrame({"user_id": df["user_id"].astype("int64"),
                          "day": day}).drop_duplicates()
        return _pa_from_pandas(g)

    def cohort_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.drop_duplicates()  # global (user, day) distinct: user-keyed
        day0 = b.groupby("user_id")["day"].transform("min")
        g = (pd.DataFrame({"day0": day0, "off": b["day"] - day0})
             .groupby(["day0", "off"], as_index=False).size())
        return pd.DataFrame({"day0": g["day0"].astype("int64"),
                             "offset_days": g["off"].astype("int64"),
                             "n_active": g["size"].astype("int64")})

    part = B.bucketed_map_groups(ds.map_batches(ud, batch_format="pyarrow"),
                                 ["user_id"], cohort_bucket,
                                 auto_parallelism=True)
    out = B.grouped_aggregate_auto(
        part, ["day0", "offset_days"],
        [Sum("n_active", alias_name="n_active")]).to_pandas()
    out["cohort_day"] = pd.to_datetime(out["day0"] * 86400, unit="s").dt.strftime("%Y-%m-%d")
    out = out[["cohort_day", "offset_days", "n_active"]].astype(
        {"offset_days": "int64", "n_active": "int64"})
    return out.sort_values(["cohort_day", "offset_days"]).reset_index(drop=True)


def q_all_orders_final(sf_dir: str):
    """Universal quantifier as one keyed aggregate: customers ALL of whose
    orders are status 'F' (relational division / NOT EXISTS without the
    anti-join): per-batch (custkey, n, n_f) partials → keyed sum → keep
    rows with n == n_f. No per-order data survives the first map."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderstatus"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (pd.DataFrame({"o_custkey": df["o_custkey"].astype("int64"),
                           "f": (df["o_orderstatus"] == "F").astype("int64")})
             .groupby("o_custkey", as_index=False)
             .agg(n=("f", "size"), n_f=("f", "sum")))
        return g.astype({"n": "int64", "n_f": "int64"})

    agg = B.grouped_aggregate_auto(
        ds.map_batches(partial, batch_format="pandas"), "o_custkey",
        [Sum("n", alias_name="n"), Sum("n_f", alias_name="n_f")])
    out = agg.map_batches(
        lambda df: (df.loc[df["n"] == df["n_f"], ["o_custkey", "n"]]
                    .rename(columns={"n": "n_orders"})
                    .astype({"o_custkey": "int64", "n_orders": "int64"})),
        batch_format="pandas").to_pandas()
    if len(out.columns) == 0:  # Ray to_pandas drops schema on 0-row results
        out = pd.DataFrame({"o_custkey": pd.Series([], dtype="int64"),
                            "n_orders": pd.Series([], dtype="int64")})
    return out.sort_values("o_custkey").reset_index(drop=True)


def q_event_paths(sf_dir: str, k: int = 3):
    """Path analysis: each user's first ``k`` event types in (ts, event_id)
    order joined into one '>'-separated path string, counted per path — the
    user-journey histogram behind funnel design. One user-keyed bucketed
    reduce derives every path locally (head-k + vectorized string agg); the
    path histogram is O(|types|^k) rows."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "user_id", "event_id"])

    def prep(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return _pa_from_pandas(pd.DataFrame({
            "user_id": df["user_id"].astype("int64"),
            "t": df["ts"].astype("datetime64[ns]").astype("int64"),
            "event_id": df["event_id"].astype("int64"),
            "event_type": df["event_type"],
        }))

    def path_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["user_id", "t", "event_id"], kind="stable")
        b = b.groupby("user_id", sort=False).head(k)
        paths = (b.groupby("user_id", sort=False)["event_type"]
                 .agg(">".join))
        g = paths.value_counts()
        return pd.DataFrame({"path": g.index.astype(str),
                             "n_users": g.to_numpy().astype("int64")})

    part = B.bucketed_map_groups(ds.map_batches(prep, batch_format="pyarrow"),
                                 ["user_id"], path_bucket,
                                 auto_parallelism=True)
    out = B.grouped_aggregate_auto(
        part, "path", [Sum("n_users", alias_name="n_users")]).to_pandas()
    return (out.astype({"n_users": "int64"})
            .sort_values("path").reset_index(drop=True))


def q_char_class_stats(sf_dir: str):
    """Per-source character-class totals (chars / digits / letters /
    spaces) — corpus composition stats a text-quality dashboard reads.
    Vectorized str.count per batch; only O(sources) integer partials
    shuffle."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].astype(str)
        g = (pd.DataFrame({
            "source": df["source"],
            "n_chars": t.str.len().astype("int64"),
            "n_digits": t.str.count(r"[0-9]").astype("int64"),
            "n_alpha": t.str.count(r"[A-Za-z]").astype("int64"),
            "n_spaces": t.str.count(" ").astype("int64"),
        }).groupby("source", as_index=False).sum())
        return g

    return B.grouped_aggregate_small(
        ds.map_batches(partial, batch_format="pandas"), "source",
        [Sum("n_chars", alias_name="n_chars"),
         Sum("n_digits", alias_name="n_digits"),
         Sum("n_alpha", alias_name="n_alpha"),
         Sum("n_spaces", alias_name="n_spaces")],
        key_domain=64)



def q_dup_family_sizes(sf_dir: str):
    """Dedup diagnostics: the histogram of exact-duplicate family sizes
    (how many md5 groups have 1, 2, 3… members) — the first table a dedup
    report prints. Two keyed reductions, both over pre-aggregated partials:
    md5 → family size (auto-sized hash reduce), then size → family count
    (tiny domain)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def add_hash(t: pa.Table) -> pa.Table:
        h = [hashlib.md5(x.encode("utf-8")).hexdigest() for x in t["text"].to_pylist()]
        return pa.table({"text_md5": pa.array(h, pa.string())})

    def fam_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("text_md5", as_index=False).size().rename(columns={"size": "n"})
        return g.astype({"n": "int64"})

    fams = B.grouped_aggregate_auto(
        ds.map_batches(add_hash, batch_format="pyarrow")
          .map_batches(fam_partial, batch_format="pandas"),
        "text_md5", [Sum("n", alias_name="n")])

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("n", as_index=False).size().rename(
            columns={"n": "family_size", "size": "n_families"})
        return g.astype({"family_size": "int64", "n_families": "int64"})

    # auto, not grouped_aggregate_small: the histogram partials can be a
    # single-digit row count, and repartition(8) of fewer-than-8 rows PADS
    # the shortfall with schema-less empties (split_repartition builds
    # 0-column tables for the missing blocks)
    return B.grouped_aggregate_auto(
        fams.map_batches(hist_partial, batch_format="pandas"),
        "family_size", [Sum("n_families", alias_name="n_families")])


def q_monthly_order_growth(sf_dir: str):
    """Month-over-month order counts with the LAG delta — the windowed
    growth table. Per-batch month partials → tiny keyed sum → the lag is a
    driver-side shift over the O(months) frame."""
    ds = _read(sf_dir, "orders", ["o_orderdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.to_datetime(df["o_orderdate"])
        month = (d.dt.year * 100 + d.dt.month).astype("int64")
        g = month.to_frame("month").groupby("month", as_index=False).size()
        return g.rename(columns={"size": "n_orders"}).astype({"n_orders": "int64"})

    months = B.grouped_aggregate_small(
        ds.map_batches(partial, batch_format="pandas"),
        "month", [Sum("n_orders", alias_name="n_orders")],
        key_domain=512).to_pandas().sort_values("month").reset_index(drop=True)
    months["delta"] = months["n_orders"].diff().fillna(0).astype("int64")
    return months.astype({"month": "int64", "n_orders": "int64"})


def q_weekday_histogram(sf_dir: str):
    """Events per weekday. The weekday is computed from epoch days with the
    SAME closed formula on both engines ((days + 4) % 7, 0 = Sunday) —
    never from a library weekday whose week-start convention differs
    between pandas (Monday=0) and DuckDB (Sunday=0)."""
    ds = _read(sf_dir, "events", ["ts"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        day = (df["ts"].dt.floor("D").astype("datetime64[ns]").astype("int64")
               // (86400 * 10**9))
        wd = ((day + 4) % 7).astype("int64")
        g = wd.to_frame("weekday").groupby("weekday", as_index=False).size()
        return _pa_from_pandas(
            g.rename(columns={"size": "n_events"}).astype({"n_events": "int64"}))

    return B.grouped_aggregate_small(
        ds.map_batches(partial, batch_format="pyarrow"),
        "weekday", [Sum("n_events", alias_name="n_events")],
        key_domain=7)


def q_top_part_by_flag(sf_dir: str):
    """Grouped argmax over a derived measure: the part with the highest
    revenue (cents) per returnflag, ties to the smaller partkey. Partials
    collapse (flag, part) per batch, an auto-sized hash reduce finishes the
    sums, and the argmax is one part-keyed... flag-keyed bucket pick."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_partkey", "l_extendedprice", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(df["l_extendedprice"].to_numpy()
                         * (1 - df["l_discount"].to_numpy()) * 100 + 0.5).astype(np.int64)
        g = (pd.DataFrame({"l_returnflag": df["l_returnflag"],
                           "l_partkey": df["l_partkey"].astype("int64"),
                           "revenue_cents": cents})
             .groupby(["l_returnflag", "l_partkey"], as_index=False)["revenue_cents"].sum())
        return g

    sums = B.grouped_aggregate_auto(
        ds.map_batches(partial, batch_format="pandas"),
        ["l_returnflag", "l_partkey"],
        [Sum("revenue_cents", alias_name="revenue_cents")])

    def argmax_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["l_returnflag", "revenue_cents", "l_partkey"],
                          ascending=[True, False, True], kind="stable")
        top = b.drop_duplicates("l_returnflag")
        return pd.DataFrame({"l_returnflag": top["l_returnflag"].astype(str),
                             "l_partkey": top["l_partkey"].astype("int64"),
                             "revenue_cents": top["revenue_cents"].astype("int64")})

    return B.bucketed_map_groups(sums, ["l_returnflag"], argmax_bucket,
                                 key_domain=3)



def q_vocab_growth(sf_dir: str):
    """Vocabulary-growth curve (Heaps'-law table): for each doc_id, how
    many vocabulary terms make their FIRST corpus appearance in it, plus
    the running vocabulary size in doc_id order. First-occurrence is one
    token-keyed min reduce over per-batch (tok, min doc_id) partials; the
    per-doc new-term histogram and its prefix sum run over the O(docs)
    result."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def tok_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df.assign(tok=df["text"].str.lower().str.findall(r"[a-z0-9]+"))
                [["doc_id", "tok"]].explode("tok").dropna(subset=["tok"]))
        g = toks.groupby("tok", as_index=False)["doc_id"].min()
        return pd.DataFrame({"tok": g["tok"].astype(str),
                             "first_doc": g["doc_id"].astype("int64")})

    firsts = B.grouped_aggregate_auto(
        ds.map_batches(tok_partial, batch_format="pandas"),
        "tok", [Min("first_doc", alias_name="first_doc")])

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("first_doc", as_index=False).size()
             .rename(columns={"first_doc": "doc_id", "size": "new_terms"}))
        return g.astype({"doc_id": "int64", "new_terms": "int64"})

    out = B.grouped_aggregate_auto(
        firsts.map_batches(hist_partial, batch_format="pandas"),
        "doc_id", [Sum("new_terms", alias_name="new_terms")]).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    out["vocab_size"] = out["new_terms"].cumsum().astype("int64")
    return out.astype({"doc_id": "int64", "new_terms": "int64"})


def q_source_vocab_overlap(sf_dir: str, top_pairs: int = 25):
    """Source-level set-similarity: for the ``top_pairs`` most-overlapping
    source pairs, the exact intersection and union sizes of their
    vocabularies (the integer core of a Jaccard matrix — the ratio is left
    to the reader so both engines compare integers). Distinct (source, tok)
    pairs resolve in one token-keyed reduce that also emits every
    same-token source pair; per-source vocabulary sizes come from the same
    distinct table, and |A∪B| = |A| + |B| − |A∩B|."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def st_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df.assign(tok=df["text"].str.lower().str.findall(r"[a-z0-9]+"))
                [["source", "tok"]].explode("tok").dropna(subset=["tok"]))
        return toks.drop_duplicates().astype({"tok": str})

    st = ds.map_batches(st_partial, batch_format="pandas")

    def pair_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.drop_duplicates()  # global (source, tok) distinct: tok-keyed
        m = b.merge(b, on="tok")
        m = m[m["source_x"] < m["source_y"]]
        inter = (m.groupby(["source_x", "source_y"], as_index=False).size()
                 .rename(columns={"source_x": "source_a",
                                  "source_y": "source_b", "size": "n_inter"}))
        sizes = (b.groupby("source", as_index=False).size()
                 .rename(columns={"size": "n_vocab"}))
        inter["kind"] = "pair"
        sizes = pd.DataFrame({"source_a": sizes["source"], "source_b": "",
                              "n_inter": sizes["n_vocab"], "kind": "size"})
        out = pd.concat([inter, sizes], ignore_index=True)
        return out.astype({"n_inter": "int64"})

    part = B.bucketed_map_groups(st, ["tok"], pair_bucket,
                                 auto_parallelism=True)
    agg = B.grouped_aggregate_auto(
        part, ["kind", "source_a", "source_b"],
        [Sum("n_inter", alias_name="n")]).to_pandas()

    sizes = (agg[agg["kind"] == "size"].set_index("source_a")["n"])
    pairs = agg[agg["kind"] == "pair"].copy()
    pairs["n_union"] = (pairs["source_a"].map(sizes).astype("int64")
                        + pairs["source_b"].map(sizes).astype("int64")
                        - pairs["n"].astype("int64"))
    pairs = pairs.rename(columns={"n": "n_inter"})
    pairs = pairs.sort_values(["n_inter", "source_a", "source_b"],
                              ascending=[False, True, True]).head(top_pairs)
    return (pairs[["source_a", "source_b", "n_inter", "n_union"]]
            .astype({"n_inter": "int64", "n_union": "int64"})
            .reset_index(drop=True))



def q_priority_transitions(sf_dir: str):
    """Markov-style transition counts over each customer's order-priority
    sequence (orders taken in (date, orderkey) order): how often priority A
    is followed by priority B. One custkey-keyed bucketed reduce sorts each
    partition and counts adjacent same-customer pairs with a vectorized
    shift — the only shuffle is the keyed sort; the 5×5 transition matrix
    aggregates as O(pairs × partitions) partials."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate",
                                  "o_orderpriority"])

    def slim(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        day = (pd.to_datetime(df["o_orderdate"]).astype("datetime64[ns]")
               .astype("int64") // (86400 * 10**9))
        return _pa_from_pandas(pd.DataFrame(
            {"o_custkey": df["o_custkey"].astype("int64"),
             "day": day.astype("int64"),
             "o_orderkey": df["o_orderkey"].astype("int64"),
             "prio": df["o_orderpriority"].astype(str)}))

    def pair_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["o_custkey", "day", "o_orderkey"], kind="stable")
        cust = b["o_custkey"].to_numpy()
        prio = b["prio"].to_numpy()
        m = cust[1:] == cust[:-1]
        pairs = pd.DataFrame({"prio_from": prio[:-1][m], "prio_to": prio[1:][m]})
        g = pairs.groupby(["prio_from", "prio_to"], as_index=False).size()
        return g.rename(columns={"size": "n"}).astype({"n": "int64"})

    part = B.bucketed_map_groups(ds.map_batches(slim, batch_format="pyarrow"),
                                 ["o_custkey"], pair_bucket,
                                 auto_parallelism=True)
    return B.grouped_aggregate_small(
        part, ["prio_from", "prio_to"], [Sum("n", alias_name="n")],
        key_domain=32)


def q_order_gap_stats(sf_dir: str):
    """Per-customer inter-order gap statistics in whole days (count / min /
    max over consecutive-order deltas, (date, orderkey) order; customers
    with a single order drop out). Same shape as q_priority_transitions:
    one keyed sort, adjacency by vectorized shift, per-customer reduction
    inside the bucket — output is O(customers)."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"])

    def slim(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        day = (pd.to_datetime(df["o_orderdate"]).astype("datetime64[ns]")
               .astype("int64") // (86400 * 10**9))
        return _pa_from_pandas(pd.DataFrame(
            {"o_custkey": df["o_custkey"].astype("int64"),
             "day": day.astype("int64"),
             "o_orderkey": df["o_orderkey"].astype("int64")}))

    def gap_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["o_custkey", "day", "o_orderkey"], kind="stable")
        cust = b["o_custkey"].to_numpy()
        day = b["day"].to_numpy()
        m = cust[1:] == cust[:-1]
        gaps = pd.DataFrame({"o_custkey": cust[1:][m],
                             "gap": (day[1:] - day[:-1])[m]})
        g = gaps.groupby("o_custkey", as_index=False).agg(
            n_gaps=("gap", "size"), min_gap=("gap", "min"),
            max_gap=("gap", "max"))
        return g.astype({"o_custkey": "int64", "n_gaps": "int64",
                         "min_gap": "int64", "max_gap": "int64"})

    return B.bucketed_map_groups(ds.map_batches(slim, batch_format="pyarrow"),
                                 ["o_custkey"], gap_bucket,
                                 auto_parallelism=True)


def q_active_day_streaks(sf_dir: str):
    """Longest consecutive-active-day streak per user (gaps-and-islands).
    All of a user's observations co-locate in one user-keyed bucket, so the
    distinct-day dedup, the run segmentation (cumsum over break flags) and
    the per-user max collapse into one vectorized pass per partition."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def days(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        day = (df["ts"].dt.floor("D").astype("datetime64[ns]").astype("int64")
               // (86400 * 10**9))
        out = pd.DataFrame({"user_id": df["user_id"].astype("int64"),
                            "day": day.astype("int64")}).drop_duplicates()
        return _pa_from_pandas(out)

    def streak_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.drop_duplicates().sort_values(["user_id", "day"], kind="stable")
        user = b["user_id"].to_numpy()
        day = b["day"].to_numpy()
        new_run = np.ones(len(b), dtype=bool)
        new_run[1:] = (user[1:] != user[:-1]) | (day[1:] != day[:-1] + 1)
        run_id = np.cumsum(new_run)
        runs = pd.DataFrame({"user_id": user, "run": run_id})
        lens = runs.groupby(["user_id", "run"], as_index=False).size()
        g = lens.groupby("user_id", as_index=False)["size"].max()
        return g.rename(columns={"size": "max_streak"}).astype(
            {"user_id": "int64", "max_streak": "int64"})

    return B.bucketed_map_groups(ds.map_batches(days, batch_format="pyarrow"),
                                 ["user_id"], streak_bucket,
                                 auto_parallelism=True)


def q_bigram_top50(sf_dir: str, k: int = 50):
    """Global top-k word bigrams by (count desc, bigram asc). Per-batch
    value_counts is the combiner — adjacency is resolved inside each doc by
    a vectorized same-row shift over the exploded token frame, so the
    shuffle moves O(bigram-vocab/batch) partials, never O(tokens). The
    final rank is a distributed sort + limit over vocabulary-sized data."""
    ds = _read(sf_dir, "documents", ["text"])

    def partial(t: pa.Table) -> pa.Table:
        toks = (t["text"].to_pandas().str.lower()
                .str.findall(r"[a-z0-9]+").explode().dropna())
        row = toks.index.to_numpy()
        tok = toks.to_numpy()
        m = row[1:] == row[:-1]
        bigrams = tok[:-1][m] + " " + tok[1:][m]
        vc = pd.Series(bigrams).value_counts()
        return _pa_from_pandas(pd.DataFrame(
            {"bigram": vc.index.astype(str),
             "n": vc.to_numpy().astype(np.int64)}))

    counts = B.grouped_aggregate_auto(
        ds.map_batches(partial, batch_format="pyarrow"),
        "bigram", [Sum("n", alias_name="n")])
    return counts.sort(["n", "bigram"], descending=[True, False]).limit(k)


def q_returns_by_month(sf_dir: str):
    """Return-rate table per ship month: item count, returned count
    (l_returnflag = 'R'), and the rate in integer basis points
    (n_returned * 10000 // n_items) so both engines compare integers.
    Per-batch month partials → one tiny keyed sum → the bps divide runs
    over the O(months) frame."""
    ds = _read(sf_dir, "lineitem", ["l_shipdate", "l_returnflag"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        d = pd.to_datetime(df["l_shipdate"])
        month = (d.dt.year * 100 + d.dt.month).astype("int64")
        ret = (df["l_returnflag"].astype(str) == "R").astype("int64")
        g = (pd.DataFrame({"month": month, "n_items": 1, "n_returned": ret})
             .groupby("month", as_index=False).sum())
        return _pa_from_pandas(g.astype({"n_items": "int64",
                                         "n_returned": "int64"}))

    months = B.grouped_aggregate_small(
        ds.map_batches(partial, batch_format="pyarrow"), "month",
        [Sum("n_items", alias_name="n_items"),
         Sum("n_returned", alias_name="n_returned")],
        key_domain=512).to_pandas()
    months["return_bps"] = (months["n_returned"] * 10000
                            // months["n_items"]).astype("int64")
    return months.sort_values("month").reset_index(drop=True).astype(
        {"month": "int64", "n_items": "int64", "n_returned": "int64"})


def q_supplier_coverage_hist(sf_dir: str):
    """How many parts are served by exactly k distinct suppliers — a
    two-level distinct aggregation. The partkey-keyed bucket co-locates
    every observation of a part, so the (part, supplier) dedup and the
    per-part count are partition-local; the O(parts) counts then collapse
    into an O(distinct k) histogram."""
    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def slim(t: pa.Table) -> pa.Table:
        df = t.to_pandas()[["l_partkey", "l_suppkey"]].drop_duplicates()
        return _pa_from_pandas(df.astype({"l_partkey": "int64",
                                          "l_suppkey": "int64"}))

    def count_bucket(b: pd.DataFrame) -> pd.DataFrame:
        c = (b.drop_duplicates().groupby("l_partkey", as_index=False).size()
             .rename(columns={"size": "n_suppliers"}))
        h = (c.groupby("n_suppliers", as_index=False).size()
             .rename(columns={"size": "n_parts"}))
        return h.astype({"n_suppliers": "int64", "n_parts": "int64"})

    part = B.bucketed_map_groups(ds.map_batches(slim, batch_format="pyarrow"),
                                 ["l_partkey"], count_bucket,
                                 auto_parallelism=True)
    # the k-histogram partials are O(distinct k × partitions) — can be under
    # ten rows at small scale, where a fixed partition count pads empty
    # schema-less blocks; auto sizes the reduce from the actual row count
    return B.grouped_aggregate_auto(
        part, "n_suppliers", [Sum("n_parts", alias_name="n_parts")])


def q_burst_days(sf_dir: str):
    """Anomaly surfacing: days whose event count is at least TWICE the
    per-day average, compared in cross-multiplied integers
    (n_day · n_days ≥ 2 · total) so no float threshold can disagree
    between engines. The day histogram reduces distributed; the filter
    runs over the O(days) result."""
    ds = _read(sf_dir, "events", ["ts"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        day = (df["ts"].dt.floor("D").astype("datetime64[ns]").astype("int64")
               // (86400 * 10**9))
        g = (day.to_frame("day").groupby("day", as_index=False).size()
             .rename(columns={"size": "n_events"}))
        return _pa_from_pandas(g.astype({"day": "int64", "n_events": "int64"}))

    days = B.grouped_aggregate_auto(
        ds.map_batches(partial, batch_format="pyarrow"),
        "day", [Sum("n_events", alias_name="n_events")]).to_pandas()
    n_days = len(days)
    total = int(days["n_events"].sum())
    hot = days[days["n_events"] * n_days >= 2 * total].copy()
    hot = hot.sort_values("day").reset_index(drop=True)
    out = pd.DataFrame({
        "day": pd.to_datetime(hot["day"] * 86400, unit="s").dt.strftime("%Y-%m-%d"),
        "n_events": hot["n_events"].astype("int64")})
    return out


def q_customer_rfm(sf_dir: str):
    """The RFM base table: per customer, recency in days against the global
    latest order date, order frequency, and monetary value in cents. One
    keyed reduce builds the per-customer partials; the global max-day is a
    scalar aggregate over that result, applied in a second vectorized map."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        day = (pd.to_datetime(df["o_orderdate"]).astype("datetime64[ns]")
               .astype("int64") // (86400 * 10**9))
        g = (pd.DataFrame({"o_custkey": df["o_custkey"].astype("int64"),
                           "last_day": day.astype("int64"),
                           "frequency": 1,
                           "monetary_cents": _cents(df["o_totalprice"])})
             .groupby("o_custkey", as_index=False)
             .agg(last_day=("last_day", "max"), frequency=("frequency", "size"),
                  monetary_cents=("monetary_cents", "sum")))
        return _pa_from_pandas(g.astype({"frequency": "int64"}))

    per_cust = B.grouped_aggregate_auto(
        ds.map_batches(partial, batch_format="pyarrow"), "o_custkey",
        [Max("last_day", alias_name="last_day"),
         Sum("frequency", alias_name="frequency"),
         Sum("monetary_cents", alias_name="monetary_cents")]).materialize()
    gmax = int(per_cust.max("last_day"))

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return _pa_from_pandas(pd.DataFrame(
            {"o_custkey": df["o_custkey"].astype("int64"),
             "recency_days": (gmax - df["last_day"]).astype("int64"),
             "frequency": df["frequency"].astype("int64"),
             "monetary_cents": df["monetary_cents"].astype("int64")}))

    return per_cust.map_batches(finish, batch_format="pyarrow")


def q_exclusive_vocab(sf_dir: str):
    """Per-source count of vocabulary terms that appear in NO other source —
    the complement of q_source_vocab_overlap. Distinct (source, tok) pairs
    co-locate in a token-keyed bucket, where single-source tokens are
    picked and pre-counted; only O(sources) partials shuffle afterwards."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def st_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df.assign(tok=df["text"].str.lower().str.findall(r"[a-z0-9]+"))
                [["source", "tok"]].explode("tok").dropna(subset=["tok"]))
        return toks.drop_duplicates().astype({"tok": str})

    st = ds.map_batches(st_partial, batch_format="pandas")

    def excl_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.drop_duplicates()
        ns = b.groupby("tok")["source"].transform("size")
        solo = b[ns == 1]
        g = (solo.groupby("source", as_index=False).size()
             .rename(columns={"size": "n_exclusive"}))
        return g.astype({"n_exclusive": "int64"})

    part = B.bucketed_map_groups(st, ["tok"], excl_bucket,
                                 auto_parallelism=True)
    # O(sources × partitions) partials — a handful of rows; auto-sized
    # reduce so a fixed partition count can never pad empty blocks
    out = B.grouped_aggregate_auto(
        part, "source",
        [Sum("n_exclusive", alias_name="n_exclusive")]).to_pandas()
    if len(out.columns) == 0:  # Ray to_pandas drops schema on 0-row results
        out = pd.DataFrame({"source": pd.Series([], dtype=object),
                            "n_exclusive": pd.Series([], dtype="int64")})
    return out.sort_values("source").reset_index(drop=True)


def q_region_segment_revenue(sf_dir: str):
    """Order revenue (cents of o_totalprice) by (customer region, market
    segment). The fixed dims (nation/region) broadcast as a closure; the
    scale-growing customer side pre-composes segment+region into ONE
    payload column so a single adaptive join shuffles the orders once."""
    import pyarrow.parquet as pq_

    nation = pq_.read_table(f"{sf_dir}/nation.parquet",
                            columns=["n_nationkey", "n_regionkey"]).to_pandas()
    region = pq_.read_table(f"{sf_dir}/region.parquet",
                            columns=["r_regionkey", "r_name"]).to_pandas()
    region_by_nk = dict(zip(nation["n_nationkey"],
                            nation["n_regionkey"].map(
                                dict(zip(region["r_regionkey"], region["r_name"])))))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_mktsegment"])

    def compose(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"c_custkey": df["c_custkey"].astype("int64"),
             "seg_region": (df["c_mktsegment"].astype(str) + "\x1f"
                            + df["c_nationkey"].map(region_by_nk).astype(str))})

    cust2 = cust.map_batches(compose, batch_format="pandas")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    j = B.attach(orders, "o_custkey", cust2, "c_custkey",
                 "seg_region", "seg_region")

    def partial(df: pd.DataFrame) -> pa.Table:
        parts = df["seg_region"].str.partition("\x1f")
        g = (pd.DataFrame({"mktsegment": parts[0], "region": parts[2],
                           "revenue_cents": _cents(df["o_totalprice"])})
             .groupby(["mktsegment", "region"], as_index=False)["revenue_cents"]
             .sum())
        return _pa_from_pandas(g)

    return B.grouped_aggregate_small(
        j.map_batches(partial, batch_format="pandas"),
        ["mktsegment", "region"],
        [Sum("revenue_cents", alias_name="revenue_cents")],
        key_domain=64)


def q_hourly_peak_per_type(sf_dir: str):
    """Per event type, the hour-of-day with the most events (ties to the
    earlier hour). The (type, hour) histogram is O(types × 24) after
    per-batch partials; the argmax runs over that frame."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (pd.DataFrame({"event_type": df["event_type"].astype(str),
                           "hour": df["ts"].dt.hour.astype("int64")})
             .groupby(["event_type", "hour"], as_index=False).size()
             .rename(columns={"size": "n"}))
        return _pa_from_pandas(g.astype({"n": "int64"}))

    counts = B.grouped_aggregate_small(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "hour"], [Sum("n", alias_name="n")],
        key_domain=256).to_pandas()
    counts = counts.sort_values(["event_type", "n", "hour"],
                                ascending=[True, False, True], kind="stable")
    top = counts.drop_duplicates("event_type").reset_index(drop=True)
    return top.astype({"hour": "int64", "n": "int64"})


# ---------------------------------------------------------------------------
# SQL oracles (DuckDB; views pre-registered by the driver)
# ---------------------------------------------------------------------------

ORACLE_SQL: dict[str, str] = {
    "burst_days": """
        WITH d AS (SELECT CAST(epoch(date_trunc('day', ts)) // 86400 AS BIGINT) AS day,
                          COUNT(*) AS n_events
                   FROM events GROUP BY 1)
        SELECT strftime(make_timestamp(day * 86400 * 1000000), '%Y-%m-%d') AS day,
               n_events
        FROM d
        WHERE n_events * (SELECT COUNT(*) FROM d) >= 2 * (SELECT SUM(n_events) FROM d)
    """,
    "customer_rfm": """
        WITH c AS (SELECT o_custkey,
                          MAX(CAST(epoch(CAST(o_orderdate AS TIMESTAMP)) // 86400
                                   AS BIGINT)) AS last_day,
                          COUNT(*) AS frequency,
                          CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
                               AS BIGINT) AS monetary_cents
                   FROM orders GROUP BY 1)
        SELECT o_custkey,
               CAST((SELECT MAX(last_day) FROM c) - last_day AS BIGINT) AS recency_days,
               frequency, monetary_cents
        FROM c
    """,
    "exclusive_vocab": """
        WITH raw AS (SELECT source,
                            unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
                     FROM documents),
             st AS (SELECT DISTINCT source, tok FROM raw),
             u AS (SELECT tok, MIN(source) AS source
                   FROM st GROUP BY tok HAVING COUNT(*) = 1)
        SELECT source, COUNT(*) AS n_exclusive FROM u GROUP BY 1
    """,
    "region_segment_revenue": """
        SELECT c.c_mktsegment AS mktsegment, r.r_name AS region,
               CAST(SUM(CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT))
                    AS BIGINT) AS revenue_cents
        FROM orders o
        JOIN customer c ON c.c_custkey = o.o_custkey
        JOIN nation n ON n.n_nationkey = c.c_nationkey
        JOIN region r ON r.r_regionkey = n.n_regionkey
        GROUP BY 1, 2
    """,
    "hourly_peak_per_type": """
        WITH h AS (SELECT event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour,
                          COUNT(*) AS n
                   FROM events GROUP BY 1, 2),
             r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY event_type
                                                ORDER BY n DESC, hour ASC) AS rn
                   FROM h)
        SELECT event_type, hour, n FROM r WHERE rn = 1
    """,
    "priority_transitions": """
        WITH o AS (SELECT o_custkey, o_orderpriority,
                          LAG(o_orderpriority) OVER (
                              PARTITION BY o_custkey
                              ORDER BY o_orderdate, o_orderkey) AS prev
                   FROM orders)
        SELECT prev AS prio_from, o_orderpriority AS prio_to, COUNT(*) AS n
        FROM o WHERE prev IS NOT NULL GROUP BY 1, 2
    """,
    "order_gap_stats": """
        WITH o AS (SELECT o_custkey,
                          CAST(epoch(CAST(o_orderdate AS TIMESTAMP)) // 86400
                               AS BIGINT) AS day,
                          o_orderkey FROM orders),
             g AS (SELECT o_custkey,
                          day - LAG(day) OVER (PARTITION BY o_custkey
                                               ORDER BY day, o_orderkey) AS gap
                   FROM o)
        SELECT o_custkey, COUNT(*) AS n_gaps,
               CAST(MIN(gap) AS BIGINT) AS min_gap,
               CAST(MAX(gap) AS BIGINT) AS max_gap
        FROM g WHERE gap IS NOT NULL GROUP BY 1
    """,
    "active_day_streaks": """
        WITH ud AS (SELECT DISTINCT user_id,
                           CAST(epoch(date_trunc('day', ts)) // 86400 AS BIGINT) AS day
                    FROM events),
             r AS (SELECT user_id, day,
                          day - ROW_NUMBER() OVER (PARTITION BY user_id
                                                   ORDER BY day) AS grp
                   FROM ud),
             runs AS (SELECT user_id, COUNT(*) AS len
                      FROM r GROUP BY user_id, grp)
        SELECT user_id, CAST(MAX(len) AS BIGINT) AS max_streak
        FROM runs GROUP BY 1
    """,
    "bigram_top50": """
        WITH w AS (SELECT doc_id,
                          regexp_extract_all(lower(text), '[a-z0-9]+') AS arr
                   FROM documents),
             t AS (SELECT doc_id, unnest(arr) AS tok,
                          generate_subscripts(arr, 1) AS pos FROM w),
             b AS (SELECT doc_id, tok,
                          LEAD(tok) OVER (PARTITION BY doc_id ORDER BY pos) AS nxt
                   FROM t)
        SELECT tok || ' ' || nxt AS bigram, COUNT(*) AS n
        FROM b WHERE nxt IS NOT NULL
        GROUP BY 1 ORDER BY n DESC, bigram ASC LIMIT 50
    """,
    "returns_by_month": """
        WITH m AS (SELECT CAST(EXTRACT(year FROM l_shipdate) * 100
                             + EXTRACT(month FROM l_shipdate) AS BIGINT) AS month,
                          COUNT(*) AS n_items,
                          CAST(SUM(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END)
                               AS BIGINT) AS n_returned
                   FROM lineitem GROUP BY 1)
        SELECT month, n_items, n_returned,
               CAST(n_returned * 10000 // n_items AS BIGINT) AS return_bps
        FROM m
    """,
    "supplier_coverage_hist": """
        WITH d AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem),
             c AS (SELECT l_partkey, COUNT(*) AS n_suppliers FROM d GROUP BY 1)
        SELECT n_suppliers, COUNT(*) AS n_parts FROM c GROUP BY 1
    """,
    "vocab_growth": """
        WITH w AS (SELECT doc_id,
                          unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
                   FROM documents),
             f AS (SELECT tok, MIN(doc_id) AS doc_id FROM w GROUP BY 1),
             h AS (SELECT doc_id, COUNT(*) AS new_terms FROM f GROUP BY 1)
        SELECT doc_id, new_terms,
               CAST(SUM(new_terms) OVER (ORDER BY doc_id) AS BIGINT) AS vocab_size
        FROM h
    """,
    "source_vocab_overlap": """
        WITH raw AS (SELECT source,
                            unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
                     FROM documents),
             st AS (SELECT DISTINCT source, tok FROM raw),
             sz AS (SELECT source, COUNT(*) AS n_vocab FROM st GROUP BY 1),
             inter AS (SELECT a.source AS source_a, b.source AS source_b,
                              COUNT(*) AS n_inter
                       FROM st a JOIN st b ON a.tok = b.tok AND a.source < b.source
                       GROUP BY 1, 2)
        SELECT source_a, source_b, n_inter,
               CAST(sa.n_vocab + sb.n_vocab - n_inter AS BIGINT) AS n_union
        FROM inter JOIN sz sa ON sa.source = inter.source_a
                   JOIN sz sb ON sb.source = inter.source_b
        ORDER BY n_inter DESC, source_a ASC, source_b ASC LIMIT 25
    """,
    "dup_family_sizes": """
        WITH fams AS (SELECT COUNT(*) AS family_size FROM documents GROUP BY md5(text))
        SELECT family_size, COUNT(*) AS n_families FROM fams GROUP BY 1
    """,
    "monthly_order_growth": """
        WITH m AS (SELECT CAST(EXTRACT(year FROM o_orderdate) * 100
                             + EXTRACT(month FROM o_orderdate) AS BIGINT) AS month,
                          COUNT(*) AS n_orders
                   FROM orders GROUP BY 1)
        SELECT month, n_orders,
               CAST(COALESCE(n_orders - LAG(n_orders) OVER (ORDER BY month), 0) AS BIGINT) AS delta
        FROM m
    """,
    "weekday_histogram": """
        SELECT CAST((epoch(date_trunc('day', ts)) // 86400 + 4) % 7 AS BIGINT) AS weekday,
               COUNT(*) AS n_events
        FROM events GROUP BY 1
    """,
    "top_part_by_flag": """
        WITH s AS (SELECT l_returnflag, l_partkey,
                          CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
                   FROM lineitem GROUP BY 1, 2),
             r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY l_returnflag
                                                ORDER BY revenue_cents DESC, l_partkey ASC) AS rn
                   FROM s)
        SELECT l_returnflag, l_partkey, revenue_cents FROM r WHERE rn = 1
    """,
    "cohort_retention": """
        WITH ud AS (SELECT DISTINCT user_id,
                           CAST(epoch(date_trunc('day', ts)) // 86400 AS BIGINT) AS day
                    FROM events),
             f AS (SELECT user_id, MIN(day) AS day0 FROM ud GROUP BY 1)
        SELECT strftime(make_timestamp(f.day0 * 86400 * 1000000), '%Y-%m-%d') AS cohort_day,
               ud.day - f.day0 AS offset_days,
               COUNT(*) AS n_active
        FROM ud JOIN f USING (user_id)
        GROUP BY 1, 2
    """,
    "all_orders_final": """
        SELECT o_custkey, COUNT(*) AS n_orders FROM orders
        GROUP BY o_custkey
        HAVING COUNT(*) = SUM(CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END)
    """,
    "event_paths": """
        WITH o AS (SELECT user_id, event_type,
                          ROW_NUMBER() OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id) AS rn
                   FROM events),
             p AS (SELECT user_id, string_agg(event_type, '>' ORDER BY rn) AS path
                   FROM o WHERE rn <= 3 GROUP BY user_id)
        SELECT path, COUNT(*) AS n_users FROM p GROUP BY 1
    """,
    "char_class_stats": """
        SELECT source,
               CAST(SUM(length(text)) AS BIGINT) AS n_chars,
               CAST(SUM(length(text) - length(regexp_replace(text, '[0-9]', '', 'g'))) AS BIGINT) AS n_digits,
               CAST(SUM(length(text) - length(regexp_replace(text, '[A-Za-z]', '', 'g'))) AS BIGINT) AS n_alpha,
               CAST(SUM(length(text) - length(regexp_replace(text, ' ', '', 'g'))) AS BIGINT) AS n_spaces
        FROM documents GROUP BY source
    """,
"funnel_users": """
        WITH m AS (SELECT user_id, event_type, MIN(ts) AS t0
                   FROM events GROUP BY 1, 2)
        SELECT a.event_type AS type_a, b.event_type AS type_b,
               COUNT(*) AS n_users
        FROM m a JOIN m b ON a.user_id = b.user_id
                         AND a.event_type <> b.event_type
                         AND a.t0 < b.t0
        GROUP BY 1, 2
    """,
    "sliding_distinct_users_3h": """
        WITH e AS (SELECT DISTINCT event_type,
                          CAST(epoch(date_trunc('hour', ts)) // 3600 AS BIGINT) AS hour,
                          user_id
                   FROM events),
             hrs AS (SELECT DISTINCT event_type, hour FROM e)
        SELECT h.event_type,
               strftime(make_timestamp(h.hour * 3600 * 1000000), '%Y-%m-%d %H:00:00') AS hour,
               COUNT(DISTINCT e.user_id) AS n_users_3h
        FROM hrs h JOIN e ON e.event_type = h.event_type
                         AND e.hour BETWEEN h.hour - 2 AND h.hour
        GROUP BY 1, 2
    """,
    "revenue_share_bps": """
        WITH nr AS (
          SELECT n.n_name AS nation,
                 CAST(SUM(CAST(FLOOR(o.o_totalprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
          FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
                        JOIN nation n ON c.c_nationkey = n.n_nationkey
          GROUP BY n.n_name)
        SELECT nation, revenue_cents,
               CAST(revenue_cents * 10000 // (SELECT SUM(revenue_cents) FROM nr) AS BIGINT) AS share_bps
        FROM nr
    """,
    "copurchase_pairs": """
        WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
        SELECT a.l_partkey AS part_a, b.l_partkey AS part_b,
               COUNT(*) AS n_orders
        FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey
                           AND a.l_partkey < b.l_partkey
        GROUP BY 1, 2 HAVING COUNT(*) >= 2
    """,
    "copurchase_degree_hist": """
        WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
             p AS (SELECT a.l_partkey AS pa, b.l_partkey AS pb
                   FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey
                                      AND a.l_partkey < b.l_partkey
                   GROUP BY 1, 2),
             d AS (SELECT part, COUNT(*) AS degree FROM (
                       SELECT pa AS part FROM p
                       UNION ALL SELECT pb AS part FROM p)
                   GROUP BY 1)
        SELECT CAST(degree AS BIGINT) AS degree,
               CAST(COUNT(*) AS BIGINT) AS n_parts
        FROM d GROUP BY 1
    """,
    "pricing_summary": """
        SELECT l_returnflag, l_linestatus,
               CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
               CAST(SUM(CAST(FLOOR(l_extendedprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS base_cents,
               CAST(SUM(CAST(FLOOR(l_extendedprice*(1 - l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents,
               COUNT(*) AS n_rows
        FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
    "latest_order_per_customer": """
        SELECT o_custkey, o_orderkey, strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate
        FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY o_custkey
                         ORDER BY o_orderdate DESC, o_orderkey ASC) AS rn FROM orders)
        WHERE rn = 1
    """,
    "exact_dedup_docs": """
        SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY md5(text)
    """,
    "distinct_flag_status": """
        SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem
    """,
    "filter_docs_regex": """
        SELECT doc_id, source FROM documents
        WHERE regexp_matches(text, 'vector|stream') AND lang = 'en'
    """,
    "nation_revenue": """
        SELECT CAST(SUM(CAST(FLOOR(o.o_totalprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents,
               n.n_name AS nation
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
                      JOIN nation n ON c.c_nationkey = n.n_nationkey
        GROUP BY n.n_name
    """,
    "orders_pivot": """
        SELECT o_orderstatus,
               CAST(SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END) AS BIGINT) AS p1_urgent,
               CAST(SUM(CASE WHEN o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS BIGINT) AS p2_high,
               CAST(SUM(CASE WHEN o_orderpriority = '3-MEDIUM' THEN 1 ELSE 0 END) AS BIGINT) AS p3_medium,
               CAST(SUM(CASE WHEN o_orderpriority = '4-NOT SPECIFIED' THEN 1 ELSE 0 END) AS BIGINT) AS p4_not_specified,
               CAST(SUM(CASE WHEN o_orderpriority = '5-LOW' THEN 1 ELSE 0 END) AS BIGINT) AS p5_low
        FROM orders GROUP BY o_orderstatus
    """,
    "orders_unpivot": """
        WITH s AS (SELECT DISTINCT o_orderstatus FROM orders),
             p(o_orderpriority) AS (VALUES ('1-URGENT'), ('2-HIGH'), ('3-MEDIUM'),
                                           ('4-NOT SPECIFIED'), ('5-LOW')),
             c AS (SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n
                   FROM orders GROUP BY 1, 2)
        SELECT s.o_orderstatus, p.o_orderpriority,
               CAST(COALESCE(c.n, 0) AS BIGINT) AS n
        FROM s CROSS JOIN p
        LEFT JOIN c USING (o_orderstatus, o_orderpriority)
    """,
    "chunk_documents": """
        SELECT d.doc_id,
               CAST(s.g AS BIGINT) AS chunk_id,
               substr(d.text, CAST(s.g*150 + 1 AS BIGINT), 200) AS chunk_text,
               CAST(length(substr(d.text, CAST(s.g*150 + 1 AS BIGINT), 200)) AS BIGINT)
                 AS chunk_len
        FROM documents d
        JOIN generate_series(0, 1023) s(g) ON s.g*150 < length(d.text)
    """,
    "customers_without_orders": """
        SELECT c_custkey FROM customer
        WHERE c_custkey NOT IN
              (SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
    """,
    "events_hourly": """
        SELECT event_type,
               strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00:00') AS hour,
               COUNT(*) AS n_events,
               CAST(SUM(CAST(FLOOR(value*100 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents
        FROM events GROUP BY 1, 2
    """,
    "sessionize": """
        SELECT user_id, COUNT(*) AS n_events, CAST(SUM(new_sess) AS BIGINT) AS n_sessions
        FROM (SELECT user_id,
                     CASE WHEN LAG(ts) OVER w IS NULL
                               OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS new_sess
              FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
        GROUP BY user_id
    """,
    "asof_latest_order": """
        SELECT e.event_id,
               COALESCE((SELECT o.o_orderkey FROM orders o
                         WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
                         ORDER BY o.o_orderdate DESC, o.o_orderkey DESC LIMIT 1),
                        -1) AS o_orderkey
        FROM events e
    """,
    "range_join_order_events": """
        SELECT o.o_orderkey,
               CAST((SELECT COUNT(*) FROM events e
                     WHERE e.user_id = o.o_custkey
                       AND e.ts >= o.o_orderdate
                       AND e.ts < o.o_orderdate + INTERVAL 7 DAY) AS BIGINT)
                 AS n_events
        FROM orders o
    """,
    "events_sliding_3h": """
        WITH h AS (SELECT event_type, date_trunc('hour', ts) AS hh,
                          COUNT(*) AS n
                   FROM events GROUP BY 1, 2)
        SELECT event_type, strftime(hh, '%Y-%m-%d %H:00:00') AS hour,
               CAST(SUM(n) OVER (PARTITION BY event_type ORDER BY hh
                                 RANGE BETWEEN INTERVAL 2 HOUR PRECEDING
                                           AND CURRENT ROW) AS BIGINT) AS n3h
        FROM h
    """,
    "token_stats": """
        SELECT doc_id,
               CASE WHEN trim(text) = '' THEN 0
                    ELSE len(string_split_regex(trim(text), '\\s+')) END AS n_tokens,
               length(text) AS n_chars
        FROM documents
    """,
    "quality_features": """
        SELECT doc_id,
               length(text) AS n_chars,
               length(text) - length(regexp_replace(text, '[A-Za-z]', '', 'g')) AS n_alpha,
               length(text) - length(regexp_replace(text, '[0-9]', '', 'g')) AS n_digit,
               length(text) - length(regexp_replace(text, '[.,;:!?]', '', 'g')) AS n_punct,
               length(text) - length(replace(text, ' ', '')) AS n_space,
               CASE WHEN trim(text) = '' THEN 0
                    ELSE len(string_split_regex(trim(text), '\\s+')) END AS n_tokens
        FROM documents
    """,
    "lang_id": """
        SELECT doc_id,
               CASE WHEN (length(text) - length(regexp_replace(text, '[一-鿿]', '', 'g'))) * 5
                         > GREATEST(length(text), 1) THEN 'zh'
                    WHEN (length(text) - length(regexp_replace(text, '[Ѐ-ӿ]', '', 'g'))) * 5
                         > GREATEST(length(text), 1) THEN 'ru'
                    WHEN (length(text) - length(regexp_replace(text, '[A-Za-z]', '', 'g'))) * 5
                         > GREATEST(length(text), 1) * 2 THEN 'en'
                    ELSE 'unknown' END AS pred_lang
        FROM documents
    """,
    "customer_order_counts": """
        SELECT c.c_custkey, CAST(COUNT(o.o_custkey) AS BIGINT) AS n_orders
        FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
        GROUP BY c.c_custkey
    """,
    "fingerprint_md5": """
        SELECT doc_id, md5(text) AS fp FROM documents
    """,
    "ngram_jaccard_pairs": """
        WITH words AS (
            SELECT doc_id,
                   unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok,
                   generate_subscripts(regexp_extract_all(lower(text), '[a-z0-9]+'), 1) AS ord
            FROM documents
        ),
        sh AS (
            SELECT DISTINCT w1.doc_id, w1.tok || ' ' || w2.tok || ' ' || w3.tok AS shingle
            FROM words w1
            JOIN words w2 ON w2.doc_id = w1.doc_id AND w2.ord = w1.ord + 1
            JOIN words w3 ON w3.doc_id = w1.doc_id AND w3.ord = w1.ord + 2
        ),
        keep AS (SELECT shingle FROM sh GROUP BY shingle HAVING COUNT(*) <= 100),
        shk AS (SELECT sh.doc_id, sh.shingle FROM sh JOIN keep USING (shingle)),
        sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
            FROM shk a JOIN shk b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
            GROUP BY 1, 2
        )
        SELECT doc_a, doc_b
        FROM inter
        JOIN sizes sa ON sa.doc_id = inter.doc_a
        JOIN sizes sb ON sb.doc_id = inter.doc_b
        WHERE i >= 0.8 * (sa.n + sb.n - i)
    """,
    "top_orders": """
        SELECT o_orderkey, CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) AS total_cents
        FROM orders ORDER BY total_cents DESC, o_orderkey ASC LIMIT 100
    """,
    "union_custkeys": """
        SELECT DISTINCT k FROM (SELECT o_custkey AS k FROM orders
                                UNION ALL SELECT c_custkey AS k FROM customer)
    """,
    "source_histogram_salted": """
        SELECT source, COUNT(*) AS n FROM documents GROUP BY source
    """,
    "embedding_topk_pairs": """
        SELECT vec_a, vec_b FROM (
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   list_cosine_similarity(a.embedding, b.embedding) AS s
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id)
        ORDER BY s DESC, vec_a, vec_b LIMIT 20
    """,
    "ann_topk": """
        SELECT vec_id FROM (
            SELECT e.vec_id,
                   list_cosine_similarity(e.embedding, q.embedding) AS s
            FROM embeddings e, (SELECT embedding FROM embeddings WHERE vec_id = 0) q
            WHERE e.vec_id != 0)
        ORDER BY s DESC LIMIT 10
    """,
    "ann_multi_topk": """
        SELECT query_id, vec_id FROM (
            SELECT q.vec_id AS query_id, e.vec_id,
                   ROW_NUMBER() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(e.embedding, q.embedding)
                                DESC, e.vec_id ASC) AS rk
            FROM embeddings e
            JOIN (SELECT vec_id, embedding FROM embeddings WHERE vec_id < 8) q
              ON e.vec_id != q.vec_id)
        WHERE rk <= 10
    """,
    "snapshot_dedup": """
        SELECT doc_id FROM documents
        WHERE doc_id >= 250
          AND md5(left(text, 40)) NOT IN (SELECT md5(left(text, 40))
                                          FROM documents WHERE doc_id < 250)
    """,
    "export_pipeline": r"""
        WITH f AS (
          SELECT doc_id, source, text,
                 length(text) AS n_chars,
                 length(text) - length(regexp_replace(text, '[A-Za-z]', '', 'g')) AS n_alpha,
                 CASE WHEN trim(text) = '' THEN 0
                      ELSE len(string_split_regex(trim(text), '\s+')) END AS n_tokens
          FROM documents),
        gated AS (
          SELECT * FROM f
          WHERE source <> 'src0'
            AND n_alpha * 5 > GREATEST(n_chars, 1) * 2
            AND n_tokens >= 30 AND 2 * n_alpha >= n_chars),
        deduped AS (
          SELECT doc_id, n_tokens FROM (
            SELECT doc_id, n_tokens,
                   ROW_NUMBER() OVER (PARTITION BY md5(text) ORDER BY doc_id) AS rn
            FROM gated) WHERE rn = 1),
        toks AS (SELECT doc_id, source, string_split(text, ' ') AS l FROM documents),
        grams AS (
          SELECT doc_id, source, array_to_string(l[i:i+7], ' ') AS g
          FROM toks, (SELECT unnest(range(1, 700)) AS i) s
          WHERE i + 7 <= len(l)),
        bench AS (SELECT DISTINCT g FROM grams WHERE source = 'src0'),
        contaminated AS (
          SELECT DISTINCT grams.doc_id FROM grams JOIN bench ON grams.g = bench.g
          WHERE grams.source <> 'src0'),
        final AS (
          SELECT * FROM deduped
          WHERE doc_id NOT IN (SELECT doc_id FROM contaminated))
        SELECT CAST((doc_id * 2654435761) % 4294967296 % 8 AS BIGINT) AS shard,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_tokens) AS BIGINT) AS total_tokens
        FROM final GROUP BY shard
    """,
    "group_centroids": """
        WITH e AS (
            SELECT vec_id % 16 AS grp,
                   generate_subscripts(embedding, 1) AS dim,
                   unnest(embedding) AS v
            FROM embeddings)
        SELECT grp, dim - 1 AS dim,
               CAST(COUNT(*) AS BIGINT) AS n_vecs,
               CAST(SUM(CAST(FLOOR(CAST(v AS DOUBLE)*1000000 + 0.5) AS BIGINT)) AS BIGINT) AS sum_q
        FROM e GROUP BY grp, dim
    """,
    "redact_docs": r"""
        SELECT doc_id,
               regexp_replace(text, '\b(customer|spark)\b', '<ENT>', 'g') AS clean_text,
               CAST(len(regexp_extract_all(text, '\b(customer|spark)\b')) AS BIGINT) AS n_redacted
        FROM documents
    """,
    "decontaminate_docs": """
        WITH toks AS (SELECT doc_id, source, string_split(text, ' ') AS l
                      FROM documents),
        grams AS (
            SELECT doc_id, source, array_to_string(l[i:i+7], ' ') AS g
            FROM toks, (SELECT unnest(range(1, 700)) AS i) s
            WHERE i + 7 <= len(l)
        ),
        bench AS (SELECT DISTINCT g FROM grams WHERE source = 'src0')
        SELECT g.doc_id, CAST(COUNT(DISTINCT g.g) AS BIGINT) AS n_shared
        FROM grams g JOIN bench b ON g.g = b.g
        WHERE g.source <> 'src0'
        GROUP BY g.doc_id
    """,
    "shuffle_shards": """
        WITH h AS (SELECT doc_id, (doc_id * 2654435761) % 4294967296 AS hh
                   FROM documents)
        SELECT doc_id, CAST(hh % 8 AS BIGINT) AS shard,
               CAST(ROW_NUMBER() OVER (PARTITION BY hh % 8
                                       ORDER BY hh, doc_id) AS BIGINT) AS rk
        FROM h
    """,
}
