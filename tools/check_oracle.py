"""Local emulation of the driver's correctness gate.

Runs every queries() entry that has an oracle_sql() entry at the given
sf_dir, runs the SQL in DuckDB over the same parquet tables, then compares
rows / schema / value-hash the way the driver does: sort columns by name,
sort rows by every column, hash canonicalized values (dtype-sensitive —
int64 vs int128/HUGEINT must mismatch, mirroring round-1 behavior).

Usage: PYTHONPATH=. python tools/check_oracle.py [sf_dir] [only,names]
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import duckdb
import numpy as np
import pandas as pd

import ray

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def canon(df: pd.DataFrame) -> tuple[pd.DataFrame, str]:
    df = df[sorted(df.columns)].copy()
    # canonical row order: sort by all columns (stringified for mixed types)
    key = df.astype(str)
    df = df.loc[key.sort_values(list(df.columns), kind="stable").index].reset_index(drop=True)
    h = hashlib.md5()
    for c in df.columns:
        col = df[c]
        h.update(str(col.dtype).encode())
        h.update("\x00".join(map(str, col.tolist())).encode())
    return df, h.hexdigest()


def load_entry():
    """The driver-contract module ``__ray_entry__.py`` at the repo root."""
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "__ray_entry__.py")
    spec = importlib.util.spec_from_file_location("__ray_entry__", path)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def to_df(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2].split(",")) if len(sys.argv) > 2 else None

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False,
                 ignore_reinit_error=True, log_to_driver=False)

    m = load_entry()
    qs, oracles = m.queries(), m.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    results: dict[str, dict] = {}
    names = [n for n in qs if n in oracles and (only is None or n in only)]
    for name in names:
        try:
            mine = to_df(qs[name](sf_dir))
            orc = con.execute(oracles[name]).df()
            md, mh = canon(mine)
            od, oh = canon(orc)
            rows = len(md) == len(od)
            schema = list(md.columns) == list(od.columns)
            results[name] = {"rows_match": rows, "schema_match": schema,
                             "hash_match": mh == oh,
                             "mine": len(md), "oracle": len(od)}
            if mh != oh and rows and schema:
                # first diagnostic: dtype diff then value diff
                dt = {c: (str(md[c].dtype), str(od[c].dtype))
                      for c in md.columns if str(md[c].dtype) != str(od[c].dtype)}
                results[name]["dtype_diff"] = dt
                if not dt:
                    neq = [c for c in md.columns
                           if not md[c].astype(str).equals(od[c].astype(str))]
                    results[name]["value_diff_cols"] = neq
        except Exception as e:  # noqa: BLE001
            results[name] = {"err": f"{type(e).__name__}: {e}"}
        status = results[name]
        flag = "OK " if status.get("hash_match") else "FAIL"
        print(f"{flag} {name}: {json.dumps(status)}", flush=True)

    bad = [n for n, r in results.items() if not r.get("hash_match")]
    print(f"\n{len(results) - len(bad)}/{len(results)} green; failing: {bad}")
    ray.shutdown()


if __name__ == "__main__":
    main()
