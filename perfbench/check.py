"""Output check for the crawl benchmark.

A crawl's outputs are its long and wide frames. Both are reduced to:

- a digest of each whole frame in canonical row order (column names,
  dtypes and every cell, through ``pandas.util.hash_pandas_object``);
- one 8-hex fingerprint per frontier URL: a hash of the URL together with
  its long rows and wide row, in canonical order.

Fixtures with a recorded reference (``reference.json``) are checked against
it: the frame digests must match, and, where the reference keeps per-URL
fingerprints, a URL fails when its fingerprint is missing or differs. For
other fixture seeds, seed-independent invariants are checked instead, per
URL.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pandas as pd

URL = "PDF链接"
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def _canonical(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _row_hashes(df: pd.DataFrame) -> np.ndarray:
    return pd.util.hash_pandas_object(df, index=False).to_numpy(np.uint64)


def frame_digest(df: pd.DataFrame) -> str:
    h = hashlib.sha256()
    h.update(json.dumps([[str(c), str(t)] for c, t in df.dtypes.items()],
                        ensure_ascii=False).encode())
    if len(df):
        h.update(_row_hashes(_canonical(df)).tobytes())
    return h.hexdigest()[:32]


def url_fingerprints(long_df: pd.DataFrame, wide_df: pd.DataFrame) -> list[str]:
    """Sorted 8-hex fingerprints, one per URL, of the URL with its long rows
    and wide row."""
    parts: dict[str, list[np.ndarray]] = {}
    for tag, df in ((1, long_df), (2, wide_df)):
        if not len(df):
            continue
        df = _canonical(df)
        hashes = _row_hashes(df)
        for url, idx in df.groupby(URL, sort=False).indices.items():
            parts.setdefault(url, []).append(
                np.concatenate([[np.uint64(tag)], hashes[idx]]))
    return sorted(
        hashlib.sha1(str(url).encode() + np.concatenate(p).tobytes()).hexdigest()[:8]
        for url, p in parts.items())


def summarize(long_df: pd.DataFrame, wide_df: pd.DataFrame) -> dict:
    """Everything the check needs from one crawl's outputs (JSON-ready)."""
    fps = url_fingerprints(long_df, wide_df)
    return {
        "long_rows": int(len(long_df)),
        "wide_rows": int(len(wide_df)),
        "long_digest": frame_digest(long_df),
        "wide_digest": frame_digest(wide_df),
        "urls": len(fps),
        "url_fingerprints": fps,
        "bad_urls": sorted(invariant_failures(long_df, wide_df)),
    }


def invariant_failures(long_df: pd.DataFrame, wide_df: pd.DataFrame) -> set[str]:
    """URLs whose rows break a seed-independent invariant of the crawl:

    - every long row and wide row names a URL;
    - a URL has at most one wide row, and no duplicate long rows;
    - every wide row's URL also has long rows;
    - a wide row agrees with its URL's long rows on the document keys.
    """
    bad: set[str] = set()
    if URL not in long_df.columns or URL not in wide_df.columns:
        return {"<missing url column>"}
    for df in (long_df, wide_df):
        if df[URL].isna().any():
            bad.add("<null url>")
    wide_counts = wide_df[URL].value_counts()
    bad.update(wide_counts[wide_counts > 1].index)
    bad.update(long_df.loc[long_df.duplicated(keep=False), URL])
    bad.update(set(wide_df[URL]) - set(long_df[URL]))
    keys = [c for c in ("证券代码", "公司名称", "报告名称", "报告日期")
            if c in long_df.columns and c in wide_df.columns]
    if keys:
        doc = long_df[[URL] + keys].drop_duplicates()
        multi = doc[URL].value_counts()
        bad.update(multi[multi > 1].index)
        merged = wide_df[[URL] + keys].merge(doc, on=URL, how="left",
                                             suffixes=("", "_long"))
        for k in keys:
            differ = merged[k].astype(str) != merged[k + "_long"].astype(str)
            bad.update(merged.loc[differ, URL])
    return {str(u) for u in bad}


def load_reference(path: str = REFERENCE_PATH) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def reference_key(fixture: str, n_images: int, seed: int) -> str:
    return f"{fixture}/n{n_images}/seed{seed}"


def check(summary: dict, ref: dict | None) -> dict:
    """→ ``{"attempted", "failed", "correct", "mode"}`` for one crawl.

    With a reference, ``attempted`` is the reference's URL count and the
    frame digests must match. Where the reference has per-URL fingerprints,
    a URL fails when its fingerprint is missing or differs; a URL the
    reference lacks also fails. A wrong URL leaves one reference
    fingerprint unmatched and one crawl fingerprint unexpected, so the
    failed count is the larger of the two differences. Where it has only
    digests, a mismatch fails at least one URL, and as many as break an
    invariant or are missing. Without a reference, ``attempted`` is the
    crawl's own URL count and a URL fails when it breaks an invariant."""
    fps = summary["url_fingerprints"]
    if ref is not None:
        same = (summary["long_digest"] == ref["long_digest"]
                and summary["wide_digest"] == ref["wide_digest"])
        attempted = ref["urls"]
        if "url_fingerprints" in ref:
            want, got = set(ref["url_fingerprints"].split()), set(fps)
            n_failed = max(len(want - got), len(got - want))
        else:
            n_failed = max(len(summary["bad_urls"]), attempted - len(fps))
        if not same:
            n_failed = max(n_failed, 1)
        n_failed = min(n_failed, attempted)
        return {"attempted": attempted, "failed": n_failed,
                "correct": same and n_failed == 0, "mode": "reference"}
    attempted = max(len(fps), 1)
    n_failed = min(len(summary["bad_urls"]), attempted)
    return {"attempted": attempted, "failed": n_failed,
            "correct": n_failed == 0 and len(fps) > 0, "mode": "invariants"}
