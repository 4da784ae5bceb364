"""URL canonicalization and hashing.

The reference builds URLs by blind prefix-concat (cninfo_report_crawler.py:69)
and dedups on a raw 4-tuple (:294-306). The target keys everything on
SHA1(canonical URL) per the north rule: frontier/seen/checkpoint state is
partitioned by url-sha1 hash range (``state/seen.shard_of``) so it spreads
uniformly even when hosts are skewed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd


def canonicalize(urls: pd.Series) -> pd.Series:
    """Lowercase scheme+host, strip default ports, drop fragments, collapse
    duplicate slashes in the path. Vectorized pandas string ops."""
    s = urls.astype("string").str.strip()
    s = s.str.replace(r"#.*$", "", regex=True)
    # split scheme://rest
    scheme = s.str.extract(r"^([A-Za-z][A-Za-z0-9+.-]*)://", expand=False).str.lower().fillna("https")
    rest = s.str.replace(r"^[A-Za-z][A-Za-z0-9+.-]*://", "", regex=True)
    host = rest.str.extract(r"^([^/]*)", expand=False).str.lower()
    host = host.str.replace(r":(?:80|443)$", "", regex=True)
    path = rest.str.replace(r"^[^/]*", "", regex=True).str.replace(r"//+", "/", regex=True)
    path = path.mask(path == "", "/")
    return scheme + "://" + host + path


def host_of(urls: pd.Series) -> pd.Series:
    return (
        urls.astype("string")
        .str.replace(r"^[A-Za-z][A-Za-z0-9+.-]*://", "", regex=True)
        .str.extract(r"^([^/]*)", expand=False)
        .str.lower()
        .str.replace(r":\d+$", "", regex=True)
    )


def sha1_hex(values) -> np.ndarray:
    """SHA1 hex digests for an iterable of strings. hashlib per element —
    ~1 M/s, run inside map_batches so it scales with tasks."""
    return np.array([hashlib.sha1(str(v).encode("utf-8")).hexdigest() for v in values], dtype=object)
