"""Declared Arrow schemas + crawl-domain constants (SURVEY.md §1.2).

The reference keeps its data model implicit (Python dicts / all-string pandas
frames, cninfo_report_crawler.py:136-141, report_info_collection.py:287-296).
Here every logical table has a declared ``pyarrow.Schema`` and every constant
table of the reference is an explicit module-level value.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------------------
# Domain constants (reference: cninfo_report_crawler.py / report_info_collection.py)
# ---------------------------------------------------------------------------

#: Exchange traversal order — cninfo_report_crawler.py:434-440. Position in
#: this list is the ``exchange_rank`` component of the canonical order key.
EXCHANGES: list[str] = ["sse", "szse", "bj", "neeq", "star"]
EXCHANGE_RANK: dict[str, int] = {e: i for i, e in enumerate(EXCHANGES)}

#: Report-type → listing category — cninfo_report_crawler.py:24-29.
REPORT_TYPE_MAP: dict[str, dict[str, str]] = {
    "yjdbg": {"category": "category_yjdbg_szsh", "label": "一季度"},
    "bndbg": {"category": "category_bndbg_szsh", "label": "半年报"},
    "sjdbg": {"category": "category_sjdbg_szsh", "label": "三季度"},
    "ndbg": {"category": "category_ndbg_szsh", "label": "年报"},
}

#: Extraction constants — report_info_collection.py:34-39.
TARGET_KEYWORD = "其中：数据资源"
PARENT_CATEGORIES: list[str] = ["存货", "无形资产", "开发支出"]
SPECIAL_UNIT_MULTIPLIERS: dict[str, tuple[Decimal, str]] = {
    "600941.SH": (Decimal("1000000"), "百万"),
    "601727.SH": (Decimal("1000"), "千"),
}

#: Sentinel strings coerced to "0" at the sinks — report_info_collection.py:534,
#: :680; plus the numeric-coercion set at :456.
SENTINELS: list[str] = ["N/A", "空值", "-", "nan", "None", ""]

#: Title-exclusion substrings — cninfo_report_crawler.py:124-126, :519.
EXCLUDE_TITLE_RE = "摘要|英文版"

#: Long/wide output column names (reference schema is authoritative over the
#: README's drifted docs — SURVEY.md §0.1.4).
LONG_COLUMNS = ["证券代码", "公司名称", "报告名称", "报告日期", "项目名称", "金额", "PDF链接", "_has_data_resource"]
WIDE_COLUMNS = ["证券代码", "公司名称", "报告名称", "报告日期", "存货", "无形资产", "开发支出", "是否包含数据资产", "PDF链接"]
FRONTIER_CSV_COLUMNS = ["股票代码", "公司名称", "财报名称", "报告日期", "PDF链接"]

# ---------------------------------------------------------------------------
# Arrow schemas (SURVEY.md §1.2)
# ---------------------------------------------------------------------------

#: Authoritative input per BASELINE.json input_hint.
CORPUS_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.large_binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)

#: Listing fixture — mirrors the cninfo JSON announcement records
#: (cninfo_report_crawler.py:69-74, :296-302) plus stream coordinates.
ANNOUNCEMENTS_SCHEMA = pa.schema(
    [
        ("secCode", pa.string()),
        ("secName", pa.string()),
        ("announcementTitle", pa.string()),
        ("announcementTime", pa.string()),  # epoch-ms digits | "YYYY-MM-DD HH:MM" | ""
        ("adjunctUrl", pa.string()),
        ("exchange", pa.string()),
        ("date", pa.date32()),
        ("category", pa.string()),
        ("page_num", pa.int32()),
        ("index_in_page", pa.int32()),
    ]
)

#: One row per (exchange, date, category) listing stream.
SEEDS_SCHEMA = pa.schema(
    [
        ("seed_url", pa.string()),
        ("host", pa.string()),
        ("rank", pa.int32()),
        ("exchange", pa.string()),
        ("date", pa.date32()),
        ("category", pa.string()),
        ("page_budget", pa.int32()),
    ]
)

#: Frontier rows (stage-1 output) — typed superset of the reference's
#: 5-column CSV (cninfo_report_crawler.py:535).
FRONTIER_SCHEMA = pa.schema(
    [
        ("股票代码", pa.string()),
        ("公司名称", pa.string()),
        ("财报名称", pa.string()),
        ("报告日期", pa.string()),
        ("PDF链接", pa.string()),
        ("url_sha1", pa.string()),  # hex; fixed 40 chars
        ("host", pa.string()),
        ("priority", pa.float64()),
        ("order_key", pa.int64()),
    ]
)

# ---------------------------------------------------------------------------
# Canonical order key (SURVEY.md §3.4)
# ---------------------------------------------------------------------------
# order_key packs (exchange_rank, date, api_rank, category_rank, page_num,
# index_in_page) into one int64 so sorts/argmins stay vectorized:
#   [ exch:3 | days:17 | api:2 | cat:2 | page:10 | idx:6 ]  (40 bits)

_DAYS_BITS, _API_BITS, _CAT_BITS, _PAGE_BITS, _IDX_BITS = 17, 2, 2, 10, 6


def encode_order_key(
    exchange_rank,
    days_since_epoch,
    page_num,
    index_in_page,
    api_rank=0,
    category_rank=0,
):
    """Vectorized canonical-order encoder; accepts ints or numpy arrays.

    The tuple order is the reference's deterministic traversal order
    (exchange list order → date asc → api → category → page asc → index in
    page; cninfo_report_crawler.py:450-469, :185-192, :295).
    """
    exch = np.asarray(exchange_rank, dtype=np.int64)
    days = np.asarray(days_since_epoch, dtype=np.int64)
    api = np.asarray(api_rank, dtype=np.int64)
    cat = np.asarray(category_rank, dtype=np.int64)
    page = np.asarray(page_num, dtype=np.int64)
    idx = np.asarray(index_in_page, dtype=np.int64)
    key = exch
    key = (key << _DAYS_BITS) | days
    key = (key << _API_BITS) | api
    key = (key << _CAT_BITS) | cat
    key = (key << _PAGE_BITS) | page
    key = (key << _IDX_BITS) | idx
    return key if key.ndim else int(key)


def decode_order_key(key: int) -> dict[str, int]:
    """Inverse of :func:`encode_order_key` (debugging / tests)."""
    out = {}
    for name, bits in (
        ("index_in_page", _IDX_BITS),
        ("page_num", _PAGE_BITS),
        ("category_rank", _CAT_BITS),
        ("api_rank", _API_BITS),
        ("days_since_epoch", _DAYS_BITS),
    ):
        out[name] = key & ((1 << bits) - 1)
        key >>= bits
    out["exchange_rank"] = key
    return out
