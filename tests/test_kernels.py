"""Kernel conformance: engine's vectorized kernels vs the per-row oracle
(tests/oracle_impl.py) on the FIXTURES.md adversarial cases, plus
property-based sweeps (SURVEY.md §5.1, §5.3)."""

from datetime import date

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_impl as O
from cninfo_crawler_ray.functions import kernels as K
from cninfo_crawler_ray.functions import tables as T
from cninfo_crawler_ray.functions import urls as U
from cninfo_crawler_ray.schemas import decode_order_key, encode_order_key

TIMES = ["1746868200000", "2025-05-30 09:31", "", "1700000000123", "2024-01-02 00:00:00 extra"]
CODES = ["600941", "1", "000001", "30xyz?", "688001", "839000", "870001", "920001", "430001",
         "ABC12", "", "未知代码", "123", "510050", "60", "0"]
TITLES = ["2024年年度报告", "2024年年度报告摘要", "2024年年度报告（英文版）", "关于公司治理的公告",
          "2027年年度报告", "第1期公告", "纯中文无数字标题", "2024与2025年合并报告"]
CELLS = ["1,234,567.89", "12,345.678", "-5.00", "0.00", "987", "3.14159", "12,345.67",
         "约 2,000 万元", "N/A", "", None, "8,8,8", "42.5", "abc", "0", "00.00", "1,23",
         "999,999,999,999.99", "  77.1  ", "第3页：1.00元"]


def test_decode_time_matches_oracle():
    got = K.decode_announcement_time(pa.array(TIMES)).to_pylist()
    want = [O.o_decode_time(t) for t in TIMES]
    assert got == want


def test_normalize_code_matches_oracle():
    got = K.normalize_sec_code(pa.array(CODES)).to_pylist()
    want = [O.o_normalize_code(c) for c in CODES]
    assert got == want


@given(st.text(alphabet="0123456789ABCxyz未知代码", max_size=10))
@settings(max_examples=200, deadline=None)
def test_normalize_code_property(code):
    got = K.normalize_sec_code(pa.array([code])).to_pylist()[0]
    assert got == O.o_normalize_code(code)


def test_target_years_month_end_clamp():
    # 2025-05-31 −3 months would be Feb 31 → reference crashes (SURVEY §0.1.2)
    assert K.subtract_3_months_clamped(date(2025, 5, 31)) == date(2025, 2, 28)
    assert K.subtract_3_months_clamped(date(2024, 5, 31)) == date(2024, 2, 29)
    assert K.subtract_3_months_clamped(date(2025, 1, 15)) == date(2024, 10, 15)
    assert K.target_years(date(2025, 1, 1), date(2025, 5, 31)) == [2024, 2025]
    assert K.target_years(date(2025, 6, 1), date(2025, 12, 31)) == [2025]


def test_title_filter_matches_oracle():
    years = [2024, 2025]
    got = K.title_keep_mask(pa.array(TITLES), years).to_pylist()
    want = [O.o_title_keep(t, years) for t in TITLES]
    assert got == want


def test_normalize_text():
    cases = ["a b\nc", "其 中：数据\n资源", "x:y", None, "  ", "全角　空格"]
    got = K.normalize_text_col(pa.array(["" if c is None else c for c in cases])).to_pylist()
    want = [O.o_norm_text(c) for c in cases]
    assert got == want
    for c in cases:
        assert K.normalize_text_one(c) == O.o_norm_text(c)


def test_extract_number_cascade_matches_oracle():
    got = K.extract_number_col(pd.Series(CELLS, dtype=object))
    for i, cell in enumerate(CELLS):
        v, has, pos = O.o_extract_number(cell)
        gv = got["value"].iloc[i]
        assert (gv if pd.notna(gv) else None) == v, cell
        assert bool(got["has_num"].iloc[i]) == has, cell
        assert bool(got["positive"].iloc[i]) == pos, cell
    # pinned quirks (SURVEY.md §0.1.3)
    assert O.o_extract_number("12,345.678")[0] == "12,345.67"
    assert O.o_extract_number("-5.00") == ("5.00", True, True)
    assert O.o_extract_number("0.00") == ("0.00", True, False)


@given(st.text(alphabet="0123456789,.-元约 abc", max_size=24))
@settings(max_examples=300, deadline=None)
def test_extract_number_property(text):
    v, has, pos = O.o_extract_number(text)
    got = K.extract_number_col(pd.Series([text], dtype=object))
    gv = got["value"].iloc[0]
    assert (gv if pd.notna(gv) else None) == v
    assert bool(got["has_num"].iloc[0]) == has
    assert bool(got["positive"].iloc[0]) == pos


def test_adjust_amount_special():
    codes = pd.Series(["600941.SH", "601727.SH", "000001.SZ", "600941.SH", "600941.SH", "601727.sh"])
    amts = pd.Series(["1.50", "2,000", "9.99", "N/A", "", "3"])
    got = K.adjust_amount_special(codes, amts)
    want = [O.o_adjust(c, a) for c, a in zip(codes, amts)]
    assert list(got) == want
    assert got[0] == "1,500,000"  # 1.50 × 1e6, trailing zeros stripped
    assert got[1] == "2,000,000"
    assert got[3] == "N/A"  # sentinel passthrough


def test_numeric_value_and_sentinels():
    vals = pd.Series(["1,234.5", "N/A", "空值", "-", "nan", "None", "", "0", "abc", " 7 ", None])
    got = K.numeric_value_col(vals)
    want = [O.o_numeric(v) for v in vals]
    assert list(got) == want
    s = K.sentinel_to_zero(pa.array(vals.tolist())).to_pylist()
    assert s == ["1,234.5", "0", "0", "0", "0", "0", "0", "0", "abc", " 7 ", "0"]


def test_table_extraction_matches_oracle():
    from cninfo_crawler_ray.sources.corpus import synth_pages

    for i in range(300):
        pages = synth_pages(f"img_{i:08d}", f"cap {i}")
        items, flag = T.extract_items_from_pages(pages)
        o_items, o_flag = O.o_extract_items(pages)
        assert [(x["category"], x["value"], x["page"]) for x in items] == [
            (x["category"], x["value"], x["page"]) for x in o_items
        ]
        assert flag == o_flag
    # explicit F5 cases
    cases = [
        # keyword cell itself holds the number (R:179)
        ([{"text": "", "tables": [[["存货", ""], ["其中：数据资源 1,000.00", None]]]}],
         [{"category": "存货", "value": "1,000.00", "method": "table", "page": 1}], True),
        # blank row between category and hit
        ([{"text": "", "tables": [[["无形资产", "5"], [None, None], ["其中:数据资源", "2.50"]]]}],
         [{"category": "无形资产", "value": "2.50", "method": "table", "page": 1}], True),
        # foreign row above → stop rule → no item, flag still set
        ([{"text": "", "tables": [[["其他", "5"], ["其中：数据资源", "2.50"]]]}], [], True),
        # 0.00 is not positive → skipped → no item
        ([{"text": "无关", "tables": [[["存货", ""], ["其中：数据资源", "0.00"]]]}], [], True),
        # keyword only in page text → flag without items
        ([{"text": "本页提及数据资源", "tables": []}], [], True),
        ([{"text": "毫无关键词", "tables": []}], [], False),
    ]
    for pages, want_items, want_flag in cases:
        items, flag = T.extract_items_from_pages(pages)
        assert items == want_items
        assert flag == want_flag


def test_order_key_roundtrip_and_order():
    ok1 = encode_order_key(0, 20000, 1, 0)
    ok2 = encode_order_key(0, 20000, 1, 1)
    ok3 = encode_order_key(0, 20000, 2, 0)
    ok4 = encode_order_key(0, 20001, 1, 0)
    ok5 = encode_order_key(1, 19999, 1, 0)
    assert ok1 < ok2 < ok3 < ok4 < ok5
    d = decode_order_key(ok3)
    assert d == {"exchange_rank": 0, "days_since_epoch": 20000, "api_rank": 0,
                 "category_rank": 0, "page_num": 2, "index_in_page": 0}
    arr = encode_order_key(np.array([0, 1]), np.array([10, 10]), np.array([1, 1]), np.array([0, 0]))
    assert list(arr) == [encode_order_key(0, 10, 1, 0), encode_order_key(1, 10, 1, 0)]


def test_url_canonicalize_and_partition():
    urls = pd.Series([
        "HTTPS://Img0.Example.Test/a.raw#frag",
        "https://img0.example.test:443//a//b.ppm",
        "img1.example.test/x.qlossy",
    ])
    got = U.canonicalize(urls)
    assert got[0] == "https://img0.example.test/a.raw"
    assert got[1] == "https://img0.example.test/a/b.ppm"
    assert got[2] == "https://img1.example.test/x.qlossy"
    assert list(U.host_of(urls)) == ["img0.example.test", "img0.example.test", "img1.example.test"]
    sha = U.sha1_hex(got)
    import hashlib

    assert sha[0] == hashlib.sha1(got[0].encode()).hexdigest()
    from cninfo_crawler_ray.state.seen import shard_of

    parts = shard_of(bytes.fromhex("".join(sha)), 16)
    assert parts.min() >= 0 and parts.max() < 16
    # partitioning is uniform-ish over many urls
    many = shard_of(bytes.fromhex("".join(
        U.sha1_hex([f"https://h/{i}" for i in range(2000)]))), 16)
    counts = np.bincount(many, minlength=16)
    assert counts.min() > 60
