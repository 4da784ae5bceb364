"""Stage-2 E2E conformance: fetch→decode→extract→long/wide vs the oracle,
plus the per-row invariant (PSNR ≥ 40 dB lossy / exact lossless + exact
caption equality) and the payload sink's skip-if-exists resume. Checkpointed
resume is the scheduler's (tests/test_scheduler.py)."""

import inspect
import json

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

import oracle_impl as O
from cninfo_crawler_ray.config import CrawlConfig
from cninfo_crawler_ray.functions import codecs
from cninfo_crawler_ray.pipelines import stage1, stage2
from cninfo_crawler_ray.sources import corpus as C

N = 800


@pytest.fixture(scope="module")
def fixture_dir(ray_session):
    return C.ensure_fixtures(N, n_days=3, use_ray=False)


@pytest.fixture(scope="module")
def corpus_df(fixture_dir):
    return pq.read_table(f"{fixture_dir}/corpus.parquet").to_pandas()


@pytest.fixture(scope="module")
def oracle_out(fixture_dir, corpus_df):
    anns = pq.read_table(f"{fixture_dir}/announcements.parquet").to_pandas()
    with open(f"{fixture_dir}/meta.json") as f:
        meta = json.load(f)
    from datetime import date

    dates = [date.fromisoformat(d) for d in meta["dates"]]
    frontier = O.oracle_stage1(anns, dates, corpus_df)
    return O.oracle_stage2(frontier, corpus_df)


@pytest.fixture(scope="module")
def engine_frontier(fixture_dir):
    # materialize: the frontier is small and is consumed by several tests —
    # without this every downstream execution re-runs stage 1.
    return stage1.build_frontier(fixture_dir).materialize()


def test_long_matches_oracle(fixture_dir, engine_frontier, oracle_out):
    o_long, _ = oracle_out
    decoded = stage2.fetch_decode(engine_frontier, f"{fixture_dir}/corpus.parquet", CrawlConfig())
    got = stage2.long_view(stage2.long_from_decoded(decoded))
    want = o_long[
        ["证券代码", "公司名称", "报告名称", "报告日期", "项目名称", "金额", "PDF链接", "_has_data_resource"]
    ].reset_index(drop=True)
    assert len(got) > 30
    pd.testing.assert_frame_equal(got, want)


def test_wide_matches_oracle(fixture_dir, engine_frontier, oracle_out):
    _, o_wide = oracle_out
    decoded = stage2.fetch_decode(engine_frontier, f"{fixture_dir}/corpus.parquet", CrawlConfig())
    wide = stage2.wide_from_long(stage2.long_from_decoded(decoded))
    got = stage2.wide_view(wide)
    want = o_wide.reset_index(drop=True)
    assert len(got) > 10
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))


def test_reports_sizes_wide_pivot_from_row_count(fixture_dir, engine_frontier,
                                                monkeypatch):
    """``reports`` sizes the wide pivot from the materialized long rows'
    count (no count pass), and the wide frame equals the counting path's."""
    decoded = stage2.fetch_decode(engine_frontier, f"{fixture_dir}/corpus.parquet", CrawlConfig())
    long_ds = stage2.long_from_decoded(decoded).materialize()
    real = stage2.bucketed_map_groups
    want = stage2.wide_view(real(long_ds, ["PDF链接"], stage2._wide_bucket,
                                 auto_parallelism=True))

    calls = []

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(stage2, "bucketed_map_groups", spy)
    long_df, wide_df = stage2.reports(long_ds)
    assert len(calls) == 1
    assert calls[0]["nrows_hint"] == len(long_df) > 0
    assert calls[0]["auto_parallelism"] is False
    pd.testing.assert_frame_equal(wide_df, want)


def test_per_row_invariant_psnr_caption(fixture_dir, engine_frontier, corpus_df):
    """BASELINE.json input_hint: decoded pixels allclose (PSNR≥40dB lossy) +
    exact caption equality, for every validated row."""
    decoded = stage2.fetch_decode(engine_frontier, f"{fixture_dir}/corpus.parquet", CrawlConfig())
    df = decoded.to_pandas()
    ok = df[df["type_ok"]]
    assert len(ok) > 20
    store = corpus_df.set_index("image_id")
    checked = 0
    for _, r in ok.iterrows():
        iid = r["PDF链接"].rsplit("/", 1)[-1].rsplit(".", 1)[0]
        row = store.loc[iid]
        assert r["caption"] == row["caption"], iid  # exact caption equality
        blob = bytes(row["bytes"])
        px, fmt, _ = codecs.decode_image(blob)
        i = int(iid.split("_")[1])
        src = f"img_{i - 1:08d}" if (i % 211 == 0 and i > 0) else iid
        orig = C.gen_pixels(src, int(row["w"]), int(row["h"]))
        p = codecs.psnr(orig, px)
        if fmt in codecs.LOSSLESS_FMTS:
            assert p == float("inf"), (iid, p)
        else:
            assert p >= 40.0, (iid, p)
        checked += 1
    assert checked == len(ok)


def test_export_payloads_content_and_resume(fixture_dir, engine_frontier,
                                            corpus_df, tmp_path):
    """The payload file sink (S8+M13) writes byte-exact corpus payloads
    under sanitized names, gates on content-type, and skips existing files
    on rerun."""
    import os

    out_dir = str(tmp_path / "payloads")
    cfg = CrawlConfig()
    acts = stage2.export_payloads(
        engine_frontier, f"{fixture_dir}/corpus.parquet", out_dir, cfg
    ).to_pandas()
    assert set(acts["action"]) <= {"written", "exists", "rejected"}
    assert (acts["action"] == "written").sum() > 0

    # byte-exactness: every written file equals SOME corpus payload whose
    # id appears in the frontier (collisions keep reference last-write-wins)
    store = corpus_df.set_index("image_id")["bytes"]
    frontier_df = engine_frontier.to_pandas()
    by_name = {}
    from cninfo_crawler_ray.functions.files import sanitize_report_filename
    from cninfo_crawler_ray.sources.store import ext_of_url

    for _, r in frontier_df.iterrows():
        ext = ext_of_url([r["PDF链接"]])[0]
        nm = sanitize_report_filename(r["公司名称"], r["财报名称"], r["报告日期"], ext)
        iid = r["PDF链接"].rsplit("/", 1)[-1].rsplit(".", 1)[0]
        by_name.setdefault(nm, set()).add(iid)
    for fn in os.listdir(out_dir):
        with open(os.path.join(out_dir, fn), "rb") as f:
            blob = f.read()
        assert any(bytes(store.loc[i]) == blob for i in by_name[fn]), fn

    # rerun: nothing rewritten
    acts2 = stage2.export_payloads(
        engine_frontier, f"{fixture_dir}/corpus.parquet", out_dir, cfg
    ).to_pandas()
    assert (acts2["action"] == "written").sum() == 0
    n_rejected = (acts["action"] == "rejected").sum()
    assert (acts2["action"] == "rejected").sum() == n_rejected
