"""CLI smoke: the two reference entry points (crawl → CSV → collect)
reproduce the two-step workflow (README:20-65, SURVEY.md §3.3) end-to-end
via subprocess, each owning its own Ray session. The run-once tests call the
commands in-process, under the ``stage_rows`` tap, to count stage executions."""

import argparse
import os
import subprocess
import sys

import pandas as pd
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=REPO)
    return subprocess.run(
        [sys.executable, "-m", "cninfo_crawler_ray", *argv],
        capture_output=True, text=True, env=env, cwd="/tmp", timeout=300,
    )


def test_cli_crawl_collect_roundtrip(tmp_path):
    csv = str(tmp_path / "frontier.csv")
    out = str(tmp_path / "reports")

    r = _run("crawl", "--start-date", "2025-05-29", "--end-date", "2025-06-01",
             "--n-images", "800", "--out", csv)
    assert r.returncode == 0, r.stderr[-2000:]
    frontier = pd.read_csv(csv, dtype=str)
    assert len(frontier) > 20
    assert list(frontier.columns) == ["股票代码", "公司名称", "财报名称", "报告日期", "PDF链接"]

    r = _run("collect", "--csv-file", csv, "--out-dir", out,
             "--n-images", "800", "--xlsx")
    assert r.returncode == 0, r.stderr[-2000:]
    long_df = pq.read_table(os.path.join(out, "report_long.parquet")).to_pandas()
    wide_df = pq.read_table(os.path.join(out, "report_wide.parquet")).to_pandas()
    assert len(wide_df) > 20
    assert len(long_df) >= len(wide_df)  # ≥1 category row per document
    assert {"存货", "无形资产", "开发支出", "是否包含数据资产"} <= set(wide_df.columns)
    # every collected document came from the frontier CSV
    assert set(wide_df["PDF链接"]) <= set(frontier["PDF链接"])
    # S9 Excel artifact (vendored stdlib OOXML writer when openpyxl is
    # absent): header/rows match the wide parquet; the wide sheet carries the
    # reference's frozen header row (freeze_panes=(1, 0),
    # report_info_collection.py:701-715)
    from cninfo_crawler_ray.functions.xlsx import read_xlsx_values

    header, rows, pane = read_xlsx_values(os.path.join(out, "report_wide.xlsx"))
    assert header == [str(c) for c in wide_df.columns]
    assert len(rows) == len(wide_df)
    assert pane.get("ySplit") == "1" and pane.get("state") == "frozen"
    assert pane.get("topLeftCell") == "A2"
    # spot-check a full row round-trip (CJK strings + numerics)
    got_first = ["" if v is None else str(v) for v in rows[0]]
    want_first = ["" if pd.isna(v) else str(v) for v in wide_df.iloc[0]]
    assert got_first == want_first
    lh, lr, lpane = read_xlsx_values(os.path.join(out, "report_long.xlsx"))
    assert len(lr) == len(long_df) and lpane == {}


def test_cli_reference_workflow_discovery_and_payload_export(tmp_path):
    """The reference's full two-step workflow: crawl names its CSV by the
    listed_companies_* pattern, collect auto-discovers the newest one and
    exports payloads under sanitized filenames with skip-if-exists resume."""
    csv_dir = tmp_path / "csvs"
    csv_dir.mkdir()
    out = str(tmp_path / "reports")
    pdir = tmp_path / "payloads"

    r = _run("crawl", "--start-date", "2025-05-29", "--end-date", "2025-06-01",
             "--n-images", "800", "--out", str(csv_dir) + os.sep)
    assert r.returncode == 0, r.stderr[-2000:]
    csvs = os.listdir(csv_dir)
    assert len(csvs) == 1 and csvs[0].startswith("listed_companies_20250529_20250601_ndbg_")

    r = _run("collect", "--csv-dir", str(csv_dir), "--out-dir", out,
             "--n-images", "800", "--save-payloads", str(pdir))
    assert r.returncode == 0, r.stderr[-2000:]
    assert f"collect: discovered {csv_dir}" in r.stdout
    wide_df = pq.read_table(os.path.join(out, "report_wide.parquet")).to_pandas()
    files = os.listdir(pdir)
    n_written = int(r.stdout.split("payloads -> ")[1].split(": ")[1].split(" written")[0])
    # rows sharing (公司名称, 财报名称, 报告日期) collide onto one file — the
    # reference quirk (R:241-249 reuses the existing file) — so written rows
    # ≥ distinct files
    assert n_written >= len(files) > 20
    # sanitized reference pattern: 公司名称：财报名称_[日期].ext, no illegal chars
    assert all("：" in f and "_[" in f for f in files)
    assert not any(c in f for f in files for c in '\\/:*?"<>|')
    # every exported file belongs to a collected document
    frontier = pd.read_csv(os.path.join(csv_dir, csvs[0]), dtype=str)
    assert len(files) <= len(frontier)
    assert len(wide_df) > 20

    # rerun: skip-if-exists resume — nothing rewritten
    mtimes = {f: os.path.getmtime(pdir / f) for f in files}
    r = _run("collect", "--csv-dir", str(csv_dir), "--out-dir", out,
             "--n-images", "800", "--save-payloads", str(pdir))
    assert r.returncode == 0, r.stderr[-2000:]
    assert f"{n_written} already present" in r.stdout
    assert " 0 written" in r.stdout
    assert all(os.path.getmtime(pdir / f) == mtimes[f] for f in files)


def test_download_mode_prompt_parsing():
    """y/n handling of the interactive download-mode prompt (reference
    report_info_collection.py:559-584), with re-ask on invalid input."""
    import sys

    sys.path.insert(0, REPO)
    from cninfo_crawler_ray.__main__ import _ask_download_mode

    def feeder(*answers):
        it = iter(answers)
        return lambda _prompt: next(it)

    assert _ask_download_mode(feeder("y")) is True
    assert _ask_download_mode(feeder(" N ")) is False
    assert _ask_download_mode(feeder("maybe", "", "Y")) is True


def test_cli_rejects_bad_dates():
    r = _run("crawl", "--start-date", "2025-06-02", "--end-date", "2025-06-01")
    assert r.returncode != 0
    r = _run("crawl", "--start-date", "not-a-date", "--end-date", "2025-06-01")
    assert r.returncode != 0


def test_cli_crawl_report_type_must_match_corpus(tmp_path):
    """The synthetic corpus lists one category (annual reports): a report
    type it does not hold fails, naming the corpus's category, instead of
    crawling the annual reports under the wrong name; an unknown type is a
    usage error. ``ndbg`` crawls and names the CSV after itself."""
    r = _run("crawl", "--report-type", "yjdbg", "--n-images", "800",
             "--out", str(tmp_path) + os.sep)
    assert r.returncode != 0
    assert "category_ndbg_szsh" in r.stderr
    assert not os.listdir(tmp_path)
    r = _run("crawl", "--report-type", "nosuchtype", "--out", str(tmp_path) + os.sep)
    assert r.returncode != 0
    assert not os.listdir(tmp_path)

    r = _run("crawl", "--report-type", "ndbg", "--n-images", "800",
             "--out", str(tmp_path) + os.sep)
    assert r.returncode == 0, r.stderr[-2000:]
    [name] = os.listdir(tmp_path)
    assert name.startswith("listed_companies_") and "_ndbg_" in name


def test_cli_export_shards_and_resumes(tmp_path, monkeypatch, capsys):
    """The export sink must commit per-shard parquet with each shard's
    lineage record, skip every committed shard on rerun without running the
    curation chain, rewrite exactly the missing shard after partial loss,
    print the same doc total each time, and its shard contents must agree
    with the SQL-checked q_export_pipeline stats."""
    import json
    import shutil

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "export")

    def record(k):
        with open(os.path.join(out, f"shard={k}", "_COMMITTED")) as f:
            return json.load(f)

    r = _run("export", "--sf-dir", sf, "--out-dir", out)
    assert r.returncode == 0, r.stderr[-2000:]
    assert "8 written, 0 resumed-skip" in r.stdout
    docs = r.stdout.split("export: ")[1].split(" docs")[0]
    assert sorted(os.listdir(out)) == [f"shard={k}" for k in range(8)]

    # shard contents must match the shard's record and the doc→shard hash
    total = 0
    for k in range(8):
        df = pq.read_table(os.path.join(out, f"shard={k}")).to_pandas()
        rec = record(k)
        assert len(df) == rec["rows"] and int(df["n_tokens"].sum()) == rec["tokens"]
        assert ((df["doc_id"].astype("int64") * 2654435761) % (1 << 32) % 8 == k).all()
        total += len(df)
    assert total > 100

    # full resume, in-process: nothing rewritten, the chain never runs
    from cninfo_crawler_ray import __main__ as cli
    from cninfo_crawler_ray.pipelines import queries

    def no_chain(*a, **kw):
        raise AssertionError("export chain ran for a fully committed out dir")

    monkeypatch.setattr(queries, "export_survivors", no_chain)
    assert cli._cmd_export(argparse.Namespace(sf_dir=sf, out_dir=out,
                                              n_shards=8)) == 0
    r2 = capsys.readouterr().out
    assert "0 written, 8 resumed-skip" in r2 and f"export: {docs} docs" in r2

    # partial loss: drop one shard dir (its record goes with it) -> only it
    # is rewritten
    shutil.rmtree(os.path.join(out, "shard=3"))
    before = {k: os.path.getmtime(os.path.join(out, f"shard={k}"))
              for k in range(8) if k != 3}
    r3 = _run("export", "--sf-dir", sf, "--out-dir", out)
    assert r3.returncode == 0 and "1 written, 7 resumed-skip" in r3.stdout
    assert f"export: {docs} docs" in r3.stdout
    after = {k: os.path.getmtime(os.path.join(out, f"shard={k}"))
             for k in range(8) if k != 3}
    assert before == after  # untouched shards not rewritten
    df3 = pq.read_table(os.path.join(out, "shard=3")).to_pandas()
    assert len(df3) == record(3)["rows"]


def test_cli_schedule_kill_resume(tmp_path):
    """`schedule` runs the round-based scheduler from the CLI; a killed run
    (--max-rounds) rerun with the same --ckpt-dir resumes and produces the
    same reports as an uninterrupted run."""
    full = str(tmp_path / "full")
    r = _run("schedule", "--out-dir", full, "--n-images", "800",
             "--wave-size", "97")
    assert r.returncode == 0, r.stderr[-2000:]
    assert "rounds" in r.stdout
    wide_full = pq.read_table(os.path.join(full, "report_wide.parquet")).to_pandas()
    assert len(wide_full) > 20

    ck = str(tmp_path / "ck")
    part = str(tmp_path / "part")
    r = _run("schedule", "--out-dir", part, "--n-images", "800",
             "--wave-size", "97", "--ckpt-dir", ck, "--max-rounds", "3")
    assert r.returncode == 0, r.stderr[-2000:]
    assert not os.path.exists(os.path.join(part, "report_wide.parquet")) or \
        len(pq.read_table(os.path.join(part, "report_wide.parquet"))) < len(wide_full)

    out2 = str(tmp_path / "resumed")
    r = _run("schedule", "--out-dir", out2, "--n-images", "800",
             "--wave-size", "97", "--ckpt-dir", ck)
    assert r.returncode == 0, r.stderr[-2000:]
    wide_res = pq.read_table(os.path.join(out2, "report_wide.parquet")).to_pandas()
    pd.testing.assert_frame_equal(wide_res, wide_full)


def _crawl_args(out: str) -> argparse.Namespace:
    return argparse.Namespace(start_date=None, end_date=None,
                              report_type="ndbg", n_images=800,
                              sniff_magic=False, out=out)


def test_cmd_crawl_runs_stage1_once(stage_rows, tmp_path):
    """In-process ``crawl`` executes the frontier once: writing the CSV and
    counting its rows share one view."""
    from cninfo_crawler_ray.__main__ import _cmd_crawl

    csv = str(tmp_path / "frontier.csv")
    assert _cmd_crawl(_crawl_args(csv)) == 0
    assert stage_rows()["stage1"] == len(pd.read_csv(csv, dtype=str)) > 0


def test_cmd_collect_fetches_each_url_once(stage_rows, tmp_path):
    """In-process ``collect`` fetches and decodes each CSV row once, though
    it writes both the long and the wide report."""
    from cninfo_crawler_ray.__main__ import _cmd_collect, _cmd_crawl

    csv = str(tmp_path / "frontier.csv")
    assert _cmd_crawl(_crawl_args(csv)) == 0
    out = str(tmp_path / "reports")
    assert _cmd_collect(argparse.Namespace(
        csv_file=csv, csv_dir=".", out_dir=out, n_images=800, xlsx=False,
        save_payloads=None, no_download=True)) == 0
    rows = len(pd.read_csv(csv, dtype=str))
    assert stage_rows()["fetch_decode"] == rows > 0
    wide = pq.read_table(os.path.join(out, "report_wide.parquet"))
    assert 0 < wide.num_rows <= rows
