"""Tests of the crawl benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke runs start Ray (about half a minute each); the check tests do not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pandas as pd
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import check, run  # noqa: E402
from perfbench.trace import LAYER_UNITS  # noqa: E402

#: a seed with no recorded reference, so the smoke runs check invariants
SMOKE_SEED = 7
SMOKE_IMAGES = 200


def _bench(*args: str, timeout: float = 300) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT, timeout=timeout,
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc.returncode, json.loads(lines[-1])


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_matches_metric_tables():
    bench = _benchmark_json()
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_UNITS


def test_batch_and_round_crawl_share_a_reference():
    def fixture(name):
        wl = run.WORKLOADS[name]
        return wl["sizes"], wl["listed_urls"]

    assert fixture("batch_crawl") == fixture("round_crawl")


def test_fixture_size_holds_the_listed_urls(tmp_path):
    cache = str(tmp_path / "sizes.json")
    for seed in (1, 2):
        n = run.images_for(300, seed, str(tmp_path), cache)
        assert run._listed_urls(n) >= 300 > run._listed_urls(n - 1)
    with open(cache) as f:
        assert set(json.load(f)) == {"1/300", "2/300"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    code, out = _bench("--workload", workload, "--seed", str(SMOKE_SEED),
                       "--seconds", "1", "--trace", str(trace),
                       "--n-images", str(SMOKE_IMAGES))
    assert code == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    bench = _benchmark_json()
    want = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_forced_timeout_is_a_failed_run():
    code, out = _bench("--workload", "batch_crawl", "--seed", str(SMOKE_SEED),
                       "--seconds", "1", "--trace", "0",
                       "--n-images", str(SMOKE_IMAGES), "--timeout", "2")
    assert code != 0
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 1
    assert run._marked_pids(f"{ROOT}:") == []


def _frames():
    long_df = pd.DataFrame({
        "证券代码": ["000001", "000001", "000002"],
        "项目名称": ["存货", "无形资产", "存货"],
        "金额": [1.5, 2.0, 0.0],
        "PDF链接": ["https://a/1.ppm", "https://a/1.ppm", "https://b/2.raw"],
    })
    wide_df = pd.DataFrame({
        "证券代码": ["000001", "000002"],
        "存货": [1.5, 0.0],
        "PDF链接": ["https://a/1.ppm", "https://b/2.raw"],
    })
    return long_df, wide_df


def _reference(long_df, wide_df, per_url: bool = True) -> dict:
    s = check.summarize(long_df, wide_df)
    ref = {k: s[k] for k in ("urls", "long_rows", "wide_rows",
                             "long_digest", "wide_digest")}
    if per_url:
        ref["url_fingerprints"] = " ".join(s["url_fingerprints"])
    return ref


def test_matching_frames_pass_in_any_row_order():
    long_df, wide_df = _frames()
    ref = _reference(long_df, wide_df)
    got = check.check(check.summarize(long_df.iloc[::-1], wide_df.iloc[::-1]), ref)
    assert got == {"attempted": 2, "failed": 0, "correct": True, "mode": "reference"}


@pytest.mark.parametrize("per_url", [True, False])
@pytest.mark.parametrize("frame", ["long", "wide"])
def test_corrupted_frame_fails_the_check(frame, per_url):
    long_df, wide_df = _frames()
    ref = _reference(long_df, wide_df, per_url)
    if frame == "long":
        long_df = long_df.copy()
        long_df.loc[2, "金额"] = 9.0
    else:
        wide_df = wide_df.copy()
        wide_df.loc[0, "存货"] = 7.25
    got = check.check(check.summarize(long_df, wide_df), ref)
    assert got["correct"] is False and got["failed"] == 1


def test_missing_url_fails_the_check():
    long_df, wide_df = _frames()
    ref = _reference(long_df, wide_df)
    got = check.check(check.summarize(long_df.iloc[:2], wide_df.iloc[:1]), ref)
    assert got["correct"] is False and got["failed"] == 1


def test_invariants_catch_a_duplicated_wide_row():
    long_df, wide_df = _frames()
    assert check.check(check.summarize(long_df, wide_df), None)["correct"]
    wide_df = pd.concat([wide_df, wide_df.iloc[:1]], ignore_index=True)
    got = check.check(check.summarize(long_df, wide_df), None)
    assert got["correct"] is False and got["failed"] == 1
