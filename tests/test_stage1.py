"""Stage-1 E2E conformance: the Ray Data frontier pipeline must reproduce the
oracle's frontier exactly — same rows, same canonical order, same URL-seen
outcome — at multiple parallelism levels (SURVEY.md §5.2)."""

import pandas as pd
import pyarrow.parquet as pq
import pytest

import oracle_impl as O
from cninfo_crawler_ray.pipelines import stage1
from cninfo_crawler_ray.sources import corpus as C

N = 800


@pytest.fixture(scope="module")
def fixture_dir(ray_session):
    return C.ensure_fixtures(N, n_days=3, use_ray=False)


@pytest.fixture(scope="module")
def oracle_frontier(fixture_dir):
    anns = pq.read_table(f"{fixture_dir}/announcements.parquet").to_pandas()
    corpus = pq.read_table(f"{fixture_dir}/corpus.parquet").to_pandas()
    import json

    with open(f"{fixture_dir}/meta.json") as f:
        meta = json.load(f)
    from datetime import date

    dates = [date.fromisoformat(d) for d in meta["dates"]]
    return O.oracle_stage1(anns, dates, corpus)


def test_frontier_matches_oracle(fixture_dir, oracle_frontier):
    got = stage1.frontier_csv_view(stage1.build_frontier(fixture_dir))
    want = oracle_frontier[
        ["股票代码", "公司名称", "财报名称", "报告日期", "PDF链接"]
    ].reset_index(drop=True)
    assert len(got) > 20, "fixture must exercise a non-trivial frontier"
    pd.testing.assert_frame_equal(got, want)


def test_frontier_order_is_canonical(fixture_dir, oracle_frontier):
    ds = stage1.build_frontier(fixture_dir)
    df = ds.to_pandas()
    assert list(df["order_key"]) == sorted(df["order_key"])
    assert list(df["order_key"]) == list(oracle_frontier["order_key"])


def test_frontier_partitions_and_priority(fixture_dir):
    df = stage1.build_frontier(fixture_dir).to_pandas()
    assert df["url_sha1"].str.len().eq(40).all()
    assert (df["host"].str.endswith("example.test")).all()
    # priority: strictly increasing in report-date recency for same exchange
    assert df["priority"].notna().all()


def test_probe_sniff_magic_matches_oracle(fixture_dir, oracle_frontier):
    """GET-fallback conformance (VERDICT r01 missing §1): with sniff enabled,
    rows whose HEAD metadata LIES about a body that actually matches the URL
    extension (fixture case i%103 with original fmt raw) are admitted, and
    the frontier equals the sniff-extended oracle exactly."""
    import json
    from datetime import date

    from cninfo_crawler_ray.config import CrawlConfig

    cfg = CrawlConfig(probe_sniff_magic=True)
    got = stage1.frontier_csv_view(stage1.build_frontier(fixture_dir, cfg))

    anns = pq.read_table(f"{fixture_dir}/announcements.parquet").to_pandas()
    corpus = pq.read_table(f"{fixture_dir}/corpus.parquet").to_pandas()
    with open(f"{fixture_dir}/meta.json") as f:
        meta = json.load(f)
    dates = [date.fromisoformat(d) for d in meta["dates"]]
    want = O.oracle_stage1(anns, dates, corpus, sniff_magic=True)[
        ["股票代码", "公司名称", "财报名称", "报告日期", "PDF链接"]
    ].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)

def test_probe_sniff_magic_delta(tmp_path):
    """Probe-level GET-fallback semantics on a crafted corpus where HEAD
    metadata lies: a valid body matching the URL ext is admitted ONLY with
    sniff; a lie whose body doesn't match stays rejected either way."""
    import numpy as np
    import pyarrow as pa

    from cninfo_crawler_ray.functions import codecs as CC
    from cninfo_crawler_ray.sources.corpus import gen_pixels
    from cninfo_crawler_ray.stages.fetch import Prober

    px = gen_pixels("img_00000000", 16, 16)
    rows = [
        # (id, stored fmt (HEAD metadata), body fmt, url ext)
        ("img_00000001", "qlossy", "raw", "raw"),    # lie; valid body → sniff admits
        ("img_00000002", "qlossy", "raw", "ppm"),    # lie; body ≠ ext → stays out
        ("img_00000003", "raw", "raw", "raw"),       # truthful → HEAD admits
    ]
    t = pa.table({
        "image_id": pa.array([r[0] for r in rows], pa.string()),
        "bytes": pa.array([CC.encode_image(px, r[2], {"caption": "", "pages": []})
                           for r in rows], pa.large_binary()),
        "w": pa.array([16] * 3, pa.int32()),
        "h": pa.array([16] * 3, pa.int32()),
        "fmt": pa.array([r[1] for r in rows], pa.string()),
        "caption": pa.array([""] * 3, pa.string()),
        "phash": pa.array([0] * 3, pa.int64()),
    })
    cp = str(tmp_path / "corpus.parquet")
    pq.write_table(t, cp)
    urls = [f"https://img0.example.test/{r[0]}.{r[3]}" for r in rows]
    batch = pa.table({"PDF链接": pa.array(urls, pa.string())})
    head_ok = Prober(cp, sniff_magic=False)(batch)["head_ok"].to_pylist()
    sniff_ok = Prober(cp, sniff_magic=True)(batch)["head_ok"].to_pylist()
    assert head_ok == [False, False, True]
    assert sniff_ok == [True, False, True]


def test_frontier_parallelism_invariant(fixture_dir):
    """SURVEY.md §5.2: identical frontier at different parallelism — crawl
    order is pinned at admission, never by completion order."""
    # (2,2) pools: 2 pools × 2 actors × 0.5 cpu = 2 of the session's 4 CPUs
    # reserved, leaving room for task operators (larger pools deadlock the
    # streaming executor in the small test session)
    lo = stage1.frontier_csv_view(stage1.build_frontier(fixture_dir, concurrency=1))
    hi = stage1.frontier_csv_view(stage1.build_frontier(fixture_dir, concurrency=(2, 2)))
    pd.testing.assert_frame_equal(lo, hi)


def test_frontier_csv_roundtrip(fixture_dir, tmp_path):
    """S5 sink → S6 source roundtrip preserves rows and string dtypes
    (codes like 000005 must survive as strings)."""
    frontier = stage1.build_frontier(fixture_dir)
    p = str(tmp_path / "frontier.csv")
    stage1.write_frontier_csv(frontier, p)
    back = stage1.read_frontier_csv(p).to_pandas()
    want = stage1.frontier_csv_view(frontier)
    pd.testing.assert_frame_equal(back, want)
    assert back["股票代码"].map(type).eq(str).all()


def test_frontier_csv_missing_column(fixture_dir, tmp_path):
    p = str(tmp_path / "bad.csv")
    pd.DataFrame({"股票代码": ["000001.SZ"]}).to_csv(p, index=False)
    with pytest.raises(ValueError, match="missing required"):
        stage1.read_frontier_csv(p)


def test_build_frontier_fails_fast_when_workers_cannot_import(fixture_dir,
                                                              tmp_path):
    """A driver started outside the repository with the package only on its
    own sys.path gets a clear error from stage 1 in seconds, instead of
    stage actors that die unpickling their class and restart forever."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = tmp_path / "driver.py"
    script.write_text(
        "import sys\n"
        f"sys.path.insert(0, {repo!r})\n"
        "import ray\n"
        "ray.init(address='local', num_cpus=2, include_dashboard=False,\n"
        "         logging_level='ERROR', log_to_driver=False)\n"
        "from cninfo_crawler_ray.pipelines import stage1\n"
        f"stage1.build_frontier({fixture_dir!r}).materialize()\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=60)
    assert r.returncode != 0
    assert "Ray workers cannot import cninfo_crawler_ray" in r.stderr


def test_crawl_pool_floors_fit_two_cpus_and_fail_fast_at_one(tmp_path):
    """The listing and probe pools' floors leave a CPU for stage 1's tasks:
    a whole crawl under ``ray.init(num_cpus=2)`` finishes, and at 1 CPU,
    where no floor fits, stage 1 raises a clear error instead of hanging."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = tmp_path / "driver.py"
    script.write_text(
        "import sys\n"
        "import ray\n"
        "ray.init(address='local', num_cpus=int(sys.argv[1]),\n"
        "         include_dashboard=False, logging_level='ERROR',\n"
        "         log_to_driver=False)\n"
        "from cninfo_crawler_ray.pipelines import crawl\n"
        "print(crawl.run_crawl(200)['counters']['wide_rows'])\n"
    )
    env = dict(os.environ, PYTHONPATH=repo)

    def drive(ncpu):
        return subprocess.run([sys.executable, str(script), str(ncpu)],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)

    two = drive(2)
    assert two.returncode == 0, two.stderr[-2000:]
    assert int(two.stdout.split()[-1]) > 0
    one = drive(1)
    assert one.returncode != 0
    assert "stage 1 needs at least 2 CPUs" in one.stderr
