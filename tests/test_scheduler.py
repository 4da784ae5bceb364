"""Round-based scheduler conformance: heap-frontier waves + politeness must
reproduce the batch pipeline's outputs exactly, at any wave size; the
frontier heap itself must pop in (priority desc, order_key asc) order and
survive snapshot/restore."""

import numpy as np
import pandas as pd
import pytest

from cninfo_crawler_ray.config import CrawlConfig
from cninfo_crawler_ray.pipelines import crawl, scheduler
from cninfo_crawler_ray.sources import corpus as C
from cninfo_crawler_ray.state.frontier import ShardedFrontier
from cninfo_crawler_ray.state.politeness import PolitenessGate

N = 800


@pytest.fixture(scope="module")
def fixture_dir(ray_session):
    return C.ensure_fixtures(N, n_days=3, use_ray=False)


@pytest.fixture(scope="module")
def frontier_df(fixture_dir):
    """Stage 1's frontier: one row per stock code, so a URL listed under
    several codes has several rows."""
    from cninfo_crawler_ray.pipelines import stage1

    return stage1.build_frontier(fixture_dir, CrawlConfig()).to_pandas()


@pytest.fixture(scope="module")
def sched97(fixture_dir):
    """An uninterrupted scheduled crawl at a wave size that forces many
    rounds: the reference the kill/resume tests compare against."""
    return scheduler.run_scheduled_crawl(
        fixture_dir, CrawlConfig(), wave_size=97, concurrency=1
    )


def _mini_df(n=20, hosts=2, seed=7):
    rng = np.random.default_rng(seed)
    pri = rng.random(n) * 10
    return pd.DataFrame(
        {
            "PDF链接": [f"https://h{i % hosts}.x/img_{i:08d}.raw" for i in range(n)],
            "url_sha1": [f"{rng.integers(0, 2**32):08x}{'0'*32}" for _ in range(n)],
            "host": [f"h{i % hosts}.x" for i in range(n)],
            "priority": pri,
            "order_key": np.arange(n, dtype=np.int64),
        }
    )


def _staged_wave(fr, k, gate):
    """Run the staged control plane and collect the admitted wave from the
    shard outboxes (driver-side; non-actor mode), shard by shard: each
    shard's rows are in global merge order."""
    verdict = fr.pop_admissible_staged(k, gate)
    frames = []
    for s, n in enumerate(verdict["admitted"]):
        if n:
            cols, rows = fr.shards[s].read_outbox()
            frames.append(fr._rebuild(rows, cols))
    wave = (pd.concat(frames, ignore_index=True) if frames
            else pd.DataFrame())
    return wave, verdict


def _open_gate():
    """A budget that never binds, for tests where only pop order matters."""
    return PolitenessGate(burst=10**9)


def _merge_order(df):
    return df.sort_values(["priority", "order_key"], ascending=[False, True])


def test_shard_pops_priority_then_order():
    fr = ShardedFrontier(1, use_actors=False)
    df = _mini_df(30)
    fr.push_pandas(df)
    got, _ = _staged_wave(fr, 30, _open_gate())
    assert list(got["order_key"]) == list(_merge_order(df)["order_key"])


def test_sharded_pop_is_global_topk():
    fr = ShardedFrontier(4, use_actors=False)
    df = _mini_df(50)
    fr.push_pandas(df)
    top, verdict = _staged_wave(fr, 10, _open_gate())
    assert sum(n > 0 for n in verdict["admitted"]) > 1  # merged across shards
    want = _merge_order(df).head(10)
    assert list(_merge_order(top)["order_key"]) == list(want["order_key"])
    assert fr.total() == 40  # remainder went back


def test_snapshot_restore_roundtrip():
    fr = ShardedFrontier(2, use_actors=False)
    df = _mini_df(12)
    fr.push_pandas(df)
    blobs = fr.snapshot()
    fr2 = ShardedFrontier(2, use_actors=False)
    fr2.restore(blobs)
    a, _ = _staged_wave(fr, 12, _open_gate())
    b, _ = _staged_wave(fr2, 12, _open_gate())
    pd.testing.assert_frame_equal(a, b)


def test_pop_admissible_respects_budget_and_returns_denied():
    fr = ShardedFrontier(2, use_actors=False)
    df = _mini_df(20, hosts=1)  # single host: budget binds
    fr.push_pandas(df)
    gate = PolitenessGate(rate_per_second=10.0, burst=5, ticks_per_second=10)
    wave, verdict = _staged_wave(fr, 20, gate)
    assert len(wave) == sum(verdict["admitted"]) == 5  # burst only
    assert fr.total() == 15  # denied back on the heap
    assert fr.last_denied_hosts == ["h0.x"]
    # highest-priority rows won the grants
    want = _merge_order(df).head(5)
    assert list(_merge_order(wave)["order_key"]) == list(want["order_key"])
    # advance the clock → budget refills → next wave succeeds
    gate.advance(10)
    wave2, _ = _staged_wave(fr, 20, gate)
    assert len(wave2) > 0


def test_heap_never_compares_row_payloads():
    """Equal (priority, order_key) entries with None-containing payloads must
    not raise TypeError — the monotonic insertion counter breaks the tie
    before the heap reaches the row lists (ADVICE r01)."""
    fr = ShardedFrontier(1, use_actors=False)
    cols = ["PDF链接", "host", "priority", "order_key", "url_sha1", "extra"]
    fr.shards[0].push(cols, [["https://h.x/a", "h.x", 1.0, 7, "aa" + "0" * 38, None],
                             ["https://h.x/b", "h.x", 1.0, 7, "bb" + "0" * 38, {"d": 1}]])
    wave, verdict = _staged_wave(fr, 2, _open_gate())
    assert verdict["admitted"] == [2] and len(wave) == 2


def test_pop_roundtrip_preserves_dtypes():
    def frame(seed):
        return _mini_df(8, seed=seed).assign(
            rank32=np.arange(8, dtype=np.int32),
            flag=np.array([0, 1] * 4, dtype=np.int64),
        )

    fr = ShardedFrontier(2, use_actors=False)
    fr.push_pandas(frame(7))
    out, _ = _staged_wave(fr, 8, _open_gate())
    assert str(out["rank32"].dtype) == "int32"
    assert str(out["priority"].dtype) == "float64"
    # snapshot/restore keeps the dtype map too (fresh keys: the first
    # frame's URLs are already seen)
    assert fr.push_pandas(frame(8)) == 8
    fr2 = ShardedFrontier(2, use_actors=False)
    fr2.restore(fr.snapshot())
    out2, _ = _staged_wave(fr2, 8, _open_gate())
    assert str(out2["rank32"].dtype) == "int32"


def test_pop_admissible_robots_dead_letter():
    """Robots-disallowed URLs are dead-lettered (never fetched, never
    requeued); allowed URLs proceed through the budget (ADVICE r01: the gate
    must actually be consulted on the fetch path)."""
    fr = ShardedFrontier(2, use_actors=False)
    df = _mini_df(10, hosts=2)  # h0.x and h1.x, paths /img_XXXX.raw
    fr.push_pandas(df)
    gate = PolitenessGate(rate_per_second=100.0, burst=100)
    gate.set_robots("h0.x", ["/img_"])  # everything on h0 disallowed
    wave, verdict = _staged_wave(fr, 10, gate)
    assert set(wave["host"]) == {"h1.x"}
    assert len(wave) == 5
    assert fr.total() == 0  # h0 rows did NOT go back on the heap
    assert verdict["dead"] == {"robots": 5}
    dead = fr.dead_letter_rows()
    assert len(dead) == 5 and set(dead["host"]) == {"h0.x"}
    assert (dead["_dead_reason"] == "robots").all()


def test_pop_admissible_zero_rate_host_dead_letters():
    """A host with zero refill rate and an exhausted bucket can never be
    granted — its rows are dead-lettered instead of spinning the scheduler
    forever (ADVICE r01 empty-wave loop)."""
    fr = ShardedFrontier(2, use_actors=False)
    df = _mini_df(10, hosts=1)
    fr.push_pandas(df)
    gate = PolitenessGate(rate_per_second=100.0, burst=100)
    gate.set_host_rate("h0.x", 0.0, 4)  # 4 grants then never again
    wave, verdict = _staged_wave(fr, 10, gate)
    assert len(wave) == 4
    assert fr.total() == 0
    assert fr.last_denied_hosts == []  # nothing requeued: no clock hint
    assert verdict["dead"] == {"zero_rate_host": 6}
    dead = fr.dead_letter_rows()
    assert len(dead) == 6 and (dead["_dead_reason"] == "zero_rate_host").all()


def test_scheduled_crawl_with_robots_and_slow_host(fixture_dir):
    """E2E: robots rules drop matching URLs from the outputs; a throttled
    host only stretches the virtual schedule (results identical)."""
    base = scheduler.run_scheduled_crawl(
        fixture_dir, wave_size=200, concurrency=1
    )
    hosts = sorted({u.split("/")[2] for u in base["wide"]["PDF链接"]})
    blocked = hosts[0]
    rob = scheduler.run_scheduled_crawl(
        fixture_dir, wave_size=200, concurrency=1,
        robots={blocked: ["/"]},
    )
    assert rob["counters"]["robots_denied"] > 0
    assert not any(u.split("/")[2] == blocked for u in rob["wide"]["PDF链接"])
    want = base["wide"][
        base["wide"]["PDF链接"].map(lambda u: u.split("/")[2] != blocked)
    ].reset_index(drop=True)
    pd.testing.assert_frame_equal(rob["wide"], want)

    slow = scheduler.run_scheduled_crawl(
        fixture_dir, wave_size=200, concurrency=1,
        gate_overrides={hosts[1]: (5.0, 10)},  # 10-burst, 0.5/tick refill
    )
    assert slow["counters"]["politeness_wait_ticks"] > 0
    pd.testing.assert_frame_equal(slow["long"], base["long"])
    pd.testing.assert_frame_equal(slow["wide"], base["wide"])


def test_kill_resume_byte_identical(fixture_dir, tmp_path, sched97):
    """North rule: kill after ≥1 checkpointed round, resume, and the final
    long/wide tables are byte-identical to an uninterrupted run."""
    cfg = CrawlConfig()
    full = sched97
    ck = str(tmp_path / "ck")
    killed = scheduler.run_scheduled_crawl(
        fixture_dir, cfg, wave_size=97, concurrency=1,
        ckpt_dir=ck, max_rounds=3
    )
    assert killed["counters"]["rounds"] == 3
    assert len(killed["long"]) < len(full["long"])  # genuinely interrupted
    # one blob per hash-range actor (its heap and seen set together)
    import pickle

    with open(f"{ck}/state.pkl", "rb") as f:
        st = pickle.load(f)
    assert len(st["frontier"]) == cfg.seen_shards and "seen" not in st
    resumed = scheduler.run_scheduled_crawl(
        fixture_dir, cfg, wave_size=97, concurrency=1,
        ckpt_dir=ck
    )
    assert resumed["counters"]["rounds"] > 3
    pd.testing.assert_frame_equal(resumed["long"], full["long"])
    pd.testing.assert_frame_equal(resumed["wide"], full["wide"])


def test_kill_resume_through_fsspec_storage(fixture_dir, tmp_path, sched97):
    """VERDICT r03 item 5: the checkpoint dir routed through the fsspec
    storage backend (``file://`` URL → FsspecStorage, the generic
    no-atomic-rename protocol with _COMMITTED marker objects) must give the
    same kill/resume byte-identity as the POSIX backend — the shared-FS
    requirement is a code path, not a comment."""
    import os

    from cninfo_crawler_ray.state.storage import FsspecStorage, storage_for

    cfg = CrawlConfig()
    full = sched97
    ck_local = tmp_path / "ck_fs"
    ck = f"file://{ck_local}"
    assert isinstance(storage_for(ck), FsspecStorage)
    killed = scheduler.run_scheduled_crawl(
        fixture_dir, cfg, wave_size=97, concurrency=1,
        ckpt_dir=ck, max_rounds=3
    )
    assert killed["counters"]["rounds"] == 3
    rounds_dir = ck_local / "rounds"
    committed = sorted(os.listdir(rounds_dir))
    assert committed == [f"round_{r:05d}" for r in (1, 2, 3)]
    for d in committed:  # marker-object commit protocol, not dir rename
        assert (rounds_dir / d / "_COMMITTED").exists()
    # plant an uncommitted partial round (what a kill mid-write leaves on an
    # object store) — resume must GC it and recompute
    partial = rounds_dir / "round_00004"
    partial.mkdir()
    (partial / "garbage.parquet").write_bytes(b"not parquet")
    resumed = scheduler.run_scheduled_crawl(
        fixture_dir, cfg, wave_size=97, concurrency=1,
        ckpt_dir=ck
    )
    assert resumed["counters"]["rounds"] > 3
    pd.testing.assert_frame_equal(resumed["long"], full["long"])
    pd.testing.assert_frame_equal(resumed["wide"], full["wide"])


def test_stream_error_midrun_then_resume_byte_identical(fixture_dir,
                                                        tmp_path, sched97,
                                                        monkeypatch):
    """Stream-close-on-error (VERDICT r03 request): a fetch worker that
    RAISES mid-stream — not a cooperative kill — must (a) propagate the
    error out of the streaming execution instead of hanging, (b) leave the
    checkpoint uncorrupted (only fully committed rounds; a partial .tmp is
    GC'd on resume), (c) end the failed run's range actors, and (d) let a
    rerun with the same ckpt_dir finish byte-identically to an
    uninterrupted run."""
    import os

    cfg = CrawlConfig()
    full = sched97
    ck = str(tmp_path / "ck")
    # phase 1: clean partial run commits 2 rounds
    part = scheduler.run_scheduled_crawl(
        fixture_dir, cfg, wave_size=97, concurrency=1,
        ckpt_dir=ck, max_rounds=2
    )
    assert part["counters"]["rounds"] == 2
    rounds_dir = os.path.join(ck, "rounds")
    committed = sorted(d for d in os.listdir(rounds_dir)
                       if not d.endswith(".tmp"))
    # phase 2: resume with the fault marker present — round 3's fetch stage
    # raises inside a map_batches worker; the stream must close with the
    # injected error, not hang or swallow it
    marker = str(tmp_path / "fault_marker")
    open(marker, "w").close()
    fcfg = CrawlConfig(fault_inject_path=marker)
    made = _track_frontiers(monkeypatch)
    with pytest.raises(Exception, match="fault-injection"):
        scheduler.run_scheduled_crawl(
            fixture_dir, fcfg, wave_size=97, concurrency=1,
            ckpt_dir=ck
        )
    assert len(made) == 1
    _assert_actors_ended(made)
    # checkpoint integrity: no new COMMITTED round appeared during the
    # failed attempt (a .tmp partial is allowed — resume GCs it)
    after = sorted(d for d in os.listdir(rounds_dir)
                   if not d.endswith(".tmp"))
    assert after == committed
    # phase 3: clear the fault, resume, finish — byte-identical
    os.remove(marker)
    resumed = scheduler.run_scheduled_crawl(
        fixture_dir, cfg, wave_size=97, concurrency=1,
        ckpt_dir=ck
    )
    assert resumed["counters"]["rounds"] > 2
    pd.testing.assert_frame_equal(resumed["long"], full["long"])
    pd.testing.assert_frame_equal(resumed["wide"], full["wide"])


def test_scheduled_equals_batch_pipeline(fixture_dir, sched97):
    """The round-based scheduler must produce byte-identical long/wide
    tables to the batch path, at a wave size that forces many rounds.
    Both paths use seen-set admission (duplicate URLs across stock codes
    are admitted once — the scheduler's frontier is URL-keyed)."""
    batch = crawl.run_crawl(N)
    assert sched97["counters"]["rounds"] > 3
    pd.testing.assert_frame_equal(sched97["long"], batch["long"])
    pd.testing.assert_frame_equal(sched97["wide"], batch["wide"])


def test_duplicate_url_keeps_lowest_order_key_row(fixture_dir, monkeypatch):
    """A URL listed under several stock codes is admitted once, and both
    crawl paths keep its lowest-``order_key`` row (SURVEY.md §3.4): the
    code, company and date its reports carry are that row's. This fixture
    lists each URL under one code, so stage 1's output is tapped to relist
    some rows' URLs under the next row's code; the tap keeps stage 1's
    sorted blocks as they are."""
    from cninfo_crawler_ray.pipelines import stage1

    def relist(df):
        df = df.copy()
        codes = df["股票代码"].to_numpy()
        i = np.arange(1, len(df), 10)
        i = i[codes[i] != codes[i - 1]]
        for c in ("PDF链接", "url_sha1", "host"):
            j = df.columns.get_loc(c)
            df.iloc[i, j] = df.iloc[i - 1, j].to_numpy()
        return df

    real = stage1.build_frontier
    monkeypatch.setattr(stage1, "build_frontier", lambda *a, **kw: real(
        *a, **kw).map_batches(relist, batch_format="pandas", batch_size=None))
    frontier = stage1.build_frontier(fixture_dir, CrawlConfig()).to_pandas()
    codes = frontier.groupby("PDF链接")["股票代码"].nunique()
    dup_urls = set(codes.index[codes >= 2])
    assert dup_urls  # the tapped frontier exercises the tie
    winner = (frontier.sort_values("order_key", kind="stable")
              .drop_duplicates("PDF链接").set_index("PDF链接"))
    batch = crawl.run_crawl(N)
    sched = scheduler.run_scheduled_crawl(fixture_dir, wave_size=97,
                                          concurrency=1)
    for out in (batch, sched):
        for view in ("wide", "long"):
            got = out[view][out[view]["PDF链接"].isin(dup_urls)]
            assert len(got) > 0
            want = winner.loc[got["PDF链接"]]
            assert list(got["证券代码"]) == list(want["股票代码"])
            assert list(got["公司名称"]) == list(want["公司名称"])
            assert list(got["报告日期"]) == list(want["报告日期"])


@pytest.mark.parametrize("backend", ["local", "fsspec"])
def test_kill_between_round_commit_and_state_flush(fixture_dir, tmp_path,
                                                   backend, sched97):
    """ADVICE r02: a kill AFTER round N's commit but BEFORE the state.pkl
    flush leaves round N committed while state says N-1. The resume
    recomputes round N (deterministic) and must replace the committed round
    on both storage backends, not add a second copy beside it."""
    ck_local = tmp_path / "ck"
    ck = str(ck_local) if backend == "local" else f"file://{ck_local}"
    cfg = CrawlConfig()
    full = sched97

    def run(**kw):
        return scheduler.run_scheduled_crawl(
            fixture_dir, cfg, wave_size=97, concurrency=1, ckpt_dir=ck, **kw)

    # the real gap: round 4 commits, then state.pkl goes back to round 3's
    run(max_rounds=3)
    state3 = (ck_local / "state.pkl").read_bytes()
    run(max_rounds=4)
    (ck_local / "state.pkl").write_bytes(state3)
    rounds_dir = ck_local / "rounds"
    assert (rounds_dir / "round_00004" / "_COMMITTED").exists()
    # and a later round's leftover: non-empty, so a rename onto it would
    # fail with ENOTEMPTY
    (rounds_dir / "round_00005").mkdir()
    (rounds_dir / "round_00005" / "part-0.parquet").write_bytes(
        b"stale-garbage")
    resumed = run()
    assert resumed["counters"]["rounds"] > 4
    pd.testing.assert_frame_equal(resumed["long"], full["long"])
    pd.testing.assert_frame_equal(resumed["wide"], full["wide"])


def test_round_lineage_records(fixture_dir, tmp_path):
    """Each committed round's _COMMITTED record names the round's parquet
    files and its admitted URLs per hash range, which sum to the state's
    admitted count for that round. Reads take the record's files only, and
    a record that disagrees with the state stops the resume."""
    import json
    import os

    ck = tmp_path / "ck"
    killed = scheduler.run_scheduled_crawl(
        fixture_dir, CrawlConfig(), wave_size=97, concurrency=1,
        ckpt_dir=str(ck), max_rounds=3
    )
    c = killed["counters"]
    assert c["rounds"] == 3
    for r in (1, 2, 3):
        d = ck / "rounds" / f"round_{r:05d}"
        rec = json.loads((d / "_COMMITTED").read_text())
        assert rec["round"] == r and rec["tick"] == c["round_ticks"][r - 1]
        assert len(rec["admitted"]) == CrawlConfig().seen_shards
        assert sum(rec["admitted"]) == c["round_admitted"][r - 1]
        assert rec["files"] == sorted(f for f in os.listdir(d)
                                      if f.endswith(".parquet"))
        assert rec["files"]

    # a stray file in a committed round is never read
    (ck / "rounds" / "round_00001" / "stray.parquet").write_bytes(b"garbage")
    again = scheduler.run_scheduled_crawl(
        fixture_dir, CrawlConfig(), wave_size=97, concurrency=1,
        ckpt_dir=str(ck), max_rounds=3
    )
    pd.testing.assert_frame_equal(again["long"], killed["long"])

    rec_path = ck / "rounds" / "round_00002" / "_COMMITTED"
    rec = json.loads(rec_path.read_text())
    rec["admitted"][0] += 1
    rec_path.write_text(json.dumps(rec))
    with pytest.raises(ValueError, match="round 2"):
        scheduler.run_scheduled_crawl(
            fixture_dir, CrawlConfig(), wave_size=97, concurrency=1,
            ckpt_dir=str(ck))


# ---------------------------------------------------------------------------
# staged admission (pull path, VERDICT r02 §3)
# ---------------------------------------------------------------------------

def test_staged_budget_robots_zero_rate():
    """One staged wave under a binding budget, robots rules and a zero-rate
    host at once: every row's fate follows from its host and its rank on
    that host in global merge order (priority desc, order_key asc)."""
    df = _mini_df(30, hosts=3)  # h0/h1/h2, 10 rows each
    gate = PolitenessGate(rate_per_second=10.0, burst=4, ticks_per_second=10)
    gate.set_robots("h1.x", ["/img_"])      # h1 fully robots-blocked
    gate.set_host_rate("h2.x", 0.0, 3)      # 3 grants then never again
    fr = ShardedFrontier(2, use_actors=False)
    fr.push_pandas(df)

    ranked = _merge_order(df)
    rank = ranked.groupby("host").cumcount()
    h0, h1, h2 = (ranked["host"] == h for h in ("h0.x", "h1.x", "h2.x"))

    def keys(mask):
        return list(ranked.loc[mask, "order_key"])

    wave, verdict = _staged_wave(fr, 30, gate)
    want = ranked[(h0 & (rank < 4)) | (h2 & (rank < 3))]
    pd.testing.assert_frame_equal(
        _merge_order(wave).reset_index(drop=True),
        want.reset_index(drop=True))
    assert fr.total() == 6                  # h0's denied rows requeued
    assert fr.last_denied_hosts == ["h0.x"]
    assert verdict["dead"] == {"robots": 10, "zero_rate_host": 7}
    dead = fr.dead_letter_rows()
    for reason, mask in (("robots", h1), ("zero_rate_host", h2 & (rank >= 3))):
        got = dead.loc[dead["_dead_reason"] == reason, "order_key"]
        assert sorted(got) == sorted(keys(mask))
    # one refill later h0's requeued rows win the next grants in rank order
    gate.advance(10)
    wave2, verdict2 = _staged_wave(fr, 30, gate)
    assert list(_merge_order(wave2)["order_key"]) == keys(
        h0 & (rank >= 4) & (rank < 8))
    assert fr.total() == 2 and fr.last_denied_hosts == ["h0.x"]
    assert verdict2["dead"] == {}


def test_staged_outbox_idempotent_reads():
    """read_outbox is non-destructive (safe under Ray task retries) and the
    next stage_top clears it."""
    fr = ShardedFrontier(1, use_actors=False)
    fr.push_pandas(_mini_df(6, hosts=1))
    gate = PolitenessGate(rate_per_second=100.0, burst=100)
    verdict = fr.pop_admissible_staged(4, gate)
    assert sum(verdict["admitted"]) == 4
    _, rows1 = fr.shards[0].read_outbox()
    _, rows2 = fr.shards[0].read_outbox()
    assert rows1 == rows2 and len(rows1) == 4
    fr.pop_admissible_staged(2, gate)
    _, rows3 = fr.shards[0].read_outbox()
    assert len(rows3) == 2  # previous round's outbox was cleared


# ---------------------------------------------------------------------------
# frontier heap spill (bounded actor memory, VERDICT r02 §6)
# ---------------------------------------------------------------------------

def test_spill_pop_order_byte_identical_and_heap_bounded():
    """Pushing far past the spill threshold keeps the in-memory heap bounded
    while pop order stays byte-identical to an unbounded heap."""
    n = 5000
    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "PDF链接": [f"https://h{i % 4}.x/img_{i:08d}.raw" for i in range(n)],
        "url_sha1": [f"{rng.integers(0, 2**32):08x}{'0'*32}" for _ in range(n)],
        "host": [f"h{i % 4}.x" for i in range(n)],
        "priority": rng.random(n) * 10,
        "order_key": np.arange(n, dtype=np.int64),
    })
    plain = ShardedFrontier(1, use_actors=False)
    spilly = ShardedFrontier(1, use_actors=False, spill_threshold=512)
    # interleaved pushes so spills happen mid-stream, not once at the end
    for chunk in np.array_split(df, 10):
        plain.push_pandas(chunk)
        spilly.push_pandas(chunk)
        assert len(spilly.shards[0].heap) <= 512
    assert spilly.shards[0]._spill, "threshold was never exceeded"
    assert spilly.total() == plain.total() == n
    gate_a, gate_b = _open_gate(), _open_gate()
    while plain.total() > 0:
        a, _ = _staged_wave(plain, 333, gate_a)
        b, _ = _staged_wave(spilly, 333, gate_b)
        pd.testing.assert_frame_equal(a, b)
        # invariant: heap ≤ max(threshold, 2k) after every public op
        assert len(spilly.shards[0].heap) <= max(512, 2 * 333)
    assert spilly.total() == 0


def test_spill_survives_snapshot_restore():
    """Snapshot blobs carry the spill files; a restored shard pops the same
    order and re-bounds its heap."""
    n = 2000
    rng = np.random.default_rng(13)
    df = pd.DataFrame({
        "PDF链接": [f"https://h0.x/img_{i:08d}.raw" for i in range(n)],
        "url_sha1": [f"{rng.integers(0, 2**32):08x}{'0'*32}" for _ in range(n)],
        "host": ["h0.x"] * n,
        "priority": rng.random(n) * 10,
        "order_key": np.arange(n, dtype=np.int64),
    })
    fr = ShardedFrontier(2, use_actors=False, spill_threshold=256)
    fr.push_pandas(df)
    assert any(s._spill for s in fr.shards)
    fr2 = ShardedFrontier(2, use_actors=False)
    fr2.restore(fr.snapshot())
    assert fr2.total() == fr.total() == n
    pd.testing.assert_frame_equal(_staged_wave(fr, n, _open_gate())[0],
                                  _staged_wave(fr2, n, _open_gate())[0])


def test_spill_staged_admission_identical():
    """The staged (pull) admission makes identical decisions with a spilling
    frontier under a binding budget."""
    df = _mini_df(400, hosts=2)
    gate_a = PolitenessGate(rate_per_second=10.0, burst=50, ticks_per_second=10)
    gate_b = PolitenessGate(rate_per_second=10.0, burst=50, ticks_per_second=10)
    plain = ShardedFrontier(2, use_actors=False)
    spilly = ShardedFrontier(2, use_actors=False, spill_threshold=64)
    plain.push_pandas(df)
    spilly.push_pandas(df)
    for _ in range(4):
        wa, _ = _staged_wave(plain, 120, gate_a)
        wb, _ = _staged_wave(spilly, 120, gate_b)
        key = ["priority", "order_key"]
        pd.testing.assert_frame_equal(
            wa.sort_values(key).reset_index(drop=True),
            wb.sort_values(key).reset_index(drop=True))
        gate_a.advance(20)
        gate_b.advance(20)


# ---------------------------------------------------------------------------
# batch-path politeness (VERDICT r02 §6)
# ---------------------------------------------------------------------------

def test_batch_enforce_schedule_equals_scheduler(fixture_dir, frontier_df):
    """Under a binding per-host budget, run_crawl reports exactly the wait
    the scheduler executes (its grant-schedule replay runs the scheduler's
    round loop), and the budget never changes the reports."""
    # find a host carrying many frontier URLs, then throttle it hard
    cfg = CrawlConfig()
    host = frontier_df["host"].value_counts().index[0]
    overrides = {host: (60.0, 40)}  # 40-burst, 6/tick refill → binds, few rounds

    sched = scheduler.run_scheduled_crawl(
        fixture_dir, cfg, wave_size=10**6, concurrency=1,
        gate_overrides=overrides,
    )
    assert sched["counters"]["politeness_wait_ticks"] > 0  # budget truly binds

    batch = crawl.run_crawl(N, cfg, concurrency=1, gate_overrides=overrides)
    assert (batch["counters"]["politeness_wait_ticks"]
            == sched["counters"]["politeness_wait_ticks"])
    pd.testing.assert_frame_equal(batch["long"], sched["long"])
    pd.testing.assert_frame_equal(batch["wide"], sched["wide"])


def _track_frontiers(monkeypatch) -> list:
    """Every ShardedFrontier made from here to the test's end."""
    made = []
    real_init = ShardedFrontier.__init__

    def init(self, *a, **kw):
        real_init(self, *a, **kw)
        made.append(self)

    monkeypatch.setattr(ShardedFrontier, "__init__", init)
    return made


def _assert_actors_ended(frontiers) -> None:
    import ray

    for fr in frontiers:
        for shard in fr.shards:
            with pytest.raises(ray.exceptions.RayActorError):
                ray.get(shard.size.remote(), timeout=60)


def test_batch_enforce_rejects_zero_rate_host(fixture_dir, frontier_df,
                                             monkeypatch):
    """A zero-refill host that runs out raises, and the failed crawl still
    ends its range actors."""
    cfg = CrawlConfig()
    host = frontier_df["host"].value_counts().index[0]
    made = _track_frontiers(monkeypatch)
    with pytest.raises(ValueError, match="zero-refill"):
        crawl.run_crawl(N, cfg, concurrency=1,
                        gate_overrides={host: (0.0, 1)})
    assert len(made) == 1
    _assert_actors_ended(made)


def test_host_counts_sum_per_block_counts(ray_session):
    """run_crawl's host counts: per-block value counts summed on the driver
    equal one value_counts over the whole frame, with a host whose rows
    span blocks and an empty block among the three; an empty Dataset has
    no hosts."""
    import pyarrow as pa
    import ray.data as rd

    df = pd.DataFrame({"host": ["a", "b", "a", "c", "a", "b", "d"],
                       "order_key": np.arange(7, dtype=np.int64)})
    t = pa.Table.from_pandas(df, preserve_index=False)
    blocks = [t.slice(0, 3), t.slice(3, 0), t.slice(3)]  # "a", "b" span
    ds = rd.from_arrow(blocks)
    assert ds.num_blocks() == 3
    assert crawl._host_counts(ds) == df["host"].value_counts().to_dict()
    assert crawl._host_counts(rd.from_arrow(t.slice(0, 0))) == {}


# ---------------------------------------------------------------------------
# each crawl stage runs once per crawl
# ---------------------------------------------------------------------------

def test_run_crawl_fetches_each_admitted_url_once(fixture_dir, stage_rows):
    out = crawl.run_crawl(N)
    rows = stage_rows()
    assert rows["stage1"] == out["counters"]["frontier_rows"]
    assert rows["fetch_decode"] == out["counters"]["seen_admitted"] > 0


def test_crawls_end_their_range_actors(fixture_dir, monkeypatch):
    """Both crawl paths end their range actors when done with them: map
    tasks handed the shard handles can otherwise keep each crawl's actor
    processes alive after the crawl returns."""
    made = _track_frontiers(monkeypatch)
    crawl.run_crawl(N)
    scheduler.run_scheduled_crawl(fixture_dir)
    assert len(made) == 2
    _assert_actors_ended(made)


def test_scheduled_crawl_runs_stage1_once(fixture_dir, stage_rows):
    out = scheduler.run_scheduled_crawl(fixture_dir)
    rows = stage_rows()
    assert rows["stage1"] == out["counters"]["frontier_rows"] > 0
    assert rows["fetch_decode"] == out["counters"]["frontier_rows"]
