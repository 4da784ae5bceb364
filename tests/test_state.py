"""Standalone unit tests for the stateful components (SURVEY.md §7.5):
cuckoo-fronted seen shards, politeness token bucket, corpus store."""

import hashlib

import pytest

from cninfo_crawler_ray.state.politeness import PolitenessGate
from cninfo_crawler_ray.state.seen import CuckooFilter, SeenShard


def _keys(n, prefix="k"):
    return [hashlib.sha1(f"{prefix}{i}".encode()).digest() for i in range(n)]


def test_cuckoo_no_false_negatives():
    cf = CuckooFilter(1 << 12)
    keys = _keys(2000)
    for k in keys:
        cf.add(k)
    assert all(cf.may_contain(k) for k in keys)  # cuckoo never false-negatives
    fresh = _keys(2000, "other")
    fp = sum(cf.may_contain(k) for k in fresh)
    assert fp < 400  # false positives bounded (exact set absorbs them anyway)


def test_seen_shard_exactness():
    sh = SeenShard(0, 1 << 10)
    keys = _keys(5000)
    out1 = sh.contains_and_add(keys)
    assert all(out1)
    out2 = sh.contains_and_add(keys)
    assert not any(out2)
    assert sh.size() == 5000
    # permutation invariance of the final set (SURVEY.md §5.3)
    sh2 = SeenShard(0, 1 << 10)
    import random

    perm = keys[:]
    random.Random(7).shuffle(perm)
    sh2.contains_and_add(perm)
    assert sh2.exact == sh.exact


def test_seen_shard_snapshot_roundtrip():
    sh = SeenShard(3, 1 << 8)
    keys = _keys(300)
    sh.contains_and_add(keys)
    blob = sh.snapshot()
    sh2 = SeenShard()
    sh2.restore(blob)
    assert sh2.shard_id == 3
    assert sh2.size() == 300
    assert not any(sh2.contains_and_add(keys))


def test_politeness_grants_are_deterministic():
    g = PolitenessGate(rate_per_second=10, burst=5, ticks_per_second=10)
    # burst drains first
    assert g.acquire("h", 3) == 3
    assert g.acquire("h", 5) == 2
    assert g.acquire("h", 1) == 0
    # refill: 1 token/tick at rate 10/s with 10 ticks/s
    g.advance(3)
    assert g.acquire("h", 5) == 3
    # independent hosts
    assert g.acquire("other", 2) == 2
    # replaying the same sequence gives the same grants (pure of wall-clock)
    g2 = PolitenessGate(rate_per_second=10, burst=5, ticks_per_second=10)
    seq = [g2.acquire("h", 3), g2.acquire("h", 5), g2.acquire("h", 1)]
    g2.advance(3)
    seq.append(g2.acquire("h", 5))
    assert seq == [3, 2, 0, 3]


def test_politeness_reference_budget():
    # the reference listing budget: 1 page / 0.3 s (cninfo_report_crawler.py:331)
    g = PolitenessGate(ticks_per_second=10)
    g.set_host_rate("listing.example.test", rate_per_second=1 / 0.3, burst=1)
    assert g.acquire("listing.example.test", 1) == 1
    assert g.acquire("listing.example.test", 1) == 0
    assert g.wait_ticks_for("listing.example.test", 1) == 3  # 0.3 s
    g.advance(3)
    assert g.acquire("listing.example.test", 1) == 1


def test_robots():
    g = PolitenessGate()
    g.set_robots("h", ["/private/", "/tmp"])
    assert g.allowed("h", ["/a", "/private/x", "/tmpfile"]) == [True, False, False]
    assert g.allowed("unknown", ["/x"]) == [True]


def test_corpus_store_head_get(tmp_path):
    import pyarrow.parquet as pq

    from cninfo_crawler_ray.sources import corpus as C
    from cninfo_crawler_ray.sources.store import CorpusStore

    t = C.corpus_rows(0, 400, 400)
    pq.write_table(t, str(tmp_path / "corpus.parquet"), row_group_size=64)
    store = CorpusStore(str(tmp_path / "corpus.parquet"))
    urls = [C.url_for(f"img_{i:08d}", C.image_fmt(f"img_{i:08d}")) for i in (0, 5, 101, 399)]
    urls.append("https://img0.example.test/img_99999999.raw")  # missing → 404
    h = store.head(urls)
    assert h["status"].to_pylist()[:2] == [200, 200]
    assert h["status"].to_pylist()[4] == 404
    # zero-byte adversarial row (i=101) must 404 like a dead link
    assert h["status"].to_pylist()[2] == 404
    g = store.get(urls)
    assert g["status"].to_pylist() == h["status"].to_pylist()
    blob = g["bytes"].to_pylist()[0]
    assert len(blob) > 0
    from cninfo_crawler_ray.functions import codecs

    px, fmt, meta = codecs.decode_image(blob)
    assert meta["caption"] == t["caption"][0].as_py()


def _frontier_frame(keys, order=0):
    import pandas as pd

    return pd.DataFrame({"priority": 1.0,
                         "order_key": range(order, order + len(keys)),
                         "url_sha1": [k.hex() for k in keys]})


def _range_of(keys, s, n):
    # each key sits in the hash range of its leading big-endian u32
    # (checkpoint partitions: snapshots and resume depend on it)
    width = (1 << 32) // n + 1
    return {k for k in keys if int.from_bytes(k[:4], "big") // width == s}


def test_range_actors_hold_seen_set_and_heap(ray_session):
    """One state actor per hash range: batch admission and the heap push
    reach the same FrontierShard actors, and each range's snapshot holds
    only its own range's seen keys and heap rows."""
    from cninfo_crawler_ray.state.frontier import (FrontierShard,
                                                   ShardedFrontier, admit)

    keys = _keys(1000)
    raw = b"".join(keys)
    fr = ShardedFrontier(4)
    assert admit(fr.shards, raw).all()
    assert not admit(fr.shards, raw).any()
    assert fr.seen_total() == 1000 and fr.total() == 0
    more = _keys(500, "more")
    assert fr.push_pandas(_frontier_frame(more)) == 500
    assert fr.seen_total() == 1500 and fr.total() == 500
    snap = fr.snapshot()
    assert len(snap) == 4
    for s, blob in enumerate(snap):
        sh = FrontierShard()
        sh.restore(blob)
        assert sh.seen.exact == _range_of(keys + more, s, 4)
        assert {bytes.fromhex(e[3][2]) for e in sh.heap} == _range_of(more, s, 4)
    fr2 = ShardedFrontier(4)
    fr2.restore(snap)
    assert not admit(fr2.shards, raw).any()
    assert fr2.seen_total() == 1500 and fr2.total() == 500


def test_push_admits_each_url_once():
    """push_pandas goes through the range's seen set: a frame pushed twice
    admits nothing the second time, a repeated url_sha1 keeps its first
    row, and a restored range still rejects the keys it had seen."""
    from cninfo_crawler_ray.state.frontier import ShardedFrontier

    fr = ShardedFrontier(2, use_actors=False)
    df = _frontier_frame(_keys(40))
    assert fr.push_pandas(df) == 40
    assert fr.push_pandas(df) == 0 and fr.total() == 40
    k = _keys(1, "dup")
    assert fr.push_pandas(_frontier_frame(k + k, order=100)) == 1
    heap = [e for sh in fr.shards for e in sh.heap if e[3][2] == k[0].hex()]
    assert [e[1] for e in heap] == [100]  # the first row's order_key
    fr2 = ShardedFrontier(2, use_actors=False)
    fr2.restore(fr.snapshot())
    assert fr2.push_pandas(df) == 0 and fr2.total() == 41


def test_robots_txt_parser_groups_and_delay():
    """load_robots_txt: the exact-agent group beats '*', comments and blank
    lines are ignored, a new User-agent line after a group body starts a new
    group, and Crawl-delay rebinds the host's token rate (1/delay, burst 1)."""
    g = PolitenessGate(rate_per_second=100.0, burst=100, ticks_per_second=10)
    g.load_robots_txt("h.x", """
# comment
User-agent: othercrawler
Disallow: /private/

User-agent: cninfo-crawler
Disallow: /img_
Disallow: /tmp/
Crawl-delay: 2

User-agent: *
Disallow: /
""")
    assert g.robots["h.x"] == ["/img_", "/tmp/"]
    assert g.allowed("h.x", ["/img_1.raw", "/ok/x", "/tmp/y"]) == [False, True, False]
    # crawl-delay 2s @ 10 ticks/s → 0.05 tokens/tick, burst 1
    assert g.acquire("h.x", 5) == 1
    assert g.acquire("h.x", 1) == 0
    assert g.wait_ticks_for("h.x", 1) == 20  # exactly 2 s of virtual time

    # '*' fallback when no specific group matches
    g2 = PolitenessGate()
    g2.load_robots_txt("h.x", "User-agent: *\nDisallow: /all/\n")
    assert g2.robots["h.x"] == ["/all/"]
    # empty Disallow in the winning group = allow everything
    g3 = PolitenessGate()
    g3.load_robots_txt("h.x", "User-agent: cninfo-crawler\nDisallow:\n\nUser-agent: *\nDisallow: /\n")
    assert g3.robots["h.x"] == []
    # no matching group at all
    g4 = PolitenessGate()
    g4.load_robots_txt("h.x", "User-agent: somebot\nDisallow: /\n")
    assert g4.robots["h.x"] == []
