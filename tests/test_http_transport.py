"""Real-socket transport conformance: the HttpStore client + loopback corpus
server must be byte-for-byte interchangeable with the columnar CorpusStore
across every stage that fetches payloads (the swap seam VERDICT r03 listed
as designed-but-untested — reference analog: requests.Session at
cninfo_report_crawler.py:128-158, report_info_collection.py:253).

The loopback server serves the SAME corpus parquet through a CorpusStore, so
fmt-column content-type lies, zero-byte dead links and missing ids keep their
reference semantics; the client under test talks to it over an actual TCP
socket with keep-alive, ranged prefix GETs and per-actor connections."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from cninfo_crawler_ray.config import CrawlConfig
from cninfo_crawler_ray.pipelines import stage1, stage2
from cninfo_crawler_ray.sources import corpus as C
from cninfo_crawler_ray.sources.http_store import (CorpusHTTPServer, HttpStore,
                                                   open_store)
from cninfo_crawler_ray.sources.store import CorpusStore

N = 300


@pytest.fixture(scope="module")
def fixture_dir(ray_session):
    return C.ensure_fixtures(N, n_days=3, use_ray=False)


@pytest.fixture(scope="module")
def corpus_path(fixture_dir):
    return f"{fixture_dir}/corpus.parquet"


@pytest.fixture(scope="module")
def server(corpus_path):
    with CorpusHTTPServer(corpus_path) as srv:
        yield srv


@pytest.fixture(scope="module")
def urls(corpus_path):
    t = pq.read_table(corpus_path, columns=["image_id", "fmt"])
    us = [f"https://static.example.test/{i}.{f}"
          for i, f in zip(t["image_id"].to_pylist(), t["fmt"].to_pylist())]
    # sample across the corpus + two guaranteed-missing ids
    return us[::7] + ["https://static.example.test/img_zz404.raw",
                      "https://static.example.test/nope.ppm"]


def test_open_store_scheme_dispatch(corpus_path, server):
    assert isinstance(open_store(corpus_path), CorpusStore)
    assert isinstance(open_store(server.base_url), HttpStore)


def test_head_matches_corpus(corpus_path, server, urls):
    want = CorpusStore(corpus_path).head(urls).to_pandas()
    got = HttpStore(server.base_url).head(urls).to_pandas()
    pd.testing.assert_frame_equal(got, want)


def test_get_matches_corpus_byte_identical(corpus_path, server, urls):
    want = CorpusStore(corpus_path).get(urls).to_pandas()
    got = HttpStore(server.base_url).get(urls).to_pandas()
    pd.testing.assert_frame_equal(got, want)


def test_get_prefix_ranged(corpus_path, server, urls):
    want = CorpusStore(corpus_path).get_prefix(urls, n=1024)
    got = HttpStore(server.base_url).get_prefix(urls, n=1024)
    assert got == want
    assert all(len(b) <= 1024 for b in got)
    assert any(0 < len(b) for b in got)

    # raw requests: a suffix range is the body's last N bytes, and a start
    # past the end is 416 with the unsatisfied-range Content-Range
    import http.client
    from urllib.parse import urlsplit

    blobs = CorpusStore(corpus_path).get(urls)["bytes"].to_pylist()
    i = next(i for i, b in enumerate(blobs) if len(b) > 16)
    body, path = blobs[i], "/" + urls[i].rsplit("/", 1)[-1]
    u = urlsplit(server.base_url)
    conn = http.client.HTTPConnection(u.hostname, u.port, timeout=30)
    try:
        conn.request("GET", path, headers={"Range": "bytes=-16"})
        r = conn.getresponse()
        assert (r.status, r.read()) == (206, body[-16:])
        assert r.getheader("Content-Range") == (
            f"bytes {len(body) - 16}-{len(body) - 1}/{len(body)}")
        conn.request("GET", path, headers={"Range": f"bytes={len(body)}-"})
        r = conn.getresponse()
        assert (r.status, r.read()) == (416, b"")
        assert r.getheader("Content-Range") == f"bytes */{len(body)}"
    finally:
        conn.close()


def test_get_views_parity(corpus_path, server, urls):
    cs, cc, cv, _keep = CorpusStore(corpus_path).get_views(urls)
    hs, hc, hv, keep = HttpStore(server.base_url).get_views(urls)
    assert keep is None
    assert np.array_equal(np.asarray(cs), np.asarray(hs))
    assert list(cc) == list(hc)
    assert [bytes(v) for v in cv] == [bytes(v) for v in hv]


def test_robots_served(server):
    status, text = HttpStore(server.base_url).get_text("/robots.txt")
    assert status == 200 and "User-agent" in text


def test_robots_disallow_roundtrip(corpus_path):
    """A served robots.txt parses into the engine's politeness gate with the
    same effect as an inline string (S2 intake over a real socket)."""
    from cninfo_crawler_ray.state.politeness import PolitenessGate

    robots = "User-agent: *\nDisallow: /img_000000\nCrawl-delay: 2\n"
    with CorpusHTTPServer(corpus_path, robots_txt=robots) as srv:
        status, text = HttpStore(srv.base_url).get_text("/robots.txt")
    assert status == 200
    gate = PolitenessGate(rate_per_second=100.0)
    gate.load_robots_txt("static.example.test", text)
    assert gate.allowed("static.example.test",
                        ["/img_00000001.raw", "/other/path.raw"]) == [False, True]


def test_fetch_decode_over_http_byte_identical(ray_session, fixture_dir,
                                               corpus_path, server):
    """E2E: the fused fetch+decode actor pool pointed at the loopback origin
    (real sockets, one persistent connection per actor) produces the exact
    table the columnar transport produces — the full transport-swap contract
    on the flagship path."""
    frontier = stage1.build_frontier(fixture_dir).materialize()
    cfg = CrawlConfig(fetch_actors=(2, 2))

    def run(path):
        ds = stage2.fetch_decode(frontier, path, cfg)
        df = ds.to_pandas()
        return df.sort_values("order_key").reset_index(drop=True)

    want = run(corpus_path)
    got = run(server.base_url)
    assert len(want) > 50
    pd.testing.assert_frame_equal(got, want)


def test_scheduled_crawl_over_http_byte_identical(ray_session, fixture_dir,
                                                  corpus_path, server):
    """The PRODUCTION path over real sockets: the round-based scheduled
    crawl (priority frontier shards, politeness gate, seen-set admission)
    with its fetch transport pointed at the loopback origin must produce
    byte-identical long/wide outputs and identical counters vs the
    columnar transport."""
    from cninfo_crawler_ray.pipelines.scheduler import run_scheduled_crawl

    def run(path):
        out = run_scheduled_crawl(fixture_dir, wave_size=256,
                                  corpus_path=path)
        long = out["long"].reset_index(drop=True)
        wide = out["wide"].reset_index(drop=True)
        return long, wide, out["counters"]

    l_ref, w_ref, c_ref = run(corpus_path)
    l_http, w_http, c_http = run(server.base_url)
    assert len(l_ref) > 30
    pd.testing.assert_frame_equal(l_http, l_ref)
    pd.testing.assert_frame_equal(w_http, w_ref)
    assert c_http == c_ref


#: responses that make ``http.client`` raise an ``HTTPException`` rather
#: than an ``OSError``: a malformed status line (``BadStatusLine``) and a
#: body cut short of its Content-Length (``IncompleteRead``)
FAULTS = {
    "bad_status": b"HTTP/1.1 two-hundred OK\r\n\r\n",
    "truncated": b"HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\nshort",
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_protocol_error_maps_to_status_zero(corpus_path, urls, fault):
    """A URL whose response breaks the HTTP protocol on every attempt comes
    back as status 0 with no body; the URLs around it, fetched over the
    reconnected client, match the columnar store exactly."""
    bad = 3
    bad_path = "/" + urls[bad].rsplit("/", 1)[-1]
    with CorpusHTTPServer(corpus_path) as srv:
        handler = srv._httpd.RequestHandlerClass

        class Faulty(handler):
            def _fault(self):
                self.wfile.write(FAULTS[fault])
                self.close_connection = True

            def do_GET(self):
                if self.path == bad_path:
                    self._fault()
                else:
                    super().do_GET()

            def do_HEAD(self):
                if self.path == bad_path:
                    self._fault()
                else:
                    super().do_HEAD()

        srv._httpd.RequestHandlerClass = Faulty
        client = HttpStore(srv.base_url)
        got = client.get(urls).to_pandas()
        got_prefix = client.get_prefix(urls, n=1024)
        got_head = client.head(urls).to_pandas()

    corpus = CorpusStore(corpus_path)
    want = corpus.get(urls).to_pandas()
    want.loc[bad, ["status", "content_type", "bytes"]] = [0, "", b""]
    pd.testing.assert_frame_equal(got, want)
    want_prefix = corpus.get_prefix(urls, n=1024)
    want_prefix[bad] = b""
    assert got_prefix == want_prefix
    if fault == "bad_status":  # a HEAD response has no body to cut short
        want_head = corpus.head(urls).to_pandas()
        want_head.loc[bad, ["status", "content_type", "content_length"]] = [0, "", 0]
        pd.testing.assert_frame_equal(got_head, want_head)
