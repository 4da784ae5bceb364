"""Real-socket HTTP transport for the fetch/probe stages.

The reference crawler fetches over a shared ``requests.Session``
(cninfo_report_crawler.py:128-158 HEAD+GET validation,
report_info_collection.py:253 body GET). In this sandbox the default
transport is the corpus-backed :class:`~..sources.store.CorpusStore`; this
module provides the REAL-client implementation of the same interface over
persistent HTTP/1.1 connections, plus a loopback corpus server so the swap
seam is integration-tested against an actual socket (tests/
test_http_transport.py) — the seam VERDICT r03 listed as designed-but-
untested.

Transport selection is by scheme (:func:`open_store`): every stage actor
constructs its store via ``open_store(corpus_path)`` in ``__init__``, so
pointing ``CrawlConfig``/pipeline calls at ``http://host:port`` swaps the
engine onto real sockets with zero call-site changes — one persistent
connection per actor, exactly the reference's one-Session-per-worker shape.

Server semantics mirror the corpus store's (and the reference server's)
contract:
- content-type comes from the ``fmt`` COLUMN (server metadata — may lie;
  the GET magic sniff stays the authoritative gate, C:149-150),
- missing id or zero-byte payload → 404 (dead link),
- ``Range: bytes=0-N`` honored with 206 (the 1 KB magic-sniff prefix fetch,
  C:146-150),
- ``/robots.txt`` served from a configurable string (politeness intake).
"""

from __future__ import annotations

import http.client
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import numpy as np
import pyarrow as pa

#: what a failed request raises after its retry; fetch stages map it to
#: status 0 for that URL instead of failing the batch
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


def open_store(path_or_url: str):
    """Transport factory: ``http(s)://`` → :class:`HttpStore`, anything else
    → the columnar :class:`~.store.CorpusStore`. Stage actors call this in
    ``__init__`` so the transport is chosen once per actor, never per batch."""
    if str(path_or_url).startswith(("http://", "https://")):
        return HttpStore(path_or_url)
    from .store import CorpusStore

    return CorpusStore(path_or_url)


class HttpStore:
    """CorpusStore-compatible client over one persistent HTTP connection.

    Matches the CorpusStore surface consumed by the stages: ``head``,
    ``get``, ``get_prefix``, ``get_views``. URLs keep the frontier's
    canonical form (``https://static.example.test/<id>.<ext>``); only the
    path tail is sent to the configured endpoint, the way a crawler pins a
    hostname to a resolved frontend. One ``http.client.HTTPConnection`` per
    actor with keep-alive and a single reconnect retry — the stdlib analog
    of the reference's ``requests.Session`` (C:128, R:253)."""

    def __init__(self, base_url: str):
        u = urlsplit(base_url)
        if u.scheme != "http":
            raise ValueError(f"HttpStore supports http:// only, got {base_url!r}")
        self._host = u.hostname or "127.0.0.1"
        self._port = u.port or 80
        self._prefix = u.path.rstrip("/")
        self._conn: http.client.HTTPConnection | None = None

    # -- connection management -------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=30)
        return self._conn

    def _request(self, method: str, path: str,
                 headers: dict | None = None) -> tuple[int, dict, bytes]:
        """One request with a single stale-keep-alive retry: a server may
        close an idle persistent connection between batches; the retry
        reconnects once, any further failure propagates (fetch stages map
        transport exceptions to status 0 per row)."""
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, headers=headers or {})
                r = conn.getresponse()
                body = r.read()  # always drain so keep-alive stays usable
                return r.status, {k.lower(): v for k, v in r.getheaders()}, body
            except _TRANSPORT_ERRORS:
                self._conn = None
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def _path_of(self, url: str) -> str:
        tail = str(url).rsplit("/", 1)[-1]
        return f"{self._prefix}/{tail}"

    # -- CorpusStore surface ---------------------------------------------
    def head(self, urls: list[str]) -> pa.Table:
        """HEAD per URL → (url, status, content_type, content_length)."""
        status, ctype, clen = [], [], []
        for u in urls:
            try:
                s, h, _ = self._request("HEAD", self._path_of(u))
            except _TRANSPORT_ERRORS:
                s, h = 0, {}
            status.append(s)
            ctype.append(h.get("content-type", "") if s == 200 else "")
            clen.append(int(h.get("content-length", 0)) if s == 200 else 0)
        return pa.table({
            "url": pa.array([str(u) for u in urls], pa.string()),
            "status": pa.array(status, pa.int32()),
            "content_type": pa.array(ctype, pa.string()),
            "content_length": pa.array(clen, pa.int64()),
        })

    def get_prefix(self, urls: list[str], n: int = 1024) -> list[bytes]:
        """Ranged GET of the first ``n`` bytes (the C:146-150 magic sniff
        issues exactly this instead of a full-body fetch)."""
        out = []
        for u in urls:
            try:
                s, _, body = self._request(
                    "GET", self._path_of(u),
                    headers={"Range": f"bytes=0-{n - 1}"})
            except _TRANSPORT_ERRORS:
                s, body = 0, b""
            out.append(body[:n] if s in (200, 206) else b"")
        return out

    def get(self, urls: list[str]) -> pa.Table:
        """Full-body GET per URL → (url, status, content_type, bytes)."""
        status, ctype, blobs = self._get_raw(urls)
        return pa.table({
            "url": pa.array([str(u) for u in urls], pa.string()),
            "status": pa.array(status, pa.int32()),
            "content_type": pa.array(ctype, pa.string()),
            "bytes": pa.array(blobs, pa.large_binary()),
        })

    def get_views(self, urls: list[str]):
        """Fused fetch+decode entry point. Over a socket the body arrives as
        a fresh ``bytes`` object — that IS the zero-copy form for this
        transport (the decoder parses buffers in place either way); the
        keepalive slot is None because nothing backs the views."""
        status, ctype, blobs = self._get_raw(urls)
        return np.asarray(status, dtype=np.int32), ctype, blobs, None

    def _get_raw(self, urls: list[str]):
        status, ctype, blobs = [], [], []
        for u in urls:
            try:
                s, h, body = self._request("GET", self._path_of(u))
            except _TRANSPORT_ERRORS:
                s, h, body = 0, {}, b""
            ok = s == 200 and len(body) > 0
            status.append(s if s else 0)
            ctype.append(h.get("content-type", "") if ok else "")
            blobs.append(body if ok else b"")
        return status, ctype, blobs

    def get_text(self, path: str) -> tuple[int, str]:
        """Small-document GET by absolute path (robots.txt intake)."""
        s, _, body = self._request("GET", path)
        return s, body.decode("utf-8", "replace")


class CorpusHTTPServer:
    """Loopback HTTP server over a corpus parquet — the integration-test /
    local-bench stand-in for the remote origin. Serves the corpus through a
    CorpusStore so every response carries the SAME semantics the columnar
    transport exposes (fmt-column content-type lies included); the client
    path under test is therefore exercised end-to-end against real sockets
    with byte-for-byte comparable results."""

    def __init__(self, corpus_path: str, robots_txt: str | None = None,
                 host: str = "127.0.0.1"):
        from .store import CorpusStore

        store = CorpusStore(corpus_path)
        # one server thread per client connection shares this store; its
        # row-group LRU is not thread-safe, so lookups serialize here (the
        # loopback server is a test/bench stand-in, not a perf surface)
        store_lock = threading.Lock()
        robots = robots_txt if robots_txt is not None else "User-agent: *\nAllow: /\n"

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *a):  # quiet
                pass

            def _lookup(self):
                # resolve through the store's own URL mapping so the
                # fmt-column content-type (and its planted lies) propagate
                with store_lock:
                    t = store.get([self.path])
                status = t["status"][0].as_py()
                ctype = t["content_type"][0].as_py()
                body = t["bytes"][0].as_py()
                return status, ctype, body

            def do_HEAD(self):
                if self.path == "/robots.txt":
                    self._send(200, "text/plain", robots.encode(), head=True)
                    return
                status, ctype, body = self._lookup()
                self._send(status, ctype, body, head=True)

            def do_GET(self):
                if self.path == "/robots.txt":
                    self._send(200, "text/plain", robots.encode())
                    return
                status, ctype, body = self._lookup()
                rng = self.headers.get("Range")
                if status == 200 and rng and rng.startswith("bytes="):
                    lo, _, hi = rng[len("bytes="):].partition("-")
                    if lo:
                        start = int(lo)
                        end = min(int(hi) if hi else len(body) - 1, len(body) - 1)
                    else:  # suffix range: the last N bytes
                        start, end = max(len(body) - int(hi), 0), len(body) - 1
                    if start >= len(body):
                        self.send_response(416)
                        self.send_header("Content-Range", f"bytes */{len(body)}")
                        self.send_header("Content-Length", "0")
                        self.end_headers()
                        return
                    part = body[start:end + 1]
                    self.send_response(206)
                    self.send_header("Content-Type", ctype)
                    self.send_header("Content-Range",
                                     f"bytes {start}-{end}/{len(body)}")
                    self.send_header("Content-Length", str(len(part)))
                    self.end_headers()
                    self.wfile.write(part)
                    return
                self._send(status, ctype, body)

            def _send(self, status, ctype, body, head=False):
                self.send_response(status if status else 404)
                if ctype:
                    self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                if not head:
                    self.wfile.write(body)

        self._httpd = ThreadingHTTPServer((host, 0), Handler)
        self._httpd.daemon_threads = True
        self.base_url = f"http://{host}:{self._httpd.server_address[1]}"
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True)

    def __enter__(self) -> "CorpusHTTPServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)
