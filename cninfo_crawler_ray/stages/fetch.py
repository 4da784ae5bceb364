"""Probe (HEAD-analog) actor-pool stage (S2); the GET side is the fused
stages/decode.FetchDecode.

Reference: validate_pdf_access does HEAD-then-GET-fallback with a shared
requests.Session across 10 threads (cninfo_report_crawler.py:128-158, :479);
the collector GETs full bodies on 5 threads (report_info_collection.py:253).
Here each stage is a callable class for ``map_batches(..., concurrency=N)``:
one CorpusStore (the HTTP-client stand-in) per actor, opened once in
__init__; batches flow zero-copy Arrow in/out. Instead of dropping failed
rows (the reference swallows exceptions, C:492-493), rows carry explicit
``status`` columns so reruns are deterministic.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..sources.http_store import open_store
from ..sources.store import ext_of_url


class Prober:
    """HEAD probe: appends (status, content_type, content_length, head_ok).

    head_ok mirrors the reference's acceptance rule: status 200 AND
    content-type matches the expected type for the URL
    (cninfo_report_crawler.py:133-135 'application/pdf' in Content-Type —
    here image/<ext>).

    ``sniff_magic`` adds the reference's GET-fallback (C:146-150: on an
    unusable HEAD, GET the first 1024 bytes and accept iff the %PDF magic
    matches): rows whose HEAD metadata contradicts the URL extension get a
    1 KB prefix fetch and are accepted iff the sniffed container magic
    matches the extension — so a server whose HEAD lies NEGATIVELY about a
    valid body no longer costs the row. Off by default: the HEAD-trust rule
    is the reference's primary path and the conformance-oracle default."""

    def __init__(self, corpus_path: str, sniff_magic: bool = False):
        self.store = open_store(corpus_path)
        self.sniff_magic = sniff_magic

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["PDF链接"].to_pylist()
        h = self.store.head(urls)
        exts = ext_of_url(urls)
        expected = pa.array(["image/" + e for e in exts], pa.string())
        ok = pc.and_(pc.equal(h["status"], 200), pc.equal(h["content_type"], expected))
        if self.sniff_magic:
            status = h["status"].to_pylist()
            okl = ok.to_pylist()
            # ambiguous = reachable but metadata contradicts the URL ext
            amb = [i for i in range(len(urls)) if status[i] == 200 and not okl[i]]
            if amb:
                from ..functions.codecs import sniff_fmt

                prefixes = self.store.get_prefix([urls[i] for i in amb])
                for i, blob in zip(amb, prefixes):
                    okl[i] = bool(blob) and sniff_fmt(blob) == exts[i]
                ok = pa.array(okl, pa.bool_())
        return (
            batch.append_column("status", h["status"])
            .append_column("content_type", h["content_type"])
            .append_column("content_length", h["content_length"])
            .append_column("head_ok", ok)
        )

