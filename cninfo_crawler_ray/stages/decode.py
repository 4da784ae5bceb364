"""Decode + validate + extract actor-pool stage (T5 analog).

Reference: pdfplumber opens each PDF in memory and walks pages/tables
(report_info_collection.py:151-198). Here the Decoder decodes the image
container, enforces the content gates, and runs the table-extraction kernels
over the embedded pages — one actor pool, one pass over the payload.

Gates (per-row, explicit columns instead of dropped rows):
- ``fetch_ok``   — status 200, non-empty body (R:253-255, :271-273)
- ``type_ok``    — sniffed magic matches the URL extension (the %PDF magic /
                   content-type gate, C:149-150, R:257-259)
- ``caption``    — decoded caption (exact-equality invariant vs corpus)
- ``phash64``    — recomputed perceptual hash of decoded pixels
- extraction     — items JSON + has_data_resource flag (M10-M12)

The pixel PSNR invariant is asserted in tests (it needs the pre-encode
reference pixels, regenerated from the seeded PRNG).
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

from ..functions import codecs
from ..functions.tables import extract_items_from_pages
from ..sources.store import ext_of_url


class FetchDecode:
    """Fused fetch+decode actor stage — the default execution path.

    Payload bytes are the pipeline's dominant data volume (~90 KB/row at
    web image sizes vs ~200 B of metadata). Running fetch and decode as
    separate map_batches stages ships every payload through the object
    store between them; at 32 CPUs that was measured as 354 CPU-s of kernel
    time (mmap/page-fault/memcpy) per 198 CPU-s of useful compute, capping
    throughput identically at every cluster size. Fused, bytes live only
    inside the actor for the microseconds between GET and decode — exactly
    how a real crawler's fetch worker hands its response body to the parser
    in-process (report_info_collection.py:250-296 does fetch→parse in one
    function for the same reason)."""

    def __init__(self, corpus_path: str, fault_inject_path: str | None = None):
        from ..sources.http_store import open_store

        self.store = open_store(corpus_path)
        self._decode = Decoder()
        self._fault_path = fault_inject_path

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._fault_path is not None:
            import os as _os

            if _os.path.exists(self._fault_path):
                raise RuntimeError(
                    "fault-injection: fetch worker failing mid-stream "
                    f"(marker {self._fault_path} present)")
        # zero-copy fused path: payloads are memoryview slices into the
        # store's row-group read buffers — never copied into an Arrow
        # column or Python bytes between GET and decode (``keep`` pins the
        # backing table for the duration of the batch)
        status, ctype, views, keep = self.store.get_views(
            batch["PDF链接"].to_pylist())
        fetched = (
            batch.append_column("status", pa.array(status, pa.int32()))
            .append_column("content_type", pa.array(ctype, pa.string()))
        )
        out = self._decode.decode_views(fetched, status, views)
        del views, keep
        return out


class Decoder:
    def decode_views(self, batch: pa.Table, statuses, blobs) -> pa.Table:
        """Decode per-row payload buffers (memoryviews or bytes); ``batch``
        provides the metadata columns and may or may not carry a ``bytes``
        column (dropped from the output either way)."""
        urls = batch["PDF链接"].to_pylist()
        exts = ext_of_url(urls)
        n = len(urls)
        fetch_ok = np.zeros(n, dtype=bool)
        type_ok = np.zeros(n, dtype=bool)
        captions: list[str | None] = [None] * n
        phashes = np.zeros(n, dtype=np.int64)
        widths = np.zeros(n, dtype=np.int32)
        heights = np.zeros(n, dtype=np.int32)
        items_json: list[str | None] = [None] * n
        has_flag = np.zeros(n, dtype=np.int8)
        for i in range(n):
            blob = blobs[i]
            if statuses[i] != 200 or not blob:
                continue
            fetch_ok[i] = True
            try:
                px, fmt, meta = codecs.decode_image(blob)
            except Exception:
                continue
            if fmt != exts[i]:
                continue  # content-type gate → row contributes nothing (R:257-259)
            type_ok[i] = True
            captions[i] = meta.get("caption")
            heights[i], widths[i] = px.shape[0], px.shape[1]
            phashes[i] = codecs.phash64(px)
            items, flag = extract_items_from_pages(meta.get("pages") or [])
            items_json[i] = json.dumps(items, ensure_ascii=False)
            has_flag[i] = 1 if flag else 0
        drop = [c for c in ("bytes", "_fetch_key") if c in batch.column_names]
        out = batch.drop_columns(drop)  # payload consumed; keep blocks light
        out = out.append_column("fetch_ok", pa.array(fetch_ok))
        out = out.append_column("type_ok", pa.array(type_ok))
        out = out.append_column("caption", pa.array(captions, pa.string()))
        out = out.append_column("decoded_w", pa.array(widths, pa.int32()))
        out = out.append_column("decoded_h", pa.array(heights, pa.int32()))
        out = out.append_column("phash64", pa.array(phashes, pa.int64()))
        out = out.append_column("items_json", pa.array(items_json, pa.string()))
        out = out.append_column("_has_data_resource", pa.array(has_flag, pa.int8()))
        # strip any inherited pandas metadata: pyarrow-16 schemas with
        # metadata are unhashable and defeat Ray's block-schema dedup
        return out.replace_schema_metadata(None)
