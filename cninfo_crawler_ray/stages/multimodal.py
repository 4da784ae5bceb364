"""Multimodal actor-pool stages: the fused fetch+decode+featurize stage
every image operator runs (pipelines/images.py), video frame-sampling and
audio features (the large-scale training-data-pipeline extension set —
SURVEY.md §2 extensions).

Video and audio stages treat their media as opaque ``binary`` columns with
typed metadata, exactly how a 100 TB multimodal table stores them. Real codec
libraries (Pillow/PyAV/soundfile) are absent from this sandbox, so:

- images use the repo's deterministic containers (functions/codecs.py);
- video uses a self-describing synthetic container ``VID0`` — u32 fps ×1000,
  u32 n_frames, then each frame as a length-prefixed image container — so
  frame-sampling, per-frame decode and per-frame features are REAL code
  paths over a fake format;
- audio uses ``AUD0`` — u32 sample_rate, u32 n_samples, PCM16LE — so the
  feature kernels (RMS, zero-crossing rate, duration) are real vectorized
  numpy over a fake format.

``decode_video`` / ``decode_audio`` dispatch on magic: an unrecognized
payload raises ``NotImplementedError`` pointing at the import-gated
real-codec hook — swapping a real library in changes only these two
functions; every Ray-side contract (schema, batch size, actor signature,
output layout) stays as tested here.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from ..functions import codecs

MAGIC_VID = b"VID0"
MAGIC_AUD = b"AUD0"


# --- synthetic containers ----------------------------------------------------

def encode_video(frames: list[np.ndarray], fps: float = 10.0,
                 frame_fmt: str = "qlossy") -> bytes:
    """``VID0`` container: fps (milli-fps u32), n_frames u32, then each frame
    length-prefixed in an image container format."""
    out = [MAGIC_VID, struct.pack("<II", int(round(fps * 1000)), len(frames))]
    for f in frames:
        blob = codecs.encode_image(f, frame_fmt)
        out.append(struct.pack("<I", len(blob)))
        out.append(blob)
    return b"".join(out)


def decode_video(data: bytes, frame_indices: list[int] | None = None
                 ) -> tuple[list[np.ndarray], float, int]:
    """→ (decoded frames — all, or only ``frame_indices``; fps; n_frames).

    Seeks by length prefix, so sampling k of n frames decodes exactly k
    frame bodies (the property a real demuxer gives you via keyframes)."""
    if (data[:4] if isinstance(data, bytes) else bytes(data[:4])) != MAGIC_VID:
        # real-codec hook: `import av` here when the wheel exists
        raise NotImplementedError(
            "unrecognized video container; plug a real demuxer (e.g. PyAV) "
            "into decode_video for non-VID0 payloads")
    mfps, n_frames = struct.unpack_from("<II", data, 4)
    want = set(range(n_frames)) if frame_indices is None else set(frame_indices)
    frames: dict[int, np.ndarray] = {}
    off = 12
    for i in range(n_frames):
        (ln,) = struct.unpack_from("<I", data, off)
        off += 4
        if i in want:
            frames[i] = codecs.decode_image(data[off:off + ln])[0]
        off += ln
    return [frames[i] for i in sorted(frames)], mfps / 1000.0, n_frames


def encode_audio(samples: np.ndarray, sample_rate: int = 16_000) -> bytes:
    """``AUD0`` container: sample_rate u32, n_samples u32, PCM16LE mono."""
    pcm = np.asarray(samples, dtype="<i2")
    return (MAGIC_AUD + struct.pack("<II", sample_rate, len(pcm)) + pcm.tobytes())


def decode_audio(data: bytes) -> tuple[np.ndarray, int]:
    """→ (int16 sample array, sample_rate)."""
    if (data[:4] if isinstance(data, bytes) else bytes(data[:4])) != MAGIC_AUD:
        # real-codec hook: `import soundfile` here when the wheel exists
        raise NotImplementedError(
            "unrecognized audio container; plug a real decoder (e.g. "
            "soundfile) into decode_audio for non-AUD0 payloads")
    rate, n = struct.unpack_from("<II", data, 4)
    return np.frombuffer(data, dtype="<i2", count=n, offset=12), rate


# --- actor-pool stages --------------------------------------------------------

class FetchFeaturizer:
    """Fused fetch + decode + featurize stage: one actor holds the
    CorpusStore, GETs its batch's payloads, decodes each image and applies a
    per-image feature kernel — payload bytes live only inside the actor for
    the microseconds between GET and featurize, exactly the
    stages/decode.FetchDecode fusion (separate fetch→feature stages were
    measured shipping ~90 KB/row through the object store for ~200 B of
    features out — VERDICT r02 §4).

    ``features_fn(image_id, pixels) -> list[dict]`` emits zero or more output
    rows per decoded image; ``schema`` fixes the output block schema so empty
    batches stay typed (no schema-less RefBundles)."""

    def __init__(self, corpus_path: str, features_fn, schema: pa.Schema):
        from ..sources.http_store import open_store

        self.store = open_store(corpus_path)
        self.features_fn = features_fn
        self.schema = schema

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["PDF链接"].to_pylist()
        # zero-copy GET: payloads are views into the store's read buffers
        statuses, _, views, keep = self.store.get_views(urls)
        rows: list[dict] = []
        for url, status, blob in zip(urls, statuses, views):
            if status != 200 or not blob:
                continue
            try:
                px, _, _ = codecs.decode_image(blob)
            except (ValueError, NotImplementedError):
                continue
            iid = url.rsplit("/", 1)[-1].rsplit(".", 1)[0]
            rows.extend(self.features_fn(iid, px))
        return pa.Table.from_pylist(rows, schema=self.schema)


class FrameSampler:
    """Sample every k-th frame (plus the last) of each video payload and emit
    one row per sampled frame with its phash — the shape a video dedup /
    caption pipeline consumes. Stateful (per-actor stride config), batch-in /
    exploded-batch-out."""

    def __init__(self, stride: int = 5):
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids, idxs, hashes, fpss = [], [], [], []
        from ..sources.store import binary_views

        for vid, blob in zip(batch["video_id"].to_pylist(),
                             binary_views(batch["bytes"])):
            if not blob:
                continue
            try:
                _, _, n = decode_video(blob, frame_indices=[])
            except NotImplementedError:
                continue
            want = sorted(set(range(0, n, self.stride)) | ({n - 1} if n else set()))
            frames, fps, _ = decode_video(blob, frame_indices=want)
            for i, f in zip(want, frames):
                vids.append(vid)
                idxs.append(i)
                hashes.append(codecs.phash64(f))
                fpss.append(fps)
        return pa.table({
            "video_id": pa.array(vids, pa.string()),
            "frame_index": pa.array(idxs, pa.int32()),
            "frame_phash": pa.array(hashes, pa.int64()),
            "fps": pa.array(fpss, pa.float64()),
        }).replace_schema_metadata(None)


class AudioFeaturizer:
    """Per-clip acoustic features: duration, RMS level, zero-crossing rate —
    all vectorized numpy over the PCM buffer."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, durs, rmss, zcrs = [], [], [], []
        from ..sources.store import binary_views

        for aid, blob in zip(batch["audio_id"].to_pylist(),
                             binary_views(batch["bytes"])):
            if not blob:
                continue
            try:
                pcm, rate = decode_audio(blob)
            except NotImplementedError:
                continue
            x = pcm.astype(np.float64) / 32768.0
            ids.append(aid)
            durs.append(len(x) / rate if rate else 0.0)
            rmss.append(float(np.sqrt(np.mean(x * x))) if len(x) else 0.0)
            zcrs.append(float(np.mean(np.signbit(x[1:]) != np.signbit(x[:-1])))
                        if len(x) > 1 else 0.0)
        return pa.table({
            "audio_id": pa.array(ids, pa.string()),
            "duration_sec": pa.array(durs, pa.float64()),
            "rms": pa.array(rmss, pa.float64()),
            "zcr": pa.array(zcrs, pa.float64()),
        }).replace_schema_metadata(None)
