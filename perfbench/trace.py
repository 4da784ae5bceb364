"""Span tracing for the crawl benchmark, installed from outside the program.

Every traced call records one span ``(name, start, end, self time, counts)``.
Self time is the span's duration minus the time its child spans (nested
traced calls in the same thread) cover. Spans are appended, one JSON line
per call, to ``<PERFBENCH_TRACE_DIR>/<pid>.jsonl`` as soon as the call
returns: Ray may kill an actor's process without running exit handlers, so
nothing is held back in memory.

``install_worker_hooks`` is the ``worker_process_setup_hook`` every Ray
worker runs at start; ``install_driver_hooks`` wraps the driver-side calls.
Neither changes what the wrapped calls return.
"""

from __future__ import annotations

import functools
import importlib.abc
import json
import os
import sys
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_local = threading.local()
_lock = threading.Lock()


def _emit(rec: dict) -> None:
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return
    line = json.dumps(rec, separators=(",", ":")) + "\n"
    with _lock, open(os.path.join(trace_dir, f"{os.getpid()}.jsonl"), "a") as f:
        f.write(line)


def _wrap(owner, attr: str, name: str, counts=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper. ``counts(args,
    kwargs, result)`` returns extra numeric fields for the span."""
    fn = getattr(owner, attr)
    if getattr(fn, "_perfbench_traced", False):
        return

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        frame = [0.0]  # child time accumulated while this span is open
        stack.append(frame)
        t0 = time.time()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.time()
            stack.pop()
            if stack:
                stack[-1][0] += t1 - t0
        rec = {"n": name, "t0": t0, "t1": t1, "self": t1 - t0 - frame[0]}
        if counts is not None:
            rec.update(counts(args, kwargs, result))
        _emit(rec)
        return result

    traced._perfbench_traced = True
    setattr(owner, attr, traced)


def _rows_in(args, kwargs, result):
    return {"rows": args[1].num_rows}


def _rows_out(args, kwargs, result):
    return {"rows": result.num_rows}


def _probe_counts(args, kwargs, result):
    import pyarrow.compute as pc

    return {"rows": result.num_rows,
            "ok": int(pc.sum(result["head_ok"]).as_py() or 0)}


def _decode_counts(args, kwargs, result):
    import pyarrow.compute as pc

    return {"rows": result.num_rows,
            "valid": int(pc.sum(result["type_ok"]).as_py() or 0)}


def _get_views_counts(args, kwargs, result):
    views = result[2]
    return {"rows": len(views), "bytes": sum(len(v) for v in views)}


def _seen_counts(args, kwargs, result):
    return {"keys": len(result), "new": int(sum(result))}


def _push_counts(args, kwargs, result):
    return {"rows": len(args[2])}


def _admitted_counts(args, kwargs, result):
    return {"admitted": int(sum(result["admitted"]))}


def _blob_counts(args, kwargs, result):
    return {"bytes": len(args[2])}


#: layer module → (class, method, span name, counts) wrapped in every worker
WORKER_LAYERS = {
    "cninfo_crawler_ray.stages.listing": [
        ("ListingEnumerator", "__call__", "listing", _rows_out)],
    "cninfo_crawler_ray.stages.fetch": [
        ("Prober", "__call__", "probe", _probe_counts)],
    "cninfo_crawler_ray.stages.decode": [
        ("FetchDecode", "__init__", "fetch_decode.init", None),
        ("FetchDecode", "__call__", "fetch_decode", _rows_in),
        ("Decoder", "decode_views", "decode", _decode_counts)],
    "cninfo_crawler_ray.sources.store": [
        ("CorpusStore", "get_views", "store.get", _get_views_counts),
        ("CorpusStore", "head", "store.head", _rows_out)],
    "cninfo_crawler_ray.state.seen": [
        ("SeenShard", "contains_and_add", "seen", _seen_counts)],
    "cninfo_crawler_ray.state.frontier": [
        ("FrontierShard", "push", "frontier.push", _push_counts)],
}


def _wrap_module(module) -> None:
    for cls, attr, name, counts in WORKER_LAYERS[module.__name__]:
        _wrap(getattr(module, cls), attr, name, counts)


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Wraps a layer module's entry points right after the module is first
    imported. A worker then imports only the modules its tasks use: most
    Ray workers of a crawl are fresh processes, and importing every layer
    module in each of them would add seconds of CPU to a traced crawl."""

    def find_spec(self, fullname, path, target=None):
        if fullname not in WORKER_LAYERS:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            _wrap_module(module)

        spec.loader.exec_module = exec_and_wrap
        return spec


def install_worker_hooks() -> None:
    """Wrap the layer entry points that run inside Ray workers: stage-1
    listing and probe actors, the fused fetch+decode actor, the decoder,
    the corpus store, and the seen-set and frontier shard actors. Modules
    already imported are wrapped now, the others when first imported."""
    for name in WORKER_LAYERS:
        if name in sys.modules:
            _wrap_module(sys.modules[name])
    if not any(isinstance(f, _WrapOnImport) for f in sys.meta_path):
        sys.meta_path.insert(0, _WrapOnImport())


def install_driver_hooks() -> None:
    """Wrap the driver-side calls whose spans mark the crawl's phases, plus
    the worker-side layers for anything that runs in the driver process."""
    from cninfo_crawler_ray.pipelines import stage2
    from cninfo_crawler_ray.state.frontier import ShardedFrontier
    from cninfo_crawler_ray.state.storage import LocalStorage

    install_worker_hooks()
    _wrap(stage2, "fetch_decode", "stage2.fetch_decode")
    _wrap(stage2, "long_view", "stage2.long_view")
    _wrap(stage2, "wide_view", "stage2.wide_view")
    _wrap(ShardedFrontier, "pop_admissible_staged", "frontier.pop",
          _admitted_counts)
    _wrap(LocalStorage, "commit_round", "storage.commit")
    _wrap(LocalStorage, "write_bytes_atomic", "storage.snapshot", _blob_counts)
    _wrap(LocalStorage, "round_files", "storage.round_files")


def read_spans(trace_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(trace_dir, name)) as f:
            for line in f:
                if line.strip():
                    spans.append(json.loads(line))
    return spans


def _total(spans, name, field="self"):
    return float(sum(s.get(field, 0) for s in spans if s["n"] == name))


def _count(spans, name):
    return sum(1 for s in spans if s["n"] == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], t_start: float, t_end: float,
                  counters: dict, n_urls: int) -> dict[str, float]:
    """Per-layer metrics of one timed crawl: the spans that started inside
    ``[t_start, t_end]`` (wall-clock seconds), the crawl's returned
    counters, and ``n_urls`` frontier URLs."""
    sp = [s for s in spans if t_start <= s["t0"] <= t_end]
    wall = t_end - t_start
    m: dict[str, float] = {}

    m["listing.busy_s"] = _total(sp, "listing")
    m["listing.rows_out"] = _total(sp, "listing", "rows")
    m["probe.busy_s"] = _total(sp, "probe")
    m["probe.rows"] = _total(sp, "probe", "rows")
    m["probe.ok_ratio"] = _ratio(_total(sp, "probe", "ok"), m["probe.rows"])

    seen_keys = _total(sp, "seen", "keys")
    m["seen.busy_s"] = _total(sp, "seen")
    m["seen.keys"] = seen_keys
    m["seen.admit_ratio"] = _ratio(_total(sp, "seen", "new"), seen_keys)

    m["frontier.push_busy_s"] = _total(sp, "frontier.push")
    m["frontier.push_rows"] = _total(sp, "frontier.push", "rows")
    m["frontier.pop_s"] = _total(sp, "frontier.pop")
    m["frontier.pops"] = float(_count(sp, "frontier.pop"))

    m["gate.empty_waves"] = float(counters.get("empty_waves", 0))
    m["gate.wait_ticks"] = float(counters.get("politeness_wait_ticks", 0))

    m["storage.commit_s"] = _total(sp, "storage.commit")
    m["storage.snapshot_s"] = _total(sp, "storage.snapshot")
    m["storage.snapshot_bytes"] = _total(sp, "storage.snapshot", "bytes")

    fd_rows = _total(sp, "fetch_decode", "rows")
    m["fetch_decode.busy_s"] = _total(sp, "fetch_decode")
    m["fetch_decode.rows"] = fd_rows
    m["fetch_decode.passes"] = _ratio(fd_rows, n_urls)
    m["fetch_decode.actor_inits"] = float(_count(sp, "fetch_decode.init"))
    m["fetch_decode.valid_ratio"] = _ratio(_total(sp, "decode", "valid"),
                                           _total(sp, "decode", "rows"))
    m["decode.busy_s"] = _total(sp, "decode")

    m["store.get_s"] = _total(sp, "store.get")
    m["store.head_s"] = _total(sp, "store.head")
    m["store.bytes"] = _total(sp, "store.get", "bytes")

    m["stage2.long_view_s"] = _total(sp, "stage2.long_view")
    m["stage2.wide_view_s"] = _total(sp, "stage2.wide_view")
    m["long.rows"] = float(counters.get("long_rows", 0))
    m["wide.rows"] = float(counters.get("wide_rows", 0))

    m.update(phase_metrics(sp, t_start, t_end))
    m["trace.wall_s"] = wall
    return m


def phase_metrics(sp: list[dict], t_start: float, t_end: float) -> dict:
    """Driver phase spans. Batch path: entry → first seen-set call
    (``crawl.frontier_s``), → fetch+decode plan (admission and grant
    schedule), then the long and wide views. Scheduler path: entry → first
    pop (``scheduler.seed_s``), one span per admitting pop up to the next
    admitting pop, last round → return (``scheduler.final_s``).
    ``trace.phase_coverage`` is the share of the crawl's wall the phase
    spans cover."""
    wall = t_end - t_start
    pops = sorted((s for s in sp if s["n"] == "frontier.pop"),
                  key=lambda s: s["t0"])
    m = {"crawl.frontier_s": 0.0, "scheduler.seed_s": 0.0,
         "scheduler.rounds": 0.0, "scheduler.round_s.p50": 0.0,
         "scheduler.round_s.max": 0.0, "scheduler.final_s": 0.0}
    if pops:
        final_start = min((s["t0"] for s in sp if s["n"] == "storage.round_files"),
                          default=t_end)
        starts = [s["t0"] for s in pops if s.get("admitted", 0) > 0]
        bounds = starts + [final_start]
        rounds = [b - a for a, b in zip(bounds[:-1], bounds[1:])]
        m["scheduler.seed_s"] = pops[0]["t0"] - t_start
        m["scheduler.rounds"] = float(len(rounds))
        if rounds:
            import statistics

            m["scheduler.round_s.p50"] = statistics.median(rounds)
            m["scheduler.round_s.max"] = max(rounds)
        m["scheduler.final_s"] = t_end - final_start
        covered = (m["scheduler.seed_s"] + sum(rounds) + m["scheduler.final_s"]
                   + (starts[0] - pops[0]["t0"] if starts else 0.0))
    else:
        seen_t0 = min((s["t0"] for s in sp if s["n"] == "seen"), default=None)
        fd_t0 = min((s["t0"] for s in sp if s["n"] == "stage2.fetch_decode"),
                    default=None)
        views = [s for s in sp if s["n"] in ("stage2.long_view", "stage2.wide_view")]
        covered = sum(s["t1"] - s["t0"] for s in views)
        if seen_t0 is not None:
            m["crawl.frontier_s"] = seen_t0 - t_start
            covered += m["crawl.frontier_s"]
            if fd_t0 is not None:
                covered += fd_t0 - seen_t0
    m["trace.phase_coverage"] = _ratio(covered, wall)
    return m


LAYER_UNITS = {
    "listing.busy_s": "s", "listing.rows_out": "count",
    "probe.busy_s": "s", "probe.rows": "count", "probe.ok_ratio": "ratio",
    "crawl.frontier_s": "s",
    "seen.busy_s": "s", "seen.keys": "count", "seen.admit_ratio": "ratio",
    "frontier.push_busy_s": "s", "frontier.push_rows": "count",
    "frontier.pop_s": "s", "frontier.pops": "count",
    "gate.empty_waves": "count", "gate.wait_ticks": "ticks",
    "storage.commit_s": "s", "storage.snapshot_s": "s",
    "storage.snapshot_bytes": "bytes",
    "scheduler.seed_s": "s", "scheduler.rounds": "count",
    "scheduler.round_s.p50": "s", "scheduler.round_s.max": "s",
    "scheduler.final_s": "s",
    "fetch_decode.busy_s": "s", "fetch_decode.rows": "count",
    "fetch_decode.passes": "ratio", "fetch_decode.actor_inits": "count",
    "fetch_decode.valid_ratio": "ratio", "decode.busy_s": "s",
    "store.get_s": "s", "store.head_s": "s", "store.bytes": "bytes",
    "stage2.long_view_s": "s", "stage2.wide_view_s": "s",
    "long.rows": "count", "wide.rows": "count",
    "host.steal_s": "s", "host.busy_frac": "ratio",
    "trace.wall_s": "s", "trace.phase_coverage": "ratio",
}
