"""One benchmark run inside a fresh driver process.

``python3 -m perfbench.driver --spec <json>`` sets up ``spec["setups"]``
times (starts Ray sized from ``os.cpu_count()``, opens the workload's
cached fixture and warms up its workers; shut down between set-ups), then
times the workload's crawl entry point until the run's
seconds are spent (at least once) and writes everything the parent
``run.py`` needs to a result JSON file. With ``"build_only"`` in the spec
it only builds the fixture, without Ray.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time


def host_cpu() -> tuple[float, float]:
    """Machine-wide (busy, steal) CPU seconds from /proc/stat, summed over
    all vCPUs. Busy is user + nice + system + irq + softirq."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    hz = os.sysconf("SC_CLK_TCK")
    return (v[0] + v[1] + v[2] + v[5] + v[6]) / hz, v[7] / hz


def use_fixture_seed(seed: int, root: str) -> None:
    """Point the program's fixture generator at the benchmark's seed and
    cache directory (the program itself always uses seed 42 under /tmp)."""
    from cninfo_crawler_ray.sources import corpus

    corpus.SEED = seed
    corpus.FIXTURE_ROOT = root


def build_fixture(spec: dict) -> dict:
    """Build the run's fixture, then delete all but the
    ``spec["keep_fixtures"]`` most recently used fixtures under the cache
    root."""
    from cninfo_crawler_ray.sources import corpus

    t = time.perf_counter()
    path = corpus.ensure_fixtures(spec["n_images"], use_ray=False,
                                  sizes=spec["sizes"])
    build_s = time.perf_counter() - t
    root = spec["fixture_root"]
    done = sorted((os.path.getmtime(os.path.join(root, d, "_DONE")), d)
                  for d in os.listdir(root)
                  if os.path.exists(os.path.join(root, d, "_DONE")))
    for _, d in done[:-spec["keep_fixtures"]]:
        shutil.rmtree(os.path.join(root, d), ignore_errors=True)
    return {"fixture": path, "build_s": build_s}


def crawl_once(spec: dict, fixture_dir: str) -> dict:
    """Call the workload's crawl entry point once; → its returned dict."""
    from cninfo_crawler_ray.pipelines import crawl, scheduler

    overrides = {h: tuple(v) for h, v in spec.get("gate_overrides", {}).items()}
    if spec["entry"] == "run_crawl":
        return crawl.run_crawl(spec["n_images"], gate_overrides=overrides or None)
    ckpt = tempfile.mkdtemp(prefix="ckpt_") if spec.get("ckpt") else None
    return scheduler.run_scheduled_crawl(
        fixture_dir, wave_size=spec["wave_size"], ckpt_dir=ckpt,
        gate_overrides=overrides or None)


def _import_program(batch):
    import cninfo_crawler_ray.pipelines.stage2  # noqa: F401
    import cninfo_crawler_ray.state.frontier  # noqa: F401

    return batch


def warm_up(ncpu: int) -> None:
    """Start one Ray task worker per CPU with the program imported, so the
    first timed crawl does not pay for worker start and first imports."""
    import ray.data as rd

    rd.range(ncpu, override_num_blocks=ncpu).map_batches(
        _import_program, batch_format="pyarrow").materialize()


def run(spec: dict) -> dict:
    import ray
    from ray.data import DataContext

    from perfbench import check, trace

    ncpu = os.cpu_count() or 1
    init_kwargs = dict(address="local", num_cpus=ncpu, include_dashboard=False,
                       logging_level="ERROR", log_to_driver=False,
                       object_store_memory=spec["object_store_bytes"],
                       _temp_dir=spec["ray_tmp"])
    if spec["trace"]:
        os.environ[trace.TRACE_DIR_ENV] = spec["trace_dir"]
        init_kwargs["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.trace.install_worker_hooks"}
        trace.install_driver_hooks()

    t0 = time.perf_counter()
    from cninfo_crawler_ray.pipelines import crawl, scheduler  # noqa: F401
    from cninfo_crawler_ray.sources import corpus

    import_s = time.perf_counter() - t0
    # set up spec["setups"] times, shutting down in between; the crawls use
    # the last session and setup_s is the median
    setups = []
    for i in range(spec["setups"]):
        if i:
            ray.shutdown()
        t0 = time.perf_counter()
        # a copy: ray.init adds the setup hook's env var to runtime_env in
        # place and refuses it on the next init
        ray.init(**copy.deepcopy(init_kwargs))
        DataContext.get_current().enable_progress_bars = False
        t1 = time.perf_counter()
        fixture_dir = corpus.ensure_fixtures(spec["n_images"], sizes=spec["sizes"])
        t2 = time.perf_counter()
        warm_up(ncpu)
        t3 = time.perf_counter()
        setups.append({"init_s": t1 - t0, "open_s": t2 - t1, "warmup_s": t3 - t2,
                       "setup_s": t3 - t0})
    setup = {"import_s": import_s, "setups": setups,
             "setup_s": statistics.median(s["setup_s"] for s in setups)}

    crawls = []
    loop_start = time.perf_counter()
    while True:
        b0, s0 = host_cpu()
        w0, c0 = time.time(), time.perf_counter()
        out = crawl_once(spec, fixture_dir)
        wall = time.perf_counter() - c0
        w1 = time.time()
        b1, s1 = host_cpu()
        counters = {k: v for k, v in out["counters"].items()
                    if isinstance(v, (int, float))}
        rec = {"wall_s": wall, "busy_s": b1 - b0, "steal_s": s1 - s0,
               "t_start": w0, "t_end": w1, "counters": counters,
               "summary": check.summarize(out["long"], out["wide"])}
        del out
        crawls.append(rec)
        elapsed = time.perf_counter() - loop_start
        if elapsed + wall > spec["seconds"]:
            break

    ray.shutdown()
    if spec["trace"]:
        spans = trace.read_spans(spec["trace_dir"])
        for rec in crawls:
            layers = trace.layer_metrics(spans, rec["t_start"], rec["t_end"],
                                         rec["counters"], rec["summary"]["urls"])
            layers["host.steal_s"] = rec["steal_s"]
            layers["host.busy_frac"] = rec["busy_s"] / (rec["wall_s"] * ncpu)
            rec["layers"] = layers
    return {"vcpus": ncpu, "ray_version": ray.__version__, "setup": setup,
            "crawls": crawls,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True, help="run spec as JSON")
    ap.add_argument("--out", required=True, help="result JSON path")
    args = ap.parse_args(argv)
    spec = json.loads(args.spec)
    use_fixture_seed(spec["seed"], spec["fixture_root"])
    result = build_fixture(spec) if spec.get("build_only") else run(spec)
    tmp = args.out + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
