"""Crawl benchmark: times the program's crawl entry points end to end.

    python3 perfbench/run.py --workload batch_crawl --seed 1 --seconds 40 --trace 0

Run from the repository root. Each run builds (or reuses) the fixtures for
``--seed`` under ``.perfbench/`` and then starts a fresh driver process
(``perfbench/driver.py``) that sets Ray up, warms up, and times the crawl.
The run is killed and counted as failed if it exceeds ``--timeout``; every
process it started is stopped before it returns. The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count
frontier URLs, and ``metrics`` holds the end-to-end metrics (``--trace 0``)
or the per-layer metrics of a traced run (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
if os.path.dirname(HERE) not in sys.path:
    sys.path.insert(0, os.path.dirname(HERE))

from perfbench import check  # noqa: E402
from perfbench.trace import LAYER_UNITS  # noqa: E402

#: hot host of the synthetic fixtures (corpus.url_for gives it ~50% of URLs)
HOT_HOST = "img0.example.test"

#: workload → crawl entry point and its fixture. ``listed_urls`` sets the
#: fixture size: the number of distinct image URLs its listing pages
#: reference (see ``images_for``); batch_crawl and round_crawl share one
#: fixture, so their outputs must match the same reference.
WORKLOADS = {
    "batch_crawl": {"entry": "run_crawl", "sizes": "default", "listed_urls": 10000},
    "round_crawl": {"entry": "run_scheduled_crawl", "sizes": "default",
                    "listed_urls": 10000, "wave_size": 1 << 20, "ckpt": True,
                    # hot-host burst of 1000 URLs, refilled in full every
                    # tick: ceil(hot URLs / 1000) rounds with a fully denied
                    # wave between rounds — 3 rounds for any seed whose hot
                    # host has 2001-3000 URLs
                    "gate_overrides": {HOT_HOST: [10000.0, 1000]}},
    "web_crawl": {"entry": "run_scheduled_crawl", "sizes": "web",
                  "listed_urls": 2000, "wave_size": 1 << 20,
                  # hot host's budget lifted: exactly one round
                  "gate_overrides": {HOT_HOST: [1e9, 1 << 30]}},
}

END_TO_END_UNITS = {"urls_per_s": "1/s", "cpu_ms_per_url": "ms",
                    "setup_s": "s", "driver_peak_rss_mb": "MB",
                    "url_ok_frac": "ratio"}

#: Ray's Unix sockets live under its temp dir; socket paths are limited to
#: 107 bytes, and the session name plus socket name take about 62
MAX_RAY_TMP_LEN = 44
OBJECT_STORE_BYTES = 1_000_000_000
#: fixtures kept in the cache (a 2000-image web fixture is ~125 MB)
KEEP_FIXTURES = 24
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
#: Ray sessions set up per run; setup_s is their median
SETUPS = 3
RUN_MARKER = "PERFBENCH_RUN"
#: seeds whose reference keeps per-URL fingerprints (~45 KB each); others
#: keep only frame digests. 42 is the program's own fixture seed.
FINGERPRINT_SEEDS = {42}


def _marked_pids(prefix: str) -> list[int]:
    """PIDs whose environment carries a run marker starting with ``prefix``."""
    want = f"{RUN_MARKER}={prefix}".encode()
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                env = f.read().split(b"\0")
        except OSError:
            continue
        if any(e.startswith(want) for e in env):
            pids.append(int(name))
    return pids


def stop_marked(prefix: str, grace_s: float = 10.0) -> int:
    """Wait up to ``grace_s`` for marked processes to exit, then kill the
    rest and wait until they are gone; → how many had to be killed."""
    deadline = time.monotonic() + grace_s
    while _marked_pids(prefix) and time.monotonic() < deadline:
        time.sleep(0.2)
    left = _marked_pids(prefix)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in _marked_pids(prefix):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5.0
        while _marked_pids(prefix) and time.monotonic() < deadline:
            time.sleep(0.1)
    return len(left)


def _run_driver(spec: dict, out_path: str, env: dict, timeout_s: float,
                log_path: str, marker_prefix: str) -> tuple[dict | None, str]:
    """Run ``perfbench.driver`` in a fresh process; → (result, error)."""
    cmd = [sys.executable, "-m", "perfbench.driver", "--spec", json.dumps(spec),
           "--out", out_path]
    error = ""
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(cmd, cwd=env["PERFBENCH_ROOT"], env=env,
                                stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout_s)
            if code != 0:
                error = f"driver exited with code {code} (log: {log_path})"
        except subprocess.TimeoutExpired:
            error = f"timed out after {timeout_s:.0f} s"
        finally:
            stop_marked(marker_prefix, grace_s=0 if error else 10.0)
            proc.wait()
    if error or not os.path.exists(out_path):
        return None, error or "driver wrote no result"
    with open(out_path) as f:
        return json.load(f), ""


def _ray_tmp(work: str) -> tuple[str, bool]:
    """Ray's temp dir: inside the checkout when the socket paths fit, else a
    short private dir under the system temp dir (removed after the run)."""
    inside = os.path.join(work, "ray")
    if len(inside) <= MAX_RAY_TMP_LEN:
        return inside, False
    import tempfile

    return tempfile.mkdtemp(prefix="pb-", dir="/tmp"), True


def _listed_urls(n_images: int) -> int:
    """Distinct image URLs on the generator's listing pages for a fixture of
    ``n_images`` (at the seed set by ``use_fixture_seed``)."""
    import pyarrow.compute as pc
    from cninfo_crawler_ray.sources import corpus

    anns = corpus.announcements_rows(n_images, corpus.default_dates(),
                                     "category_ndbg_szsh")
    return pc.count_distinct(anns["adjunctUrl"]).as_py()


def images_for(listed: int, seed: int, fixture_root: str, cache_path: str) -> int:
    """The smallest fixture size whose listing pages reference at least
    ``listed`` distinct image URLs at ``seed``.

    The generator draws each listing stream's length from the seed, so at a
    fixed image count the number of URLs to crawl moves by ±8% between
    seeds, and ``urls_per_s`` with it (a crawl's wall is mostly fixed
    start-up). Solving the image count per seed holds the input size fixed;
    the seed still sets every URL, title, image and stream. The count only
    grows with the image count, so a bisection finds it; results are cached
    in ``cache_path``."""
    from perfbench.driver import use_fixture_seed

    key = f"{seed}/{listed}"
    try:
        with open(cache_path) as f:
            cache = json.load(f)
    except (OSError, ValueError):
        cache = {}
    if key not in cache:
        use_fixture_seed(seed, fixture_root)
        # a fixture lists at most one URL per image, so ``listed - 1`` images
        # are too few; step up by the secant, then bisect (lo, hi]
        lo, hi = listed - 1, listed
        got = _listed_urls(hi)
        while got < listed:
            lo, hi = hi, math.ceil(hi * listed / got) + 20
            got = _listed_urls(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _listed_urls(mid) >= listed else (mid, hi)
        cache[key] = hi
        tmp = cache_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(cache, f)
        os.replace(tmp, cache_path)
    return cache[key]


def _cached_fixture(spec: dict) -> str | None:
    """The ``_DONE`` marker of the run's fixture if it is already built."""
    from perfbench.driver import use_fixture_seed
    from cninfo_crawler_ray.sources import corpus

    use_fixture_seed(spec["seed"], spec["fixture_root"])
    done = os.path.join(corpus.fixture_dir(spec["n_images"], spec["sizes"]), "_DONE")
    return done if os.path.exists(done) else None


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def summarize_run(result: dict, ref: dict | None, trace: bool) -> dict:
    """Driver result → the benchmark's output object."""
    checks = [check.check(c["summary"], ref) for c in result["crawls"]]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    if trace:
        names = sorted({k for c in result["crawls"] for k in c["layers"]})
        metrics = {k: {"value": _median([c["layers"].get(k, 0.0)
                                         for c in result["crawls"]]),
                       "unit": LAYER_UNITS[k]} for k in names}
    else:
        crawls = result["crawls"]
        values = {
            "urls_per_s": _median([c["summary"]["urls"] / c["wall_s"] for c in crawls]),
            "cpu_ms_per_url": _median([1000 * c["busy_s"] / max(c["summary"]["urls"], 1)
                                       for c in crawls]),
            "setup_s": result["setup"]["setup_s"],
            "driver_peak_rss_mb": result["peak_rss_mb"],
            "url_ok_frac": 1 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    return {"correct": all(c["correct"] for c in checks), "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "check_modes": sorted({c["mode"] for c in checks})}


def failed_run(ref: dict | None, trace: bool) -> dict:
    """Output object of a run that raised or timed out: every URL failed."""
    attempted = ref["urls"] if ref else 1
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    return {"correct": False, "attempted": attempted, "failed": attempted,
            "metrics": {k: {"value": 0.0, "unit": u} for k, u in units.items()},
            "check_modes": []}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="fixture generation seed")
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget for the timed crawls (at least one runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--timeout", type=float, default=RUN_TIMEOUT_S,
                    help="kill the driver after this many seconds")
    ap.add_argument("--n-images", type=int, default=None,
                    help="fixture size override (smoke tests)")
    ap.add_argument("--record", action="store_true",
                    help="store this run's outputs as the fixture's reference")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "cninfo_crawler_ray", "__init__.py")):
        print("perfbench: run from the repository root (no cninfo_crawler_ray "
              "package here)", file=sys.stderr)
        return 2

    t_begin = time.monotonic()
    work = os.path.join(root, ".perfbench")
    checkout_marker = f"{root}:"
    # the previous run's Ray processes must be gone before this one starts
    stop_marked(checkout_marker, grace_s=30.0)
    run_dir = os.path.join(work, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    os.makedirs(os.path.join(run_dir, "trace"))
    os.makedirs(os.path.join(work, "runs"), exist_ok=True)
    ray_tmp, ray_tmp_outside = _ray_tmp(work)

    wl = dict(WORKLOADS[args.workload])
    wl["n_images"] = args.n_images or images_for(
        wl["listed_urls"], args.seed, os.path.join(work, "fixtures"),
        os.path.join(work, "sizes.json"))
    spec = dict(wl, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                fixture_root=os.path.join(work, "fixtures"), ray_tmp=ray_tmp,
                trace_dir=os.path.join(run_dir, "trace"),
                object_store_bytes=OBJECT_STORE_BYTES, keep_fixtures=KEEP_FIXTURES,
                setups=SETUPS)
    ref_key = check.reference_key(wl["sizes"], wl["n_images"], args.seed)
    ref = None if args.record else check.load_reference().get(ref_key)

    marker = f"{checkout_marker}{uuid.uuid4().hex}"
    env = dict(os.environ, PERFBENCH_ROOT=root, TMPDIR=os.path.join(run_dir, "tmp"),
               PYTHONPATH=os.pathsep.join(
                   [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]),
               **{RUN_MARKER: marker})
    env.pop("RAY_ADDRESS", None)
    log_path = os.path.join(run_dir, "driver.log")
    build_s = 0.0
    try:
        result, error = None, ""
        done = _cached_fixture(spec)
        if done:
            os.utime(done)  # most recently used: kept by the cache trim
        else:
            build, error = _run_driver(dict(spec, build_only=True),
                                       os.path.join(run_dir, "build.json"), env,
                                       BUILD_TIMEOUT_S, log_path, marker)
            build_s = build["build_s"] if build else 0.0
        if not error:
            budget = args.timeout
            if build_s < 60:  # cached or quick build: keep within 180 s
                budget = min(budget, RUN_TIMEOUT_S + 5 - (time.monotonic() - t_begin))
            result, error = _run_driver(spec, os.path.join(run_dir, "result.json"),
                                        env, budget, log_path, marker)
    finally:
        if ray_tmp_outside:
            shutil.rmtree(ray_tmp, ignore_errors=True)
        else:
            shutil.rmtree(os.path.join(work, "ray"), ignore_errors=True)

    out = failed_run(ref, bool(args.trace)) if result is None else \
        summarize_run(result, ref, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "reference": ref_key if ref else None, "error": error,
              "fixture_build_s": build_s,
              "vcpus": os.cpu_count(), "result": out}
    if result is not None:
        record.update(
            ray_version=result["ray_version"], driver_vcpus=result["vcpus"],
            setup=result["setup"],
            crawls=[{k: c[k] for k in ("wall_s", "busy_s", "steal_s", "counters")}
                    | {"urls": c["summary"]["urls"]} for c in result["crawls"]])
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(work, "runs", f"{stamp}-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    if args.record and result is not None:
        _record_reference(ref_key, args.seed, result)
    host = {k: record.get(k) for k in ("vcpus", "ray_version", "setup")}
    host["crawls"] = [{k: round(c[k], 3) for k in ("wall_s", "busy_s", "steal_s")}
                      for c in record.get("crawls", [])]
    print("host " + json.dumps(host))
    if error:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
    out.pop("check_modes")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def _record_reference(key: str, seed: int, result: dict) -> None:
    summaries = [c["summary"] for c in result["crawls"]]
    first = summaries[0]
    if any(s["long_digest"] != first["long_digest"] or s["wide_digest"] != first["wide_digest"]
           for s in summaries) or first["bad_urls"]:
        raise SystemExit(f"perfbench: not recording {key}: outputs differ "
                         "between crawls or break an invariant")
    refs = check.load_reference()
    refs[key] = {k: first[k] for k in ("urls", "long_rows", "wide_rows",
                                       "long_digest", "wide_digest")}
    if seed in FINGERPRINT_SEEDS:
        refs[key]["url_fingerprints"] = " ".join(first["url_fingerprints"])
    with open(check.REFERENCE_PATH, "w") as f:
        json.dump(dict(sorted(refs.items())), f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
