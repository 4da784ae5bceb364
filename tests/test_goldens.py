"""The golden registry (tools/make_goldens.py), the committed goldens under
goldens/sf0.01/ and ``oracle_sql()`` name the same tables. No Ray: the
registry is imported, never run, in a child process that fails if the
import starts a Ray session."""

import json
import os
import re
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO, "goldens", "sf0.01")

_PROBE = """
import importlib.util, json, sys
import ray

def no_ray(*a, **kw):
    raise AssertionError("importing started a Ray session")

ray.init = no_ray

def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m

repo = sys.argv[1]
gen = load("make_goldens", f"{repo}/tools/make_goldens.py")
entry = load("__ray_entry__", f"{repo}/__ray_entry__.py")
print(json.dumps({"goldens": gen.GOLDENS,
                  "per_image": sorted(gen.PER_IMAGE),
                  "whole_set": sorted(gen.WHOLE_SET),
                  "also_checked": gen.ALSO_CHECKED,
                  "oracle_sql": entry.oracle_sql(),
                  "ray": ray.is_initialized()}))
"""


def _snapshot(d: str) -> dict[str, tuple[int, int]]:
    return {n: (os.stat(os.path.join(d, n)).st_mtime_ns,
                os.stat(os.path.join(d, n)).st_size) for n in os.listdir(d)}


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("probe")
    before = _snapshot(GOLDEN_DIR)
    env = dict(os.environ, PYTHONPATH=REPO, PYTHONDONTWRITEBYTECODE="1")
    r = subprocess.run([sys.executable, "-c", _PROBE, REPO], cwd=cwd, env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    out["wrote"] = sorted(os.listdir(cwd))
    out["goldens_changed"] = _snapshot(GOLDEN_DIR) != before
    return out


def _committed() -> set[str]:
    return {n[:-len(".parquet")] for n in os.listdir(GOLDEN_DIR)
            if n.endswith(".parquet")}


def test_registry_import_is_inert(probe):
    assert probe["ray"] is False
    assert probe["wrote"] == []
    assert probe["goldens_changed"] is False


def test_registry_names_each_golden_once(probe):
    names = probe["goldens"]
    assert len(names) == len(set(names))
    assert not set(probe["per_image"]) & set(probe["whole_set"])
    assert set(names) == set(probe["per_image"]) | set(probe["whole_set"])


def test_every_committed_golden_is_registered(probe):
    assert _committed() - set(probe["goldens"]) == set()


def test_every_registered_golden_is_committed(probe):
    assert set(probe["goldens"]) - _committed() == set()


def test_oracle_sql_reads_only_registered_goldens(probe):
    read = set()
    for sql in probe["oracle_sql"].values():
        read |= set(re.findall(r"goldens/sf0\.01/(\w+)\.parquet", sql))
    assert read, "oracle_sql() reads no golden"
    assert read - set(probe["goldens"]) == set()
    # each golden is checked at generation against the queries() entries
    # whose oracle is exactly that golden
    for name in probe["goldens"]:
        for entry in (name, *probe["also_checked"].get(name, ())):
            assert f"goldens/sf0.01/{name}.parquet" in probe["oracle_sql"][entry]


def test_oracle_sql_reads_goldens_beside_entry_file(tmp_path, monkeypatch):
    """oracle_sql() names the goldens of the checkout its file sits in, so
    a second checkout gate-checks its own goldens."""
    import importlib.util
    import shutil

    monkeypatch.setattr(sys, "path", list(sys.path))  # the file prepends its dir
    path = tmp_path / "__ray_entry__.py"
    shutil.copy(os.path.join(REPO, "__ray_entry__.py"), path)
    spec = importlib.util.spec_from_file_location("entry_copy", path)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    want = f"read_parquet('{tmp_path}/goldens/sf0.01/wide_report.parquet')"
    assert want in m.oracle_sql()["wide_report"]
