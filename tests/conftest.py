import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def stage_rows(ray_session, monkeypatch):
    """Taps stage 1's frontier and stage 2's fetch+decode output with a
    pass-through ``map_batches`` that adds each batch's row count to a
    counting actor. A stage whose plan executes twice counts its rows twice.
    → a callable returning ``{"stage1": rows, "fetch_decode": rows}``."""
    import ray

    from cninfo_crawler_ray.pipelines import stage1, stage2

    @ray.remote(num_cpus=0)
    class Counter:
        def __init__(self):
            self.rows = {"stage1": 0, "fetch_decode": 0}

        def add(self, name, n):
            self.rows[name] += n

        def get(self):
            return self.rows

    counter = Counter.remote()

    def tap(fn, name):
        def count(batch):
            ray.get(counter.add.remote(name, len(batch)))
            return batch

        return lambda *a, **kw: fn(*a, **kw).map_batches(count, batch_format=None)

    monkeypatch.setattr(stage1, "build_frontier", tap(stage1.build_frontier, "stage1"))
    monkeypatch.setattr(stage2, "fetch_decode", tap(stage2.fetch_decode, "fetch_decode"))
    return lambda: ray.get(counter.get.remote())
