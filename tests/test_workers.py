import os
from concurrent.futures import ThreadPoolExecutor

import pytest

import padaug.workers
from padaug.workers import worker_map


@pytest.mark.parametrize(
    "threads, cpus, n_items, pool",
    [
        ("1", 4, 5, None),  # serial when asked for one thread
        ("8", 1, 5, None),  # serial on one CPU
        ("8", None, 5, None),  # an unknown CPU count counts as one
        ("8", 4, 1, None),  # serial for one item
        ("8", 2, 5, 2),  # clamped to the CPUs
        ("8", 4, 3, 3),  # clamped to the items
        ("3", 4, 5, 3),  # as asked
    ],
)
def test_pool_is_clamped_to_cpus_and_items(monkeypatch, threads, cpus, n_items, pool):
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setenv("PADAUG_THREADS", threads)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(padaug.workers, "ThreadPoolExecutor", RecordingPool)
    items = list(range(n_items))
    assert worker_map(lambda i: i * i, iter(items)) == [i * i for i in items]
    assert sizes == ([] if pool is None else [pool])
