import concurrent.futures
import os

import pytest

from rewbench import parallel


def _shift_square(shared, task):
    return shared + task * task


def _exit_worker(shared, task):
    os._exit(1)


@pytest.mark.parametrize("jobs,cpus,n_tasks,workers", [
    (4, 2, 10, 2),      # capped by the CPU count
    (8, 16, 3, 3),      # capped by the task count
    (2, 8, 10, 2),      # as asked
    (1, 8, 10, None),   # one worker: no pool
    (4, 1, 10, None),
    (4, None, 10, None),  # unknown CPU count counts as one
    (4, 4, 1, None),
    (4, 4, 0, None),
])
def test_parallel_map_caps_workers(monkeypatch, jobs, cpus, n_tasks,
                                   workers):
    started = []

    class StubPool:
        """Records the worker count and runs everything in this process."""

        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def map(self, fn, tasks):
            return map(fn, tasks)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(parallel, "_worker_fn", None)
    monkeypatch.setattr(parallel, "_worker_shared", None)
    tasks = list(range(n_tasks))
    assert parallel.parallel_map(_shift_square, 100, tasks, jobs) == [
        100 + t * t for t in tasks]
    assert started == ([] if workers is None else [workers])


def test_dead_worker_raises_worker_died(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    with pytest.raises(parallel.WorkerDied):
        parallel.parallel_map(_exit_worker, None, [0, 1], 2)
