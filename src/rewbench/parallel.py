"""Order-preserving map over worker processes.

``parallel_map(fn, shared, tasks, jobs)`` returns
``[fn(shared, task) for task in tasks]``.  ``fn`` must be a module-level
function, since workers receive it by import path.  ``shared`` reaches
each worker once, through the pool initializer; per task only the task
and its result are pickled.

This module is the only one that knows the process pool.  It imports
``concurrent.futures`` only when a map needs more than one worker, so
importing the package loads no pool machinery, and it reports a worker
that died as its own ``WorkerDied``.

Workers start with the platform's default method.  Under ``spawn``, the
default on macOS and Windows, each worker re-imports the caller's
``__main__`` module, so a script that calls ``parallel_map`` (or
``probe_all_pairs`` / ``dehn_profile``) with ``jobs > 1`` must keep its
top-level work under ``if __name__ == "__main__":``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Set once in each worker process by _init_worker.
_worker_fn: Any = None
_worker_shared: Any = None


class WorkerDied(Exception):
    """A worker process ended abruptly, so the map has no result."""


def _init_worker(fn: Callable[[Any, Any], Any], shared: Any) -> None:
    global _worker_fn, _worker_shared
    _worker_fn, _worker_shared = fn, shared


def _run_task(task: Any) -> Any:
    return _worker_fn(_worker_shared, task)


def parallel_map(fn: Callable[[Any, T], R], shared: Any,
                 tasks: Sequence[T], jobs: int) -> list[R]:
    """``fn(shared, task)`` for every task, results in task order.

    Starts at most ``min(jobs, os.cpu_count(), len(tasks))`` workers;
    with one, everything runs in this process with no pool and no
    pickling.  Tasks go out one at a time, which balances uneven tasks
    best; per-task overhead is small next to a profile class or a probe.
    Raises ``WorkerDied`` if a worker process ends abruptly.
    """
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [fn(shared, task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(fn, shared))
    try:
        return list(pool.map(_run_task, tasks))
    except BrokenProcessPool as exc:
        raise WorkerDied(str(exc)) from exc
    finally:
        # On an interrupt or a failed task, drop the tasks not yet started
        # instead of running them all before the pool shuts down.
        pool.shutdown(cancel_futures=True)
