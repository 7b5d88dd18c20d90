"""The one worker-pool seam behind every compute fan-out of the package.

The parallel assemblers (paper Sections 5.1/5.2), the H-matrix build, the
FRW estimator and the extraction service map independent jobs, results in
job order, in one of the :data:`MODES`:

* ``"serial"`` -- inline, one job after another;
* ``"thread"`` -- a thread pool; each job runs under a copy of the caller's
  context (:func:`repro.obs.trace.propagate`), so its spans join the trace;
* ``"process"`` -- a ``fork`` ``ProcessPoolExecutor``: jobs and results are
  pickled, workers inherit the parent's state (the backend registry
  included), and a dead worker raises ``BrokenProcessPool`` instead of
  hanging the caller.

:func:`map_jobs` opens a pool of ``min(workers, len(jobs))`` for one call;
:class:`WorkerPool` is the context-manager form that serves several calls.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.obs.trace import propagate

__all__ = ["MODES", "WorkerPool", "check_mode", "map_jobs"]

#: Executor modes of every fan-out.
MODES = ("serial", "thread", "process")

R = TypeVar("R")


def check_mode(mode: str) -> str:
    """Return ``mode``, raising ``ValueError`` if it is not one of :data:`MODES`."""
    if mode not in MODES:
        raise ValueError(f"executor must be one of {MODES}, got {mode!r}")
    return mode


class WorkerPool:
    """A pool of ``workers`` workers in ``mode``, closed on context exit.

    The pool itself is created at construction; a ``fork`` pool forks its
    workers at the first submitted job.
    """

    def __init__(self, mode: str, workers: int):
        self.mode = check_mode(mode)
        self._executor: Executor | None = None
        if mode == "thread":
            self._executor = ThreadPoolExecutor(max_workers=workers)
        elif mode == "process":
            self._executor = ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("fork")
            )

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._executor is not None:
            self._executor.shutdown()

    def map(self, fn: Callable[[Any], R], jobs: Iterable[Any]) -> list[R]:
        """``[fn(job) for job in jobs]``, run on the pool; re-raises a job's error."""
        if self._executor is None:
            return [fn(job) for job in jobs]
        if self.mode == "thread":
            futures = [self._executor.submit(propagate(fn, job)) for job in jobs]
        else:
            futures = [self._executor.submit(fn, job) for job in jobs]
        return [future.result() for future in futures]


def map_jobs(fn: Callable[[Any], R], jobs: Sequence[Any], *, mode: str, workers: int) -> list[R]:
    """Run ``fn`` on every job in ``mode`` and return the results in job order."""
    check_mode(mode)
    if not jobs:
        return []
    with WorkerPool(mode, min(workers, len(jobs))) as pool:
        return pool.map(fn, jobs)
