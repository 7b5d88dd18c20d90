"""The one worker-pool seam behind every compute fan-out of the package.

The parallel assemblers (paper Sections 5.1/5.2), the H-matrix build, the
FRW estimator and the extraction service map independent jobs, results in
job order, in one of the :data:`MODES`:

* ``"serial"`` -- inline, one job after another;
* ``"thread"`` -- a thread pool; each job runs under a copy of the caller's
  context (:func:`repro.obs.trace.propagate`), so its spans join the trace;
* ``"process"`` -- a ``fork`` ``ProcessPoolExecutor``: workers inherit the
  parent's state (the backend registry included), jobs and results are
  pickled, and a dead worker raises ``BrokenProcessPool`` instead of
  hanging the caller.

:func:`map_jobs` opens a pool of ``min(workers, len(jobs))`` for one call.
In ``process`` mode that pool hands ``fn`` to its workers through the pool
initializer: the forked workers inherit it with the rest of the parent's
memory, so ``fn`` is never pickled and may be any callable -- a closure
over the caller's assembler, say, or over an unpicklable lock.  Each call
forks its own workers with its own ``fn``, so concurrent calls from several
threads do not mix their callables.  :class:`WorkerPool` is the
context-manager form that serves several calls; its ``process`` mode
pickles ``fn`` with every job, so there it must be a module-level function.
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


def _fork_executor(workers: int, inherited: Callable[[Any], Any] | None = None) -> Executor:
    """A ``fork`` process pool; its workers inherit ``inherited``, unpickled."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=None if inherited is None else _inherit,
        initargs=() if inherited is None else (inherited,),
    )


#: The ``fn`` of the per-call pool a worker process serves, set in the
#: worker by the pool initializer; never set in the parent.
_inherited: Callable[[Any], Any] | None = None


def _inherit(fn: Callable[[Any], Any]) -> None:
    """Pool initializer: keep the forked-in ``fn`` for :func:`_run_inherited`."""
    global _inherited
    _inherited = fn


def _run_inherited(job: Any) -> Any:
    """The job function a per-call pool pickles: run the inherited ``fn``."""
    assert _inherited is not None, "no callable was inherited by this worker"
    return _inherited(job)


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
            self._executor = _fork_executor(workers)

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
    """Run ``fn`` on every job in ``mode`` and return the results in job order.

    In ``process`` mode the workers inherit ``fn`` when they are forked, so
    only the jobs and the results are pickled.
    """
    check_mode(mode)
    if not jobs:
        return []
    workers = min(workers, len(jobs))
    if mode != "process":
        with WorkerPool(mode, workers) as pool:
            return pool.map(fn, jobs)
    executor = _fork_executor(workers, inherited=fn)
    try:
        futures = [executor.submit(_run_inherited, job) for job in jobs]
        return [future.result() for future in futures]
    finally:
        executor.shutdown()
