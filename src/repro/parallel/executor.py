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

:class:`WorkerPool` takes ``fn`` when it is built and serves any number of
:meth:`~WorkerPool.map` calls; :func:`map_jobs` is a one-shot pool of
``min(workers, len(jobs))`` workers.  In ``process`` mode the pool hands
``fn`` to its workers through the pool initializer: the forked workers
inherit it with the rest of the parent's memory, so ``fn`` is never pickled
and may be any callable -- a closure over the caller's assembler or scene,
say, or over an unpicklable lock.  Only the jobs and the results are
pickled.  Each pool forks its own workers with its own ``fn``, so
concurrent pools in several threads do not mix their callables.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Generic, Iterable, Sequence, TypeVar

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


#: The ``fn`` of the pool a worker process serves, set in the worker by the
#: pool initializer; never set in the parent.
_inherited: Callable[[Any], Any] | None = None


def _inherit(fn: Callable[[Any], Any]) -> None:
    """Pool initializer: keep the forked-in ``fn`` for :func:`_run_inherited`."""
    global _inherited
    _inherited = fn


def _run_inherited(job: Any) -> Any:
    """The job function a process pool pickles: run the inherited ``fn``."""
    assert _inherited is not None, "no callable was inherited by this worker"
    return _inherited(job)


class WorkerPool(Generic[R]):
    """A pool of ``workers`` workers in ``mode`` running ``fn``, closed on context exit.

    The pool itself is created at construction; a ``fork`` pool forks its
    workers, which inherit ``fn``, at the first submitted job.
    """

    def __init__(self, fn: Callable[[Any], R], mode: str, workers: int):
        self.mode = check_mode(mode)
        self._fn = fn
        self._executor: Executor | None = None
        if mode == "thread":
            self._executor = ThreadPoolExecutor(max_workers=workers)
        elif mode == "process":
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_inherit,
                initargs=(fn,),
            )

    def __enter__(self) -> WorkerPool[R]:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._executor is not None:
            self._executor.shutdown()

    def map(self, jobs: Iterable[Any]) -> list[R]:
        """``[fn(job) for job in jobs]``, run on the pool; re-raises a job's error."""
        if self._executor is None:
            return [self._fn(job) for job in jobs]
        if self.mode == "thread":
            futures = [self._executor.submit(propagate(self._fn, job)) for job in jobs]
        else:
            futures = [self._executor.submit(_run_inherited, job) for job in jobs]
        return [future.result() for future in futures]


def map_jobs(fn: Callable[[Any], R], jobs: Sequence[Any], *, mode: str, workers: int) -> list[R]:
    """Run ``fn`` on every job in ``mode`` and return the results in job order.

    A one-shot :class:`WorkerPool` of ``min(workers, len(jobs))`` workers;
    in ``process`` mode only the jobs and the results are pickled.
    """
    check_mode(mode)
    if not jobs:
        return []
    with WorkerPool(fn, mode, min(workers, len(jobs))) as pool:
        return pool.map(jobs)
