"""Sharded worker pools executing extraction jobs for the server.

One :class:`ShardPool` serves one backend class (see
:class:`~repro.serve.config.ShardSpec`): a bounded priority queue feeds
``workers`` asyncio worker tasks, each running the blocking extraction on
a private thread via the pool's executor while the event loop keeps
serving traffic.  Three layers keep repeated layouts from recomputing:

1. the **persistent store** -- a fingerprint already on disk is answered
   immediately, without touching the queue (``status == "cached"``);
2. **single-flight deduplication** -- requests arriving while an identical
   fingerprint is queued or running attach to the in-flight computation
   instead of enqueueing again (``status == "coalesced"``);
3. the per-shard :class:`~repro.engine.service.ExtractionService` wrapper,
   which contains per-request failures and reports compute seconds.

The pool resolves every submitted job's future with a JSON-ready payload,
so the server layer never blocks on anything but ``await``.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.engine.request import ExtractionRequest
from repro.engine.service import ExtractionService
from repro.obs import clock
from repro.obs.metrics import counter, gauge, histogram
from repro.obs.trace import SpanCarrier, attach, propagate, span
from repro.serve.config import ShardSpec
from repro.serve.queue import QueueClosed, RequestQueue
from repro.serve.store import ResultStore

__all__ = ["Job", "ShardPool"]

_ADMISSIONS = counter(
    "repro_serve_jobs_total",
    "Jobs submitted to a shard, by admission outcome (cached/coalesced/queued)",
    ("shard", "admission"),
)
_FINISHED = counter(
    "repro_serve_finished_total", "Shard jobs finished, by outcome", ("shard", "outcome")
)
_QUEUE_DEPTH = gauge("repro_queue_depth", "Current depth of a shard's request queue", ("shard",))
_QUEUE_WAIT = histogram(
    "repro_queue_wait_seconds", "Time a job spent waiting in the shard queue", ("shard",)
)
_INFLIGHT = gauge(
    "repro_shard_inflight", "Distinct fingerprints queued or running on a shard", ("shard",)
)


@dataclass
class Job:
    """One unit of shard work: an engine request plus its completion future."""

    request: ExtractionRequest
    fingerprint: str
    priority: int = 0
    future: asyncio.Future = field(default_factory=lambda: asyncio.get_running_loop().create_future())
    enqueued_at: float = field(default_factory=clock.now)
    #: Trace context of the originating HTTP request, if any: the worker
    #: task re-activates it so shard/engine/solver spans nest under
    #: ``serve.request`` even though the work hops tasks and threads.
    carrier: SpanCarrier | None = None


def _execute(service: ExtractionService, request: ExtractionRequest) -> dict:
    """Run one request on a worker thread and shape the response payload."""
    status = service.extract_batch([request]).statuses[0]
    payload: dict = {
        "backend": request.backend,
        "label": request.label,
        "seconds": status.seconds,
    }
    if status.result is not None:
        payload["result"] = status.result.as_dict()
        payload["error"] = None
    else:
        payload["result"] = None
        payload["error"] = status.error
    return payload


def _failure(request: ExtractionRequest, error: str) -> dict:
    """The payload of a request that produced no result."""
    return {
        "backend": request.backend,
        "label": request.label,
        "seconds": 0.0,
        "result": None,
        "error": error,
    }


class ShardPool:
    """Worker pool of one shard: queue in, resolved job futures out.

    Start with :meth:`start` (on a running loop), submit with
    :meth:`submit`, and stop with :meth:`drain` -- which closes the queue,
    lets already-accepted work finish, and joins the workers.
    """

    def __init__(self, spec: ShardSpec, store: ResultStore | None):
        self.spec = spec
        self.store = store
        self.queue = RequestQueue(maxsize=spec.queue_depth)
        # The per-shard engine service is purely the execution wrapper
        # (failure containment + timing): caching is owned by the store
        # and the in-flight map, which also survive where an in-memory
        # LRU would not.
        self._service = ExtractionService(executor="serial", cache_capacity=0)
        self._executor = ThreadPoolExecutor(
            max_workers=spec.workers, thread_name_prefix=f"shard-{spec.name}"
        )
        self._workers: list[asyncio.Task] = []
        self._inflight: dict[str, list[Job]] = {}
        self.completed = 0
        self.failed = 0
        self.cache_hits = 0
        self.coalesced = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker tasks (requires a running event loop)."""
        if self._workers:
            raise RuntimeError(f"shard {self.spec.name!r} is already started")
        self._workers = [
            asyncio.create_task(self._work(), name=f"shard-{self.spec.name}-{index}")
            for index in range(self.spec.workers)
        ]

    def submit(self, job: Job) -> str:
        """Accept a job and return how it will be served.

        Returns ``"cached"`` (store hit, future already resolved),
        ``"coalesced"`` (attached to an identical in-flight job) or
        ``"queued"``.  Raises :class:`~repro.serve.queue.QueueFull` at
        bounded depth and :class:`~repro.serve.queue.QueueClosed` while
        draining -- the server maps those to 429 / 503.
        """
        if self.store is not None:
            stored = self.store.get(job.fingerprint)
            if stored is not None:
                self.cache_hits += 1
                _ADMISSIONS.inc(shard=self.spec.name, admission="cached")
                job.future.set_result({**stored, "status": "cached", "shard": self.spec.name})
                return "cached"
        waiters = self._inflight.get(job.fingerprint)
        if waiters is not None:
            waiters.append(job)
            self.coalesced += 1
            _ADMISSIONS.inc(shard=self.spec.name, admission="coalesced")
            return "coalesced"
        self._inflight[job.fingerprint] = [job]
        try:
            self.queue.put_nowait(job, priority=job.priority)
        except Exception:
            del self._inflight[job.fingerprint]
            raise
        _ADMISSIONS.inc(shard=self.spec.name, admission="queued")
        _QUEUE_DEPTH.set(self.queue.qsize(), shard=self.spec.name)
        _INFLIGHT.set(len(self._inflight), shard=self.spec.name)
        return "queued"

    # ------------------------------------------------------------------
    async def _work(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                job = await self.queue.get()
            except QueueClosed:
                return
            _QUEUE_DEPTH.set(self.queue.qsize(), shard=self.spec.name)
            queue_wait = max(clock.now() - job.enqueued_at, 0.0)
            _QUEUE_WAIT.observe(queue_wait, shard=self.spec.name)
            # Re-activate the request's trace (attach) so the dispatch span
            # nests under serve.request, then carry the context onto the
            # executor thread (propagate) so engine/solver spans follow.
            with attach(job.carrier):
                with span("shard.dispatch", shard=self.spec.name, queue_wait_seconds=queue_wait):
                    try:
                        payload = await loop.run_in_executor(
                            self._executor, propagate(_execute, self._service, job.request)
                        )
                    except Exception as exc:  # service contains backend errors; belt-and-braces
                        payload = _failure(job.request, f"{type(exc).__name__}: {exc}")
            self._finish(job.fingerprint, payload)

    def _finish(self, fingerprint: str, payload: dict) -> None:
        failed = payload.get("error") is not None
        _FINISHED.inc(shard=self.spec.name, outcome="failed" if failed else "completed")
        if failed:
            self.failed += 1
        else:
            self.completed += 1
            if self.store is not None:
                # Persist only the cacheable fields: "status"/"shard" are
                # per-response, and a failure must never be served again.
                self.store.put(fingerprint, {**payload, "fingerprint": fingerprint})
        waiters = self._inflight.pop(fingerprint, [])
        _INFLIGHT.set(len(self._inflight), shard=self.spec.name)
        for index, job in enumerate(waiters):
            if job.future.done():  # client went away mid-compute
                continue
            status = "failed" if failed else ("completed" if index == 0 else "coalesced")
            job.future.set_result({**payload, "status": status, "shard": self.spec.name})

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Close the queue, finish accepted work, and join the workers.

        A cancelled drain (the server's drain timeout) answers every job it
        has not finished with an error, so no request waits on it forever.
        """
        self.queue.close()
        if self._workers:
            try:
                await asyncio.gather(*self._workers, return_exceptions=True)
            except asyncio.CancelledError:
                for fingerprint, waiters in list(self._inflight.items()):
                    self._finish(fingerprint, _failure(waiters[0].request, "abandoned by server shutdown"))
                raise
            self._workers = []
        self._executor.shutdown(wait=True)

    def stats(self) -> dict:
        """Queue depth plus lifetime outcome counters for ``/v1/stats``."""
        return {
            "backends": list(self.spec.backends),
            "workers": self.spec.workers,
            "queue": self.queue.stats(),
            "completed": self.completed,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "inflight": len(self._inflight),
        }
