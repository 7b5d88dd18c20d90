"""Batched extraction service with bounded fan-out and result caching.

:class:`ExtractionService` is the serving layer of the engine: it accepts a
batch of :class:`~repro.engine.request.ExtractionRequest` objects, fans the
distinct jobs out over a bounded worker pool
(:func:`repro.parallel.executor.map_jobs`), deduplicates identical
requests (within the batch and against previous batches via a fingerprint-
keyed LRU cache), and reports per-request status plus aggregate throughput.

Failures are contained: a backend raising on one request marks that request
``"failed"`` in the report instead of aborting the batch; a killed worker
process (``BrokenProcessPool``) marks every request of its batch ``"failed"``.
"""

from __future__ import annotations

import copy
import os
from collections import OrderedDict
from typing import Iterable, Sequence

from repro.core.results import ExtractionResult
from repro.engine.registry import backend_generation, get_backend
from repro.engine.request import DEFAULT_BACKEND, BatchReport, ExtractionRequest, RequestStatus
from repro.geometry.layout import Layout
from repro.obs import clock
from repro.obs.logging import get_logger
from repro.obs.metrics import counter, histogram
from repro.obs.trace import span
from repro.parallel.executor import check_mode, map_jobs

__all__ = ["ExtractionService"]

_logger = get_logger("engine.service")

#: Fingerprint-keyed LRU outcomes of every :class:`ExtractionService`.
_CACHE_LOOKUPS = counter(
    "repro_engine_cache_lookups_total", "ExtractionService LRU cache lookups", ("result",)
)
_EXTRACTIONS = counter(
    "repro_engine_extractions_total", "Backend extractions executed", ("backend", "outcome")
)
_EXTRACT_SECONDS = histogram(
    "repro_engine_extract_seconds", "Wall time of one backend extraction", ("backend",)
)


def _execute_request(backend_name: str, layout: Layout, options: dict) -> tuple[ExtractionResult, float]:
    """Run one request and time it."""
    with span("engine.extract", backend=backend_name):
        start = clock.now()
        try:
            result = get_backend(backend_name).extract(layout, **options)
        except Exception:
            _EXTRACTIONS.inc(backend=backend_name, outcome="failed")
            raise
        seconds = clock.now() - start
    _EXTRACTIONS.inc(backend=backend_name, outcome="completed")
    _EXTRACT_SECONDS.observe(seconds, backend=backend_name)
    return result, seconds


def _execute_contained(job: tuple[str, Layout, dict]) -> tuple[ExtractionResult | None, float, str | None]:
    """Run one ``(backend, layout, options)`` job; a failure becomes its error text."""
    try:
        result, seconds = _execute_request(*job)
    except Exception as exc:  # contain per-request failures
        return None, 0.0, f"{type(exc).__name__}: {exc}"
    return result, seconds, None


class ExtractionService:
    """Serve batches of extraction requests through the backend registry.

    Parameters
    ----------
    max_workers:
        Concurrency bound of the fan-out.  Defaults to ``os.cpu_count()``
        (capped at 8) for the pooled executors and is ignored in ``"serial"``
        mode.
    executor:
        ``"thread"`` (default) runs requests on a thread pool -- the numpy
        kernels release the GIL for the heavy parts; ``"process"`` uses
        forked worker processes for full parallelism at pickling cost;
        ``"serial"`` runs inline, which is deterministic and simplest to debug.
    cache_capacity:
        Maximum number of results kept in the fingerprint-keyed LRU cache;
        ``0`` disables caching.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        executor: str = "thread",
        cache_capacity: int = 256,
    ):
        check_mode(executor)
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if cache_capacity < 0:
            raise ValueError(f"cache_capacity must be >= 0, got {cache_capacity}")
        self.executor = executor
        self.max_workers = max_workers
        self.cache_capacity = int(cache_capacity)
        self._cache: OrderedDict[str, ExtractionResult] = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        """Hit/miss counters and current cache occupancy."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "size": len(self._cache),
            "capacity": self.cache_capacity,
        }

    def clear_cache(self) -> None:
        """Drop all cached results and reset the counters."""
        self._cache.clear()
        self._cache_hits = 0
        self._cache_misses = 0

    def _cache_get(self, fingerprint: str) -> ExtractionResult | None:
        # Hand out a deep copy: results hold mutable arrays (capacitance,
        # charges, metadata), and a caller mutating a cache hit must not
        # corrupt what later identical requests are served.
        result = self._cache.get(fingerprint)
        if result is None:
            return None
        self._cache.move_to_end(fingerprint)
        return copy.deepcopy(result)

    def _cache_put(self, fingerprint: str, result: ExtractionResult) -> None:
        if self.cache_capacity == 0:
            return
        # Store a deep copy for the same reason _cache_get returns one: the
        # freshly computed result object is also returned to the caller.
        self._cache[fingerprint] = copy.deepcopy(result)
        self._cache.move_to_end(fingerprint)
        while len(self._cache) > self.cache_capacity:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def extract(
        self,
        layout: Layout,
        backend: str = DEFAULT_BACKEND,
        label: str | None = None,
        **options,
    ) -> ExtractionResult:
        """Serve a single request, re-raising any backend failure."""
        request = ExtractionRequest(layout=layout, backend=backend, options=options, label=label)
        status = self.extract_batch([request]).statuses[0]
        if status.result is None:
            raise RuntimeError(
                f"extraction failed for backend {backend!r}: {status.error}"
            )
        return status.result

    def extract_batch(self, requests: Iterable[ExtractionRequest]) -> BatchReport:
        """Serve a batch of requests and report per-request status.

        Identical requests (same fingerprint) are solved once: repeats are
        served from the cache when seen in an earlier batch, or
        deduplicated against the first occurrence within this batch.
        """
        batch: Sequence[ExtractionRequest] = list(requests)
        wall_start = clock.now()
        fingerprints = [request.fingerprint() for request in batch]
        # The cache key folds in the registry generation of the backend name,
        # so replacing a backend (register_backend(..., replace=True))
        # invalidates results computed by the previous implementation.
        keys = [
            f"{fingerprint}:{backend_generation(request.backend)}"
            for fingerprint, request in zip(fingerprints, batch)
        ]

        # Partition into cached, first-occurrence (to run) and duplicates.
        outcomes: dict[str, tuple[ExtractionResult | None, float, str | None]] = {}
        to_run: list[tuple[str, ExtractionRequest]] = []
        pending: set[str] = set()
        cached_keys: set[str] = set()
        for key, request in zip(keys, batch):
            if key in outcomes or key in pending:
                continue
            cached = self._cache_get(key)
            if cached is not None:
                outcomes[key] = (cached, 0.0, None)
                cached_keys.add(key)
                self._cache_hits += 1
                _CACHE_LOOKUPS.inc(result="hit")
            else:
                to_run.append((key, request))
                pending.add(key)
                self._cache_misses += 1
                _CACHE_LOOKUPS.inc(result="miss")

        for key, outcome in self._run(to_run):
            outcomes[key] = outcome
            result = outcome[0]
            if result is not None:
                self._cache_put(key, result)

        # Assemble per-request statuses in request order.
        statuses: list[RequestStatus] = []
        first_seen: set[str] = set()
        cache_hits = 0
        for index, (key, fingerprint, request) in enumerate(zip(keys, fingerprints, batch)):
            result, seconds, error = outcomes[key]
            duplicate = key in first_seen
            first_seen.add(key)
            if error is not None:
                status = "failed"
            elif key in cached_keys or duplicate:
                status = "cached"
                cache_hits += 1
            else:
                status = "completed"
            statuses.append(
                RequestStatus(
                    index=index,
                    label=request.label,
                    backend=request.backend,
                    fingerprint=fingerprint,
                    status=status,
                    seconds=seconds if status == "completed" else 0.0,
                    error=error,
                    result=result,
                )
            )
        return BatchReport(
            statuses=statuses,
            wall_seconds=clock.now() - wall_start,
            cache_hits=cache_hits,
            cache_info=self.cache_info(),
        )

    # ------------------------------------------------------------------
    def _run(
        self, jobs: Sequence[tuple[str, ExtractionRequest]]
    ) -> list[tuple[str, tuple[ExtractionResult | None, float, str | None]]]:
        """Execute the deduplicated jobs under the configured executor."""
        # A single job on the thread executor runs inline; a process pool is
        # always honoured so its isolation does not depend on the batch size.
        mode = "serial" if self.executor == "thread" and len(jobs) == 1 else self.executor
        workers = self.max_workers or min(os.cpu_count() or 1, 8)
        work = [(request.backend, request.layout, request.options) for _, request in jobs]
        try:
            outcomes = map_jobs(_execute_contained, work, mode=mode, workers=workers)
        except Exception as exc:  # the pool failed (a killed worker, an unpicklable job)
            outcomes = [(None, 0.0, f"{type(exc).__name__}: {exc}") for _ in jobs]
        for (_, request), (_, _, error) in zip(jobs, outcomes):
            if error is not None:
                _logger.warning(
                    "extraction failed", extra={"backend": request.backend, "error": error}
                )
        return [(key, outcome) for (key, _), outcome in zip(jobs, outcomes)]
