"""The asyncio HTTP extraction server.

:class:`ExtractionServer` binds the pieces together: it accepts HTTP
connections, parses requests through :mod:`repro.serve.protocol`, routes
each extraction to the shard owning its backend
(:mod:`repro.serve.shards`), and answers from the persistent result store
(:mod:`repro.serve.store`) whenever the request fingerprint has been
solved before -- by any client, in any previous process.

Endpoints
---------
``GET /healthz``
    Liveness: ``{"status": "ok"}`` (``"draining"`` during shutdown).
``GET /metrics``
    Prometheus text exposition of the process-wide metrics registry.
``GET /v1/backends``
    The registered backend names and descriptions.
``GET /v1/stats``
    Store hit/miss counters, aggregate queue state and per-shard counters.
``POST /v1/extract``
    One extraction spec in, one JSON result out.  Overload answers 429
    (bounded queue), bad specs 400, backend failures 500.  With
    ``?trace=1`` the response inlines the request's span tree.
``POST /v1/batch``
    A JSON array of specs in; streamed NDJSON out -- one progress line per
    request *as it completes* plus a trailing summary line.

Every request runs under its own trace (``serve.request`` root span); the
trace id is echoed in an ``X-Trace-Id`` header on every response and
stamped on the server's JSON log lines.

Shutdown is graceful: :meth:`ExtractionServer.shutdown` stops accepting,
answers in-progress connections with 503, drains every shard queue, joins
the workers and closes the connections still open before returning.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.engine.registry import available_backends, get_backend
from repro.obs import clock
from repro.obs.logging import configure_logging, get_logger
from repro.obs.metrics import counter, histogram, render_metrics
from repro.obs.trace import carrier, current_trace, start_trace
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    HttpRequest,
    ProtocolError,
    SpecError,
    build_request,
    end_ndjson,
    last_response_status,
    parse_extract_spec,
    read_request,
    send_json,
    send_ndjson_line,
    send_text,
    start_ndjson,
)
from repro.serve.queue import QueueClosed, QueueFull
from repro.serve.shards import Job, ShardPool
from repro.serve.store import ResultStore

__all__ = ["ExtractionServer", "run_server"]

_logger = get_logger("serve")

#: How long shutdown waits for the handlers of the connections it closed
#: before cancelling those still running (closing does not unblock a
#: handler whose client stopped reading mid-response).
_CLOSE_GRACE_SECONDS = 1.0

#: Known routes; anything else is labelled "other" to bound metric cardinality.
_ROUTES = ("/healthz", "/metrics", "/v1/backends", "/v1/stats", "/v1/extract", "/v1/batch")

_HTTP_REQUESTS = counter(
    "repro_http_requests_total", "HTTP requests served, by route and status", ("route", "status")
)
_HTTP_SECONDS = histogram(
    "repro_http_request_seconds", "Wall time to serve one HTTP request", ("route",)
)


class ExtractionServer:
    """Long-running extraction service over one :class:`ServeConfig`."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.store: ResultStore | None = (
            ResultStore(self.config.cache_dir) if self.config.cache_dir is not None else None
        )
        self.shards: dict[str, ShardPool] = {}
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._started_at = 0.0
        self._requests_seen = 0
        #: Open connections: each handler task and its stream writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`; 0 before)."""
        if self._server is None or not self._server.sockets:
            return 0
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def draining(self) -> bool:
        """Whether shutdown has begun (new work is answered 503)."""
        return self._draining

    async def start(self) -> None:
        """Bind the listening socket and spawn the shard workers."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self.shards = {spec.name: ShardPool(spec, self.store) for spec in self.config.shards}
        for pool in self.shards.values():
            pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self._started_at = clock.now()

    async def serve_forever(self) -> None:
        """Serve until cancelled (``start`` must have been called)."""
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Stop accepting, drain the shard queues, join the workers, close connections.

        A drain that outlasts ``drain_seconds`` answers the work it abandons
        with an error; a handler still running ``_CLOSE_GRACE_SECONDS``
        after its connection is closed is cancelled.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        try:
            await asyncio.wait_for(
                asyncio.gather(*(pool.drain() for pool in self.shards.values())),
                timeout=self.config.drain_seconds or None,
            )
        except asyncio.TimeoutError:
            pass
        # Close the connections still open (idle keep-alive ones included)
        # and let their handlers finish here, not be cancelled at loop exit.
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            _, stuck = await asyncio.wait(list(self._connections), timeout=_CLOSE_GRACE_SECONDS)
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        try:
            while True:
                try:
                    request = await read_request(reader, self.config.max_body_bytes)
                except ProtocolError as exc:
                    await send_json(writer, exc.status, {"error": str(exc)})
                    break
                if request is None:
                    break
                self._requests_seen += 1
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive or not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        finally:
            del self._connections[task]
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: HttpRequest, writer: asyncio.StreamWriter) -> bool:
        """Route one request under its own trace; returns keep-alive."""
        route_label = request.path if request.path in _ROUTES else "other"
        begin = clock.now()
        with start_trace("serve.request", method=request.method, path=request.path):
            keep_alive = await self._route(request, writer)
        _HTTP_REQUESTS.inc(route=route_label, status=str(last_response_status()))
        _HTTP_SECONDS.observe(clock.now() - begin, route=route_label)
        return keep_alive

    async def _route(self, request: HttpRequest, writer: asyncio.StreamWriter) -> bool:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            await send_json(writer, 200, {"status": "draining" if self._draining else "ok"})
            return True
        if route == ("GET", "/metrics"):
            await send_text(writer, 200, render_metrics(), content_type="text/plain; version=0.0.4")
            return True
        if route == ("GET", "/v1/backends"):
            payload = [
                {"name": name, "description": get_backend(name).description}
                for name in available_backends()
            ]
            await send_json(writer, 200, {"backends": payload})
            return True
        if route == ("GET", "/v1/stats"):
            await send_json(writer, 200, self.stats())
            return True
        if route == ("POST", "/v1/extract"):
            return await self._handle_extract(request, writer)
        if route == ("POST", "/v1/batch"):
            return await self._handle_batch(request, writer)
        if request.path in _ROUTES:
            await send_json(writer, 405, {"error": f"{request.method} not allowed on {request.path}"})
            return True
        await send_json(writer, 404, {"error": f"no route for {request.method} {request.path}"})
        return True

    # ------------------------------------------------------------------
    def _submit_spec(self, payload: object) -> Job:
        """Validate a spec, build the layout, and hand the job to its shard.

        Raises :class:`SpecError` (bad spec / unknown backend),
        :class:`QueueFull` (backpressure) or :class:`QueueClosed`
        (draining); the callers translate these to 400 / 429 / 503.
        """
        spec = parse_extract_spec(payload)
        if spec.backend not in available_backends():
            raise SpecError(
                f"unknown backend {spec.backend!r}; available: {', '.join(available_backends())}"
            )
        engine_request = build_request(spec)
        job = Job(
            request=engine_request,
            fingerprint=engine_request.fingerprint(),
            priority=spec.priority,
            carrier=carrier(),
        )
        self.shards[self.config.shard_for(spec.backend).name].submit(job)
        return job

    async def _handle_extract(self, request: HttpRequest, writer: asyncio.StreamWriter) -> bool:
        if self._draining:
            await send_json(writer, 503, {"error": "server is draining"})
            return False
        try:
            job = self._submit_spec(request.json())
        except ProtocolError as exc:
            await send_json(writer, exc.status, {"error": str(exc)})
            return True
        except SpecError as exc:
            await send_json(writer, 400, {"error": str(exc)})
            return True
        except QueueFull as exc:
            await send_json(writer, 429, {"error": str(exc)}, extra_headers={"Retry-After": "1"})
            return True
        except QueueClosed:
            await send_json(writer, 503, {"error": "server is draining"})
            return False
        payload = await job.future
        payload = {**payload, "fingerprint": job.fingerprint}
        # The trace fields are added after the future resolves, at the
        # response edge: they are per-request and must never be persisted
        # by the result store.
        trace = current_trace()
        if trace is not None:
            payload["trace_id"] = trace.trace_id
            if request.query.get("trace") in ("1", "true", "yes"):
                payload["trace"] = trace.tree()
        status = 500 if payload.get("error") is not None else 200
        await send_json(writer, status, payload)
        return True

    async def _handle_batch(self, request: HttpRequest, writer: asyncio.StreamWriter) -> bool:
        if self._draining:
            await send_json(writer, 503, {"error": "server is draining"})
            return False
        try:
            specs = request.json()
        except ProtocolError as exc:
            await send_json(writer, exc.status, {"error": str(exc)})
            return True
        if not isinstance(specs, list) or not specs:
            await send_json(writer, 400, {"error": "batch body must be a non-empty JSON array of specs"})
            return True

        # Submit everything up front (so identical specs coalesce and the
        # queue sees the whole burst), then stream each completion line
        # the moment it lands -- the client watches progress, not silence.
        early: list[dict] = []
        pending: dict[asyncio.Future, tuple[int, Job]] = {}
        for index, payload in enumerate(specs):
            try:
                job = self._submit_spec(payload)
            except SpecError as exc:
                early.append({"index": index, "status": "rejected", "error": str(exc)})
                continue
            except QueueFull as exc:
                early.append({"index": index, "status": "rejected", "error": f"429: {exc}"})
                continue
            except QueueClosed:
                early.append({"index": index, "status": "rejected", "error": "503: server is draining"})
                continue
            pending[job.future] = (index, job)

        counters = {"rejected": len(early), "failed": 0, "served": 0}
        await start_ndjson(writer)
        for line in early:  # rejections are known before any compute lands
            await send_ndjson_line(writer, line)
        while pending:
            done, _ = await asyncio.wait(list(pending), return_when=asyncio.FIRST_COMPLETED)
            for future in done:
                index, job = pending.pop(future)
                result = future.result()
                counters["failed" if result.get("error") is not None else "served"] += 1
                await send_ndjson_line(writer, {"index": index, "fingerprint": job.fingerprint, **result})
        summary: dict = {"summary": True, "total": len(specs), **counters}
        trace = current_trace()
        if trace is not None:
            summary["trace_id"] = trace.trace_id
            if request.query.get("trace") in ("1", "true", "yes"):
                summary["trace"] = trace.tree()
        await send_ndjson_line(writer, summary)
        await end_ndjson(writer)
        return False  # chunked stream ends the connection's useful life

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Machine-readable service state (the ``/v1/stats`` payload)."""
        per_shard_queues = {name: pool.queue.stats() for name, pool in self.shards.items()}
        return {
            "draining": self._draining,
            "uptime_seconds": clock.now() - self._started_at if self._started_at else 0.0,
            "requests_seen": self._requests_seen,
            "store": self.store.stats() if self.store is not None else None,
            # Top-level queue visibility: is the service backed up, and how
            # badly has it ever been -- without digging through the shards.
            "queues": {
                "depth": sum(q["depth"] for q in per_shard_queues.values()),
                "enqueued": sum(q["enqueued"] for q in per_shard_queues.values()),
                "rejected": sum(q["rejected"] for q in per_shard_queues.values()),
                "max_depth": max((q["max_depth"] for q in per_shard_queues.values()), default=0),
                "per_shard": per_shard_queues,
            },
            "shards": {name: pool.stats() for name, pool in self.shards.items()},
        }


def run_server(config: ServeConfig | None = None) -> None:
    """Blocking entry point of ``python -m repro serve``.

    Installs SIGINT/SIGTERM handlers that trigger the graceful drain, so
    Ctrl-C finishes accepted work instead of dropping it.
    """
    import signal

    configure_logging()

    async def _main() -> None:
        server = ExtractionServer(config)
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        cache = server.store.root if server.store is not None else None
        _logger.info(
            "serving extraction",
            extra={
                "host": server.config.host,
                "port": server.port,
                "cache": str(cache) if cache is not None else "disabled",
                "endpoints": list(_ROUTES),
            },
        )
        serve_task = asyncio.create_task(server.serve_forever())
        await stop.wait()
        _logger.info("draining")
        await server.shutdown()
        serve_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serve_task
        _logger.info("drained")

    asyncio.run(_main())
