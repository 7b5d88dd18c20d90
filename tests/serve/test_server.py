"""End-to-end tests of the asyncio extraction server (real sockets)."""

from __future__ import annotations

import asyncio
import logging
import threading
import time

import numpy as np
import pytest

from repro.engine.registry import register_backend, unregister_backend
from repro.serve.client import request_json, stream_batch
from repro.serve.config import ServeConfig, ShardSpec
from repro.serve.server import ExtractionServer

SPEC = {"generator": "crossing_wires", "backend": "instantiable"}


def _config(tmp_path, **overrides) -> ServeConfig:
    defaults = dict(host="127.0.0.1", port=0, cache_dir=tmp_path / "cache")
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def _with_server(config: ServeConfig, scenario):
    """Start a server, run the scenario coroutine, always drain."""
    server = ExtractionServer(config)
    await server.start()
    try:
        return await scenario(server)
    finally:
        await server.shutdown()


def run(config, scenario):
    return asyncio.run(_with_server(config, scenario))


class _SlowBackend:
    """A registrable backend that blocks until released (for 429/drain tests)."""

    name = "test-slow"
    description = "test backend that sleeps"

    def __init__(self, seconds: float = 0.3):
        self.seconds = seconds
        self.calls = 0

    def extract(self, layout, **options):
        from repro.core.results import ExtractionResult

        self.calls += 1
        time.sleep(self.seconds)
        return ExtractionResult(
            capacitance=np.eye(len(layout.conductors)),
            conductor_names=[c.name for c in layout.conductors],
            backend=self.name,
        )


@pytest.fixture
def slow_backend():
    backend = _SlowBackend()
    register_backend(backend, replace=True)
    yield backend
    unregister_backend(backend.name)


class TestEndpoints:
    def test_healthz_backends_stats(self, tmp_path):
        async def scenario(server):
            host, port = server.config.host, server.port
            health = await request_json(host, port, "GET", "/healthz")
            backends = await request_json(host, port, "GET", "/v1/backends")
            stats = await request_json(host, port, "GET", "/v1/stats")
            missing = await request_json(host, port, "GET", "/nope")
            wrong_method = await request_json(host, port, "GET", "/v1/extract")
            return health, backends, stats, missing, wrong_method

        health, backends, stats, missing, wrong_method = run(_config(tmp_path), scenario)
        assert health == (200, {"status": "ok"})
        assert backends[0] == 200
        names = {entry["name"] for entry in backends[1]["backends"]}
        assert {"instantiable", "pwc-dense", "galerkin-aca"} <= names
        assert stats[0] == 200
        assert set(stats[1]["shards"]) == {"dense", "iterative", "compressed"}
        assert stats[1]["store"]["stored"] == 0
        assert missing[0] == 404
        assert wrong_method[0] == 405

    def test_extract_then_persistent_cache_hit(self, tmp_path):
        async def scenario(server):
            host, port = server.config.host, server.port
            first = await request_json(host, port, "POST", "/v1/extract", SPEC)
            second = await request_json(host, port, "POST", "/v1/extract", SPEC)
            stats = await request_json(host, port, "GET", "/v1/stats")
            return first, second, stats

        first, second, stats = run(_config(tmp_path), scenario)
        assert first[0] == 200 and first[1]["status"] == "completed"
        assert second[0] == 200 and second[1]["status"] == "cached"
        assert first[1]["fingerprint"] == second[1]["fingerprint"]
        # Byte-identical capacitance: the cached payload IS the stored one.
        assert first[1]["result"]["capacitance_farad"] == second[1]["result"]["capacitance_farad"]
        assert first[1]["result"]["num_unknowns"] > 0
        assert second[1]["seconds"] == first[1]["seconds"]  # echoed, not recomputed
        assert stats[1]["store"]["stored"] == 1

    def test_cache_survives_server_restart(self, tmp_path):
        """The acceptance criterion: restart, same request, no recompute."""
        config = _config(tmp_path)

        async def compute(server):
            return await request_json(server.config.host, server.port, "POST", "/v1/extract", SPEC)

        first = asyncio.run(_with_server(config, compute))
        second = asyncio.run(_with_server(config, compute))
        assert first[1]["status"] == "completed"
        assert second[1]["status"] == "cached"

    def test_bad_spec_and_unknown_backend_are_400(self, tmp_path):
        async def scenario(server):
            host, port = server.config.host, server.port
            bad = await request_json(host, port, "POST", "/v1/extract", {"generator": "nope"})
            unknown = await request_json(
                host, port, "POST", "/v1/extract", {**SPEC, "backend": "no-such"}
            )
            not_json = await request_json(host, port, "POST", "/v1/extract", "just a string")
            return bad, unknown, not_json

        bad, unknown, not_json = run(_config(tmp_path), scenario)
        assert bad[0] == 400 and "unknown generator" in bad[1]["error"]
        assert unknown[0] == 400 and "unknown backend" in unknown[1]["error"]
        assert not_json[0] == 400

    def test_backend_failure_is_500_and_not_cached(self, tmp_path):
        spec = {"generator": "crossing_wires", "backend": "pwc-dense", "options": {"cells_per_edge": -3}}

        async def scenario(server):
            host, port = server.config.host, server.port
            first = await request_json(host, port, "POST", "/v1/extract", spec)
            second = await request_json(host, port, "POST", "/v1/extract", spec)
            return first, second

        first, second = run(_config(tmp_path), scenario)
        assert first[0] == 500 and first[1]["status"] == "failed"
        assert first[1]["error"]
        assert second[0] == 500 and second[1]["status"] == "failed"  # failures never cached


class TestBackpressureAndCoalescing:
    def test_queue_overflow_answers_429(self, tmp_path, slow_backend):
        config = _config(
            tmp_path,
            shards=(ShardSpec(name="only", backends=(), workers=1, queue_depth=1),),
        )

        async def scenario(server):
            host, port = server.config.host, server.port
            specs = [
                {
                    "generator": "crossing_wires",
                    "params": {"separation": (1 + i) * 1e-6},
                    "backend": "test-slow",
                }
                for i in range(6)
            ]
            responses = await asyncio.gather(
                *(request_json(host, port, "POST", "/v1/extract", spec) for spec in specs)
            )
            return responses

        responses = run(config, scenario)
        statuses = sorted(status for status, _ in responses)
        assert 429 in statuses, f"expected at least one 429, got {statuses}"
        assert 200 in statuses, f"expected at least one success, got {statuses}"
        rejected = [body for status, body in responses if status == 429]
        assert all("bounded depth" in body["error"] for body in rejected)

    def test_concurrent_identical_requests_coalesce(self, tmp_path, slow_backend):
        spec = {"generator": "crossing_wires", "backend": "test-slow"}

        async def scenario(server):
            host, port = server.config.host, server.port
            return await asyncio.gather(
                *(request_json(host, port, "POST", "/v1/extract", spec) for _ in range(4))
            )

        responses = run(_config(tmp_path), scenario)
        assert all(status == 200 for status, _ in responses)
        statuses = sorted(body["status"] for _, body in responses)
        assert statuses.count("completed") == 1
        assert set(statuses) <= {"completed", "coalesced", "cached"}
        assert slow_backend.calls == 1  # the whole burst cost one solve


class TestBatchStreaming:
    def test_ndjson_progress_and_summary(self, tmp_path):
        specs = [
            dict(SPEC),
            {"generator": "crossing_wires", "params": {"separation": 2e-6}, "backend": "instantiable"},
            dict(SPEC),  # duplicate of the first: coalesces or hits the cache
            {"generator": "bogus"},  # rejected inline
        ]

        async def scenario(server):
            lines = []
            async for line in stream_batch(server.config.host, server.port, specs):
                lines.append(line)
            return lines

        lines = run(_config(tmp_path), scenario)
        summary = lines[-1]
        assert summary["summary"] is True
        assert summary["total"] == 4
        assert summary["rejected"] == 1
        assert summary["served"] == 3
        by_index = {line["index"]: line for line in lines[:-1]}
        assert set(by_index) == {0, 1, 2, 3}
        assert by_index[3]["status"] == "rejected"
        assert by_index[0]["result"] is not None
        assert by_index[2]["status"] in {"coalesced", "cached", "completed"}
        # Identical specs resolved to the same fingerprint (solved once).
        assert by_index[0]["fingerprint"] == by_index[2]["fingerprint"]

    def test_empty_batch_is_400(self, tmp_path):
        async def scenario(server):
            with pytest.raises(RuntimeError, match="400"):
                async for _ in stream_batch(server.config.host, server.port, []):
                    pass

        run(_config(tmp_path), scenario)


class TestGracefulShutdown:
    def test_drain_finishes_accepted_work(self, tmp_path, slow_backend):
        """Shutdown waits for the in-flight extraction instead of dropping it."""
        config = _config(tmp_path)

        async def scenario():
            server = ExtractionServer(config)
            await server.start()
            host, port = server.config.host, server.port
            spec = {"generator": "crossing_wires", "backend": "test-slow"}
            inflight = asyncio.create_task(request_json(host, port, "POST", "/v1/extract", spec))
            await asyncio.sleep(0.1)  # let it reach the worker
            await server.shutdown()
            status, body = await inflight
            return status, body, server.draining

        status, body, draining = asyncio.run(scenario())
        assert draining is True
        assert status == 200
        assert body["status"] == "completed"
        assert slow_backend.calls == 1

    def test_draining_server_rejects_new_work_with_503(self, tmp_path, slow_backend):
        async def scenario():
            server = ExtractionServer(_config(tmp_path))
            await server.start()
            host, port = server.config.host, server.port
            # An in-flight slow extraction keeps the drain running.
            slow = {"generator": "crossing_wires", "backend": "test-slow"}
            inflight = asyncio.create_task(request_json(host, port, "POST", "/v1/extract", slow))
            # Open the connection before the drain, send the request during it.
            reader, writer = await asyncio.open_connection(host, port)
            await asyncio.sleep(0.1)  # let the slow request reach the worker
            drain_task = asyncio.create_task(server.shutdown())
            await asyncio.sleep(0.05)
            from repro.serve.client import _encode_request, _read_head

            writer.write(_encode_request("POST", "/v1/extract", host, SPEC))
            await writer.drain()
            status, headers = await _read_head(reader)
            body = await reader.readexactly(int(headers["content-length"]))
            writer.close()
            await writer.wait_closed()
            await drain_task
            return status, body, await inflight

        status, body, (slow_status, _) = asyncio.run(scenario())
        assert status == 503
        assert b"draining" in body
        assert slow_status == 200

    def test_open_keep_alive_connection_is_closed_by_shutdown(self, tmp_path, caplog):
        async def scenario():
            server = ExtractionServer(_config(tmp_path))
            await server.start()
            host, port = server.config.host, server.port
            from repro.serve.client import _read_head

            # One answered request, then the client holds the connection open.
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
            await writer.drain()
            status, headers = await _read_head(reader)
            await reader.readexactly(int(headers["content-length"]))
            handlers = list(server._connections)
            await server.shutdown()
            closed_by_server = await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            return status, handlers, closed_by_server, server._connections

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            status, handlers, closed_by_server, left_open = asyncio.run(scenario())
        assert status == 200
        assert len(handlers) == 1
        assert all(task.done() and not task.cancelled() for task in handlers)
        assert left_open == {}
        assert closed_by_server
        assert [r for r in caplog.records if r.name == "asyncio" and r.levelno >= logging.ERROR] == []

    def test_shutdown_returns_when_the_drain_times_out(self, tmp_path, caplog):
        """A backend that never returns holds shutdown only for drain_seconds,
        and the request it was serving is answered with an error."""
        started, release = threading.Event(), threading.Event()

        class _WedgedBackend:
            name = "test-wedged"
            description = "test backend that blocks until released"

            def extract(self, layout, **options):
                started.set()
                release.wait()
                raise RuntimeError("released")

        register_backend(_WedgedBackend(), replace=True)

        async def scenario():
            server = ExtractionServer(_config(tmp_path, drain_seconds=0.2))
            await server.start()
            spec = {"generator": "crossing_wires", "backend": "test-wedged"}
            inflight = asyncio.create_task(
                request_json(server.config.host, server.port, "POST", "/v1/extract", spec)
            )
            while not started.is_set():
                await asyncio.sleep(0.01)
            handlers = list(server._connections)
            begin = time.perf_counter()
            await asyncio.wait_for(server.shutdown(), timeout=10.0)
            elapsed = time.perf_counter() - begin
            return await inflight, handlers, elapsed, server._connections

        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                (status, body), handlers, elapsed, left_open = asyncio.run(scenario())
        finally:
            release.set()
            unregister_backend("test-wedged")
        assert status == 500
        assert body["error"] == "abandoned by server shutdown"
        assert len(handlers) == 1
        assert all(task.done() for task in handlers)
        assert left_open == {}
        assert elapsed < 5.0
        assert [r for r in caplog.records if r.name == "asyncio" and r.levelno >= logging.ERROR] == []

    def test_health_reports_draining(self, tmp_path):
        async def scenario():
            server = ExtractionServer(_config(tmp_path))
            await server.start()
            await server.shutdown()
            return server.stats()

        stats = asyncio.run(scenario())
        assert stats["draining"] is True


class TestServerThreadIntegration:
    def test_server_usable_from_a_background_thread(self, tmp_path):
        """The examples/serve_client.py pattern: loop in a thread, sync client."""
        import http.client
        import json as json_module

        config = _config(tmp_path)
        server = ExtractionServer(config)
        started = threading.Event()
        loop_holder: dict = {}

        def runner():
            async def main():
                await server.start()
                loop_holder["loop"] = asyncio.get_running_loop()
                loop_holder["stop"] = asyncio.Event()
                started.set()
                await loop_holder["stop"].wait()
                await server.shutdown()

            asyncio.run(main())

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        try:
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            connection.request("POST", "/v1/extract", json_module.dumps(SPEC))
            response = connection.getresponse()
            payload = json_module.loads(response.read())
            assert response.status == 200
            assert payload["status"] == "completed"
        finally:
            loop_holder["loop"].call_soon_threadsafe(loop_holder["stop"].set)
            thread.join(timeout=30)
            assert not thread.is_alive()
