"""The service workload: open-loop Zipf traffic against an in-process server.

The server runs on its own event loop in a second thread of this process;
the load generator and at most ``nproc`` keep-alive client connections run
on the main thread's loop.  Requests become due on a fixed-rate schedule
whatever the server does (an open loop), and each latency is measured from
its due time, so a stall also counts against the requests queued behind
it.  Responses are parsed and checked only after the load ends.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import shutil
import threading

import numpy as np

from common import ROOT, check_capacitance, median, now, nproc, peak_rss_mb, percentile, relative_error
from workloads import OFFDIAG_TOLERANCE, TOLERANCE, ServiceWorkload, compute_reference

UM = 1e-6
#: Scratch space of the runs' result stores, inside the checkout.
SCRATCH = ROOT / ".perfbench_run"
QUEUE_DEPTH = 256
SETUP_REPEATS = 3
SERVED = ("completed", "cached", "coalesced")


def pool_specs(workload: ServiceWorkload, size: str, seed: int) -> list[dict]:
    """Distinct small request specs; rank 0 is the most popular."""
    # Narrow ranges keep every layout's solve cost and accuracy alike, so
    # the seed changes which layouts are hot, not how hard they are.
    rng = np.random.default_rng([seed, 1])
    count = workload.pool_size[size]
    widths = rng.uniform(0.95, 1.05, count)
    spacings = rng.uniform(0.9, 1.1, count)
    separations = rng.uniform(0.9, 1.1, count)
    return [
        {
            "generator": "bus_crossing",
            "params": {
                "n_lower": 2,
                "n_upper": 2,
                "width": float(widths[k]) * UM,
                "spacing": float(spacings[k]) * UM,
                "separation": float(separations[k]) * UM,
            },
            "backend": workload.backend,
            "label": f"pool{k}",
        }
        for k in range(count)
    ]


def request_sequence(workload: ServiceWorkload, size: str, seed: int, seconds: float) -> np.ndarray:
    """Zipf draws over the pool ranks, one per scheduled arrival."""
    from repro.serve.loadtest import zipf_probabilities

    pool = workload.pool_size[size]
    rng = np.random.default_rng([seed, 2])
    count = max(int(workload.rate[size] * seconds), 1)
    return rng.choice(pool, size=count, p=zipf_probabilities(pool, workload.exponent))


def _encode(spec: dict, target: str) -> bytes:
    body = json.dumps(spec).encode("utf-8")
    head = (
        f"POST {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return int(head[0].split(" ", 2)[1]), await reader.readexactly(length)


class ServerThread:
    """An :class:`ExtractionServer` on its own event loop and thread."""

    def __init__(self, store_dir, workers: int):
        from repro.serve.config import ServeConfig, ShardSpec
        from repro.serve.server import ExtractionServer

        self.store_dir = store_dir
        config = ServeConfig(
            host="127.0.0.1",
            port=0,
            cache_dir=store_dir,
            shards=(ShardSpec(name="bench", backends=(), workers=workers, queue_depth=QUEUE_DEPTH),),
        )
        self.server = ExtractionServer(config)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, name="bench-server")
        self.thread.start()
        try:
            asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(timeout=60)
        except BaseException:
            self._stop_loop()
            raise
        self.port = self.server.port

    def _stop_loop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=60)
        self.loop.close()

    def stop(self) -> None:
        try:
            asyncio.run_coroutine_threadsafe(self.server.shutdown(), self.loop).result(timeout=120)
        finally:
            self._stop_loop()
            shutil.rmtree(self.store_dir, ignore_errors=True)
            with contextlib.suppress(OSError):  # other runs may still use it
                self.store_dir.parent.rmdir()


async def _drive(port: int, bodies: list[bytes], ranks: np.ndarray, rate: float, connections: int):
    """Fire ``ranks`` on schedule; returns per-request samples and generator lags."""
    count = len(ranks)
    pending: asyncio.Queue[int | None] = asyncio.Queue()
    samples: list[tuple] = [()] * count
    lags = np.zeros(count)
    start = now() + 0.05

    async def generator() -> None:
        for index in range(count):
            due = start + index / rate
            delay = due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            lags[index] = now() - due
            pending.put_nowait(index)
        for _ in range(connections):
            pending.put_nowait(None)

    async def connection() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while (index := await pending.get()) is not None:
                due = start + index / rate
                try:
                    writer.write(bodies[int(ranks[index])])
                    await writer.drain()
                    status, body = await _read_response(reader)
                except (OSError, asyncio.IncompleteReadError) as exc:
                    samples[index] = (due, now(), 0, repr(exc).encode())
                    writer.close()
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    continue
                samples[index] = (due, now(), status, body)
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(generator(), *(connection() for _ in range(connections)))
    return samples, lags


async def _get_json(port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n".encode())
        await writer.drain()
        _, body = await _read_response(reader)
        return json.loads(body)
    finally:
        writer.close()
        await writer.wait_closed()


class ServiceRun:
    """One run of the service workload in this process."""

    def __init__(self, workload: ServiceWorkload, size: str, seed: int, seconds: float):
        self.workload = workload
        self.size = size
        self.seed = seed
        self.connections = nproc()
        self.specs = pool_specs(workload, size, seed)
        self.ranks = request_sequence(workload, size, seed, seconds)
        self.rate = workload.rate[size]
        self._direct: dict[int, np.ndarray] = {}
        self._setups = 0

    def start_server(self) -> ServerThread:
        """Fresh store, server start, and a warm-up that stores the hottest layouts.

        Without the warm-up every run opens with a burst of misses that
        queue behind each other; its length depends on the seed and would
        decide the p99.  The measured window then sees a warm service whose
        misses come from the Zipf tail.
        """
        SCRATCH.mkdir(exist_ok=True)
        self._setups += 1
        server = ServerThread(SCRATCH / f"store-{os.getpid()}-{self._setups}", self.connections)
        hottest = np.arange(self.workload.warm_layouts[self.size])
        bodies = [_encode(spec, "/v1/extract") for spec in self.specs]
        samples, _ = asyncio.run(_drive(server.port, bodies, hottest, 1000.0, self.connections))
        failed = [sample for sample in samples if sample[2] != 200]
        if failed:
            server.stop()
            raise RuntimeError(f"warm-up request failed: {failed[0][3][:200]!r}")
        return server

    def load(self, server: ServerThread, traced: bool) -> dict:
        """The open-loop phase against a started server, then its checks."""
        target = "/v1/extract?trace=1" if traced else "/v1/extract"
        bodies = [_encode(spec, target) for spec in self.specs]
        samples, lags = asyncio.run(
            _drive(server.port, bodies, self.ranks, self.rate, self.connections)
        )
        stats = asyncio.run(_get_json(server.port, "/v1/stats"))
        return self.judge(samples, lags, stats)

    # ------------------------------------------------------------------
    def direct(self, rank: int) -> np.ndarray:
        """The engine's own answer for one pool spec (computed once per rank)."""
        if rank not in self._direct:
            from repro.engine import ExtractionService
            from repro.serve.protocol import build_request, parse_extract_spec

            request = build_request(parse_extract_spec(self.specs[rank]))
            result = ExtractionService(executor="serial", cache_capacity=0).extract(
                request.layout, backend=request.backend, **request.options
            )
            self._direct[rank] = result.capacitance
        return self._direct[rank]

    def judge(self, samples: list[tuple], lags: np.ndarray, stats: dict) -> dict:
        workload = self.workload
        latencies = np.zeros(len(samples))
        ok = np.zeros(len(samples), dtype=bool)
        status = np.array([""] * len(samples), dtype=object)
        errors: set[str] = set()
        checks: dict[int, dict] = {}
        for index, (due, done, http_status, body) in enumerate(samples):
            latencies[index] = done - due
            rank = int(self.ranks[index])
            if http_status != 200:
                errors.add(f"HTTP {http_status}: {body[:120]!r}")
                continue
            payload = json.loads(body)
            status[index] = payload.get("status", "")
            matrix = np.asarray(payload["result"]["capacitance_farad"])
            if rank not in checks:
                checks[rank] = check_capacitance(self.direct(rank), OFFDIAG_TOLERANCE)
            if status[index] not in SERVED:
                errors.add(f"status {status[index]!r}")
            elif not np.array_equal(matrix, self.direct(rank)):
                errors.add(f"served matrix of {self.specs[rank]['label']} differs from the engine's")
            elif not checks[rank]["ok"]:
                errors.add(f"{self.specs[rank]['label']} fails validity checks: {checks[rank]}")
            else:
                ok[index] = True

        # Accuracy against the dense reference, on the most requested layouts.
        counts = np.bincount(self.ranks, minlength=len(self.specs))
        sampled = [int(r) for r in np.argsort(-counts, kind="stable")[: workload.reference_samples[self.size]]]
        rel_errs = []
        for rank in sampled:
            reference = compute_reference(self.specs[rank]["params"])
            if not reference["checks"]["ok"]:
                errors.add(f"reference of {self.specs[rank]['label']} fails its checks: {reference['checks']}")
            rel_errs.append(relative_error(self.direct(rank), np.asarray(reference["capacitance"])))
            if rel_errs[-1] > TOLERANCE:
                errors.add(f"{self.specs[rank]['label']} error {rel_errs[-1]:.4f} > {TOLERANCE}")
                ok[self.ranks == rank] = False

        # From the first request's due time to the last answer.
        duration = max(sample[1] for sample in samples) - samples[0][0]
        good = ok & (latencies <= workload.latency_limit_s)
        lag_p99 = percentile(lags, 99)
        valid = lag_p99 <= workload.max_generator_lag_share * workload.latency_limit_s
        if not valid:
            errors.add(f"generator fell behind: p99 lag {lag_p99:.4f} s")
        hits = np.isin(status, ("cached", "coalesced"))
        shard = next(iter(stats["shards"].values()))
        return {
            "attempted": len(samples),
            "failed": int((~ok).sum()),
            "valid": bool(valid),
            "errors": sorted(errors),
            "metrics": {
                "latency_p50_s": percentile(latencies[ok], 50),
                "latency_tail_s": percentile(latencies[ok], 99),
                "goodput_per_s": float(good.sum()) / duration,
                "cap_rel_err": max(rel_errs),
                "serve.cached_p50_s": percentile(latencies[status == "cached"], 50),
                "serve.computed_p50_s": percentile(latencies[status == "completed"], 50),
                "serve.hit_frac": float(hits.mean()),
                "serve.coalesced": shard["coalesced"],
                "serve.rejected": stats["queues"]["rejected"],
                "serve.queue_max_depth": stats["queues"]["max_depth"],
                "serve.store_bytes": stats["store"]["disk_bytes"],
                "serve.generator_lag_s": lag_p99,
            },
            "detail": {
                "requests": len(samples),
                "rate_per_s": self.rate,
                "latency_limit_s": workload.latency_limit_s,
                "connections": self.connections,
                "distinct_layouts": int((counts > 0).sum()),
                "statuses": {name: int((status == name).sum()) for name in SERVED},
                "reference_rel_err": dict(zip((self.specs[r]["label"] for r in sampled), rel_errs)),
            },
        }

    def fingerprint_seconds(self) -> float:
        """Median time to fingerprint one pool request (paid on the hit path too)."""
        from repro.serve.protocol import build_request, parse_extract_spec

        times = []
        for spec in self.specs:
            request = build_request(parse_extract_spec(spec))
            start = now()
            request.fingerprint()
            times.append(now() - start)
        return median(times)


def run_untraced(workload: ServiceWorkload, size: str, seed: int, seconds: float, import_s: float) -> dict:
    run = ServiceRun(workload, size, seed, seconds)
    setups = []
    for repeat in range(SETUP_REPEATS):
        start = now()
        server = run.start_server()
        setups.append(now() - start)
        if repeat < SETUP_REPEATS - 1:
            server.stop()
    try:
        outcome = run.load(server, traced=False)
    finally:
        server.stop()
    metrics = {key: value for key, value in outcome["metrics"].items() if not key.startswith("serve.")}
    metrics["setup_s"] = import_s + median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    outcome["detail"].update(setup_repeats_s=setups, import_s=import_s)
    return {**outcome, "metrics": metrics}


def run_traced(workload: ServiceWorkload, size: str, seed: int, seconds: float) -> dict:
    """A plain phase, then the same schedule with server-side tracing on."""
    run = ServiceRun(workload, size, seed, seconds)
    phases = []
    for traced in (False, True):
        server = run.start_server()
        try:
            phases.append(run.load(server, traced=traced))
        finally:
            server.stop()
    plain, traced_phase = phases
    metrics = {k: v for k, v in traced_phase["metrics"].items() if k.startswith("serve.")}
    metrics["engine.fingerprint_s"] = run.fingerprint_seconds()
    metrics["trace.overhead_s"] = (
        traced_phase["metrics"]["latency_p50_s"] - plain["metrics"]["latency_p50_s"]
    )
    return {
        "attempted": plain["attempted"] + traced_phase["attempted"],
        "failed": plain["failed"] + traced_phase["failed"],
        "valid": plain["valid"] and traced_phase["valid"],
        "errors": sorted(set(plain["errors"]) | set(traced_phase["errors"])),
        "metrics": metrics,
        "detail": traced_phase["detail"],
    }
