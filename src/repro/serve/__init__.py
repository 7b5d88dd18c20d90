"""Extraction-as-a-service: the async HTTP front-end of the engine.

The package promotes the batched
:class:`~repro.engine.service.ExtractionService` into a long-running
service (ROADMAP's millions-of-users layer)::

    from repro.serve import ExtractionServer, ServeConfig

    server = ExtractionServer(ServeConfig(port=8421))
    # await server.start(); await server.serve_forever()

or from the command line::

    python -m repro serve --port 8421

Module map -- one module per concern:

* :mod:`repro.serve.config` -- :class:`ServeConfig` / :class:`ShardSpec`
  (address, persistent-cache directory, worker pools per backend class);
* :mod:`repro.serve.protocol` -- minimal HTTP/1.1 framing + the JSON
  extraction-request schema (workload/generator recipe -> engine request);
* :mod:`repro.serve.queue` -- bounded priority queue with backpressure
  (:class:`QueueFull` -> HTTP 429) and drain-on-close semantics;
* :mod:`repro.serve.store` -- persistent on-disk result store keyed by
  the engine's request fingerprint (identical layouts never recompute,
  across clients and across restarts);
* :mod:`repro.serve.shards` -- per-backend-class worker pools with
  single-flight deduplication of concurrent identical requests;
* :mod:`repro.serve.server` -- the asyncio server: routing, NDJSON batch
  streaming, graceful shutdown drain;
* :mod:`repro.serve.client` -- dependency-free asyncio client helpers;
* :mod:`repro.serve.loadtest` -- the Zipf popularity model of repeated
  layouts that ``perfbench/service.py`` drives the server with.

See ``docs/service.md`` for the wire protocol and an end-to-end ``curl``
session, and ``docs/architecture.md`` for where the package sits in the
pipeline.
"""

from repro.serve.client import request_json, stream_batch
from repro.serve.config import DEFAULT_CACHE_DIR, DEFAULT_SHARDS, ServeConfig, ShardSpec
from repro.serve.protocol import ExtractSpec, SpecError, build_request, parse_extract_spec
from repro.serve.queue import QueueClosed, QueueFull, RequestQueue
from repro.serve.server import ExtractionServer, run_server
from repro.serve.shards import Job, ShardPool
from repro.serve.store import ResultStore

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_SHARDS",
    "ExtractSpec",
    "ExtractionServer",
    "Job",
    "QueueClosed",
    "QueueFull",
    "RequestQueue",
    "ResultStore",
    "ServeConfig",
    "ShardPool",
    "ShardSpec",
    "SpecError",
    "build_request",
    "parse_extract_spec",
    "request_json",
    "run_server",
    "stream_batch",
]
