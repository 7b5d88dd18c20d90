"""Observability substrate: spans, metrics and structured logs.

The paper's whole scalability argument rests on per-phase wall-time
breakdowns (assembly vs. solve vs. communication); :mod:`repro.obs` turns
those one-off measurements into a first-class layer shared by the engine,
the solvers and the serving front-end:

* :mod:`repro.obs.clock` -- the one monotonic clock every timing number in
  the repo is taken from, so result timings and spans agree;
* :mod:`repro.obs.trace` -- a zero-dependency span tracer: context-manager
  spans with parent/child nesting, ``contextvars`` propagation across
  asyncio tasks and thread pools, and a JSON-ready span tree per trace;
* :mod:`repro.obs.metrics` -- process-wide counters, gauges and fixed-bucket
  histograms rendered in the Prometheus text exposition format (the
  ``GET /metrics`` endpoint of the extraction server);
* :mod:`repro.obs.logging` -- a JSON line formatter stamping every record
  with the active trace id.

Everything is stdlib-only and costs near nothing when idle: a span outside
an active trace is a shared no-op object, and a disabled metrics registry
short-circuits before touching any state.
"""

from repro.obs.clock import now
from repro.obs.logging import JsonLogFormatter, configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    counter,
    gauge,
    histogram,
    render_metrics,
    set_metrics_enabled,
)
from repro.obs.trace import (
    Span,
    SpanCarrier,
    Trace,
    attach,
    carrier,
    current_trace,
    current_trace_id,
    propagate,
    record_span,
    span,
    start_trace,
    traced,
)

__all__ = [
    "now",
    "Span",
    "SpanCarrier",
    "Trace",
    "span",
    "traced",
    "start_trace",
    "current_trace",
    "current_trace_id",
    "carrier",
    "attach",
    "propagate",
    "record_span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "render_metrics",
    "set_metrics_enabled",
    "JsonLogFormatter",
    "configure_logging",
    "get_logger",
]
