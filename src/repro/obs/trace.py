"""Zero-dependency span tracer with ``contextvars`` propagation.

A *trace* is the tree of timed phases behind one logical operation (one
HTTP request, one profile run): ``serve.request -> shard.dispatch ->
engine.extract -> assembly.* -> solver.*``.  Spans are plain context
managers reading :func:`repro.obs.clock.now`; nesting comes from a
``contextvars`` variable, so the tree assembles itself across ``await``
boundaries and -- with the two explicit helpers below -- across thread
pools and worker tasks:

* :func:`propagate` wraps a callable so it runs under a copy of the
  caller's context (``loop.run_in_executor`` and a thread pool's
  ``submit`` do not propagate context by themselves);
* :func:`carrier` / :func:`attach` hand the active trace to code running
  in a *different* task's context (the shard worker tasks of the server,
  which are created long before any request exists).

Fork-pool workers cannot share the in-process trace object; their wall
times travel back over the pipe as plain floats (the existing worker-tuple
idiom) and are re-attached as synthesized spans via :func:`record_span`.

Outside an active trace every helper is a cheap no-op: :func:`span`
returns a shared inert object, so permanently instrumented hot paths cost
one context-variable read when nobody is tracing.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

from repro.obs.clock import now

__all__ = [
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
]

T = TypeVar("T")


@dataclass
class Span:
    """One timed phase: name, ids, clock readings and free-form attributes."""

    name: str
    span_id: str
    parent_id: str | None
    start: float
    end: float | None = None
    status: str = "ok"
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Duration so far (open spans measure against the current clock)."""
        return (self.end if self.end is not None else now()) - self.start


class Trace:
    """One span tree: thread-safe collector plus the tree/report views."""

    def __init__(self, trace_id: str | None = None):
        #: Hex identifier echoed in responses and stamped on log lines.
        self.trace_id = trace_id or os.urandom(8).hex()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._ids = itertools.count(1)

    def new_span_id(self) -> str:
        """A per-trace unique span id (monotonic, so ids read in creation order)."""
        return f"{next(self._ids):04x}"

    def add(self, item: Span) -> None:
        """Register a span (called on *entry*, so open spans are visible)."""
        with self._lock:
            self._spans.append(item)

    @property
    def spans(self) -> list[Span]:
        """Snapshot of the registered spans in creation order."""
        with self._lock:
            return list(self._spans)

    # ------------------------------------------------------------------
    def tree(self) -> list[dict[str, Any]]:
        """The nested span tree as JSON-ready dictionaries.

        Returns a list of root nodes (a served request has exactly one:
        its ``serve.request`` span).  Spans still open when the tree is
        built report their duration so far.
        """
        spans = self.spans
        known = {item.span_id for item in spans}
        origin = min((item.start for item in spans), default=0.0)
        children: dict[str | None, list[Span]] = {}
        for item in spans:
            parent = item.parent_id if item.parent_id in known else None
            children.setdefault(parent, []).append(item)

        def node(item: Span) -> dict[str, Any]:
            return {
                "name": item.name,
                "span_id": item.span_id,
                "seconds": item.seconds,
                "start_offset_seconds": item.start - origin,
                "status": item.status,
                "attributes": dict(item.attributes),
                "children": [
                    node(child)
                    for child in sorted(children.get(item.span_id, []), key=lambda s: s.start)
                ],
            }

        return [node(item) for item in sorted(children.get(None, []), key=lambda s: s.start)]

    def render(self) -> str:
        """Indented text rendering of the span tree (the profile report)."""
        lines: list[str] = [f"trace {self.trace_id}"]

        def walk(entry: dict[str, Any], depth: int) -> None:
            marker = " [error]" if entry["status"] != "ok" else ""
            attrs = entry["attributes"]
            suffix = f"  {attrs}" if attrs else ""
            lines.append(f"{'  ' * depth}{entry['name']:<28} {entry['seconds'] * 1e3:9.2f} ms{marker}{suffix}")
            for child in entry["children"]:
                walk(child, depth + 1)

        for root in self.tree():
            walk(root, 1)
        return "\n".join(lines)

    def phase_seconds(self) -> dict[str, float]:
        """Total seconds per span name (the paper's Table-style breakdown)."""
        totals: dict[str, float] = {}
        for item in self.spans:
            totals[item.name] = totals.get(item.name, 0.0) + item.seconds
        return totals


@dataclass(frozen=True)
class SpanCarrier:
    """A portable handle on the active trace: trace object + parent span id.

    Created by :func:`carrier` in the originating context and re-activated
    with :func:`attach` in whatever task or thread picks the work up.
    """

    trace: Trace
    parent_id: str | None


#: The active (trace, current span id) of this task/thread context.
_ACTIVE: contextvars.ContextVar[tuple[Trace, str | None] | None] = contextvars.ContextVar(
    "repro_obs_active_trace", default=None
)


class _NoopSpan:
    """Shared inert context manager handed out when no trace is active."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP = _NoopSpan()


class _SpanContext:
    """Context manager opening one span under the active trace."""

    __slots__ = ("_trace", "_name", "_attributes", "_token", "span")

    def __init__(self, trace: Trace, parent_id: str | None, name: str, attributes: dict[str, Any]):
        self._trace = trace
        self._name = name
        self._attributes = attributes
        self._token: contextvars.Token | None = None
        self.span = Span(
            name=name,
            span_id=trace.new_span_id(),
            parent_id=parent_id,
            start=0.0,
            attributes=attributes,
        )

    def __enter__(self) -> Span:
        self.span.start = now()
        self._trace.add(self.span)
        self._token = _ACTIVE.set((self._trace, self.span.span_id))
        return self.span

    def __exit__(self, exc_type: type | None, exc: BaseException | None, _tb: object) -> bool:
        self.span.end = now()
        if exc_type is not None:
            self.span.status = "error"
            self.span.attributes.setdefault("error", f"{exc_type.__name__}: {exc}")
        if self._token is not None:
            _ACTIVE.reset(self._token)
        return False


def span(name: str, **attributes: Any) -> _SpanContext | _NoopSpan:
    """Open a child span of the current one; inert outside an active trace.

    Example
    -------
    >>> with start_trace() as trace:
    ...     with span("assembly.build", blocks=4):
    ...         pass
    >>> [s.name for s in trace.spans]
    ['trace', 'assembly.build']
    """
    active = _ACTIVE.get()
    if active is None:
        return _NOOP
    trace, parent_id = active
    return _SpanContext(trace, parent_id, name, attributes)


def traced(name: str | None = None) -> Callable[[Callable[..., T]], Callable[..., T]]:
    """Decorator form of :func:`span` (span name defaults to the function name)."""

    def decorate(function: Callable[..., T]) -> Callable[..., T]:
        span_name = name or function.__qualname__

        def wrapper(*args: Any, **kwargs: Any) -> T:
            with span(span_name):
                return function(*args, **kwargs)

        wrapper.__name__ = function.__name__
        wrapper.__qualname__ = function.__qualname__
        wrapper.__doc__ = function.__doc__
        return wrapper

    return decorate


class _TraceContext:
    """Context manager owning a whole trace (creates the root span)."""

    __slots__ = ("_name", "_trace_id", "_attributes", "_inner", "trace")

    def __init__(self, name: str, trace_id: str | None, attributes: dict[str, Any]):
        self._name = name
        self._trace_id = trace_id
        self._attributes = attributes
        self._inner: _SpanContext | None = None
        self.trace: Trace | None = None

    def __enter__(self) -> Trace:
        self.trace = Trace(trace_id=self._trace_id)
        self._inner = _SpanContext(self.trace, None, self._name, self._attributes)
        # The root span must carry no parent even if an outer trace exists,
        # so activate it against a cleared context explicitly.
        self._inner.__enter__()
        return self.trace

    def __exit__(self, exc_type: type | None, exc: BaseException | None, tb: object) -> bool:
        assert self._inner is not None
        return self._inner.__exit__(exc_type, exc, tb)


def start_trace(
    name: str = "trace", trace_id: str | None = None, **attributes: Any
) -> _TraceContext:
    """Begin a new trace whose root span is ``name``; yields the :class:`Trace`."""
    return _TraceContext(name, trace_id, attributes)


def current_trace() -> Trace | None:
    """The active trace of this context, or ``None``."""
    active = _ACTIVE.get()
    return active[0] if active is not None else None


def current_trace_id() -> str | None:
    """The active trace id (log stamping), or ``None``."""
    trace = current_trace()
    return trace.trace_id if trace is not None else None


def carrier() -> SpanCarrier | None:
    """A handle on the active trace for hand-off to another task or thread."""
    active = _ACTIVE.get()
    if active is None:
        return None
    return SpanCarrier(trace=active[0], parent_id=active[1])


class _AttachContext:
    """Re-activate a carried trace in the receiving task/thread context."""

    __slots__ = ("_carrier", "_token")

    def __init__(self, handle: SpanCarrier | None):
        self._carrier = handle
        self._token: contextvars.Token | None = None

    def __enter__(self) -> None:
        if self._carrier is not None:
            self._token = _ACTIVE.set((self._carrier.trace, self._carrier.parent_id))
        return None

    def __exit__(self, *exc_info: object) -> bool:
        if self._token is not None:
            _ACTIVE.reset(self._token)
        return False


def attach(handle: SpanCarrier | None) -> _AttachContext:
    """Context manager adopting a carried trace (no-op for ``None``)."""
    return _AttachContext(handle)


def propagate(function: Callable[..., T], *args: Any, **kwargs: Any) -> Callable[[], T]:
    """Bind a callable to a copy of the caller's context.

    ``loop.run_in_executor`` and a thread pool's ``submit`` run their
    callables with an empty context; wrapping the submission in
    ``propagate`` keeps the active trace (and any other context variables)
    visible inside the worker thread.
    """
    context = contextvars.copy_context()
    return lambda: context.run(function, *args, **kwargs)


def record_span(name: str, seconds: float, **attributes: Any) -> None:
    """Attach an already-measured duration as a finished child span.

    Used where the timing was taken somewhere the trace cannot reach -- a
    fork-pool worker shipping its wall time back over the pipe -- so the
    span tree still accounts for the work.  The span is anchored ending
    now, i.e. ``[now - seconds, now]``.  No-op outside an active trace.
    """
    active = _ACTIVE.get()
    if active is None:
        return
    trace, parent_id = active
    end = now()
    trace.add(
        Span(
            name=name,
            span_id=trace.new_span_id(),
            parent_id=parent_id,
            start=end - seconds,
            end=end,
            attributes=attributes,
        )
    )
