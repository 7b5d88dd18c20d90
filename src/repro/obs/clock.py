"""The one monotonic clock behind every timing number in the repo.

Spans, the ``SolverTimer`` phase laps, the batched-kernel chunk timings and
the serve-layer latency measurements all read :func:`now`, so a span's
duration and the corresponding result or benchmark field are taken from the
same clock and agree to measurement noise.  The indirection also gives
tests one seam to monkeypatch when they need deterministic timings.
"""

from __future__ import annotations

import time

__all__ = ["now", "walltime"]


def now() -> float:
    """Monotonic seconds (``time.perf_counter``): durations, never dates."""
    return time.perf_counter()


def walltime() -> float:
    """Wall-clock seconds since the epoch: log timestamps, never durations."""
    return time.time()
