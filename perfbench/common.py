"""Shared pieces of the benchmark: spans, statistics, validity checks, host facts.

Everything here is the benchmark's own instrumentation.  It measures the
program from outside, through its public functions, and never edits it.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: z-score of the stochastic checks of a Monte Carlo (``frw``) result.  It
#: is wider than the accuracy gate's 3 because the checks run over every
#: off-diagonal of every extraction of a run, and because the walk weights
#: (``1/R0`` of the first hop) are heavy-tailed, so the standard errors are
#: themselves noisy: on the bus 4x4 workload 2 of about 350 correct draws
#: had an asymmetry above 4 standard errors (largest 4.22), which at z = 4
#: failed about one run in ten.
FRW_Z = 6.0


def now() -> float:
    """Monotonic clock of every measurement in the benchmark."""
    return time.perf_counter()


def nproc() -> int:
    """CPUs this process may run on: the width of every pool and connection set."""
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the part of it the child spans cover."""
        return self.seconds - sum(child.seconds for child in self.children)


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    Spans nest by call order on the calling thread; a trace is one root
    span (one pipeline run) and its children.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        record = Span(name, now())
        (self._stack[-1].children if self._stack else self.roots).append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = now()
            self._stack.pop()

    @staticmethod
    def layer_self_seconds(root: Span) -> dict[str, float]:
        """Self time per span name below ``root`` (the root itself excluded)."""
        totals: dict[str, float] = {}
        pending = list(root.children)
        while pending:
            current = pending.pop()
            totals[current.name] = totals.get(current.name, 0.0) + current.self_seconds
            pending.extend(current.children)
        return totals


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def relative_error(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Relative Frobenius error ``||C - R||_F / ||R||_F``."""
    return float(np.linalg.norm(candidate - reference) / np.linalg.norm(reference))


# ----------------------------------------------------------------------
# validity of a capacitance matrix
# ----------------------------------------------------------------------
def check_capacitance(
    capacitance: np.ndarray,
    offdiag_tolerance: float,
    stderr: np.ndarray | None = None,
) -> dict:
    """Physics checks of a Maxwell capacitance matrix.

    Exact results must be symmetric to round-off, have a positive diagonal,
    be positive definite (Cholesky), have positive row sums (capacitance to
    infinity) and may carry positive off-diagonals only up to
    ``offdiag_tolerance`` times the smallest diagonal entry.  A Monte Carlo
    result passes symmetry, row-sum and off-diagonal sign within
    :data:`FRW_Z` standard errors instead.  ``pos_offdiag`` counts the
    wrong-sign off-diagonals whether or not they are tolerated.
    """
    matrix = np.asarray(capacitance, dtype=float)
    diagonal = np.diag(matrix)
    off = ~np.eye(matrix.shape[0], dtype=bool)
    offdiag = matrix[off]
    scale = float(np.max(np.abs(diagonal)))
    min_diagonal = float(np.min(diagonal))
    asym = np.abs(matrix - matrix.T)
    row_sums = matrix.sum(axis=1)
    if stderr is None:
        symmetric = bool(np.all(asym <= 1e-6 * scale))
        rows_positive = bool(np.all(row_sums > 0.0))
        sign_ok = bool(np.all(offdiag <= offdiag_tolerance * min_diagonal))
    else:
        se = np.asarray(stderr, dtype=float)
        symmetric = bool(np.all(asym <= FRW_Z * np.hypot(se, se.T) + 1e-12 * scale))
        rows_positive = bool(np.all(row_sums > -FRW_Z * np.sqrt(np.sum(se**2, axis=1))))
        sign_ok = bool(np.all(offdiag <= FRW_Z * se[off]))
    try:
        np.linalg.cholesky(0.5 * (matrix + matrix.T))
        definite = True
    except np.linalg.LinAlgError:
        definite = False
    positive = offdiag[offdiag > 0.0]
    checks = {
        "symmetric": symmetric,
        "positive_diagonal": bool(min_diagonal > 0.0),
        "positive_definite": definite,
        "positive_row_sums": rows_positive,
        "offdiag_sign": sign_ok,
    }
    return {
        **checks,
        "ok": all(checks.values()),
        "pos_offdiag": int(positive.size),
        "max_pos_offdiag_ratio": float(positive.max() / min_diagonal) if positive.size else 0.0,
    }


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, str]:
    """BLAS library name and its thread count (``"unknown"`` if unreadable)."""
    name = "unknown"
    try:
        config = np.show_config(mode="dicts")
        name = str(config["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for library in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(library))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return name, str(function())
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(variable):
            return name, os.environ[variable]
    return name, "unknown"


def host_facts() -> dict:
    """The host a record was measured on."""
    import scipy

    blas, blas_threads = _blas()
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "numba": importlib.util.find_spec("numba") is not None,
    }
