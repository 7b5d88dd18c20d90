"""The unified extraction result shared by every backend.

All extraction backends — the instantiable-basis extractor, the dense PWC
solver and the FASTCAP-like multipole solver — return the same
:class:`ExtractionResult`.  Backend-specific quantities (basis counts,
panel discretisations, iteration statistics) live in optional fields that
stay at their defaults for backends that do not produce them, so downstream
code (reports, the extraction service, the benchmarks) can treat every
result uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.assembly.shared_memory import ParallelSetupResult
from repro.geometry.panel import Panel
from repro.solver.iterative import IterativeStats

__all__ = ["ExtractionResult"]


@dataclass
class ExtractionResult:
    """Outcome of one capacitance extraction, whichever backend produced it.

    Attributes
    ----------
    capacitance:
        Short-circuit capacitance matrix in farad, ordered like
        ``conductor_names``.
    conductor_names:
        Conductor names in matrix order.
    capacitance_stderr:
        Per-entry standard error of ``capacitance`` for stochastic
        backends (the floating-random-walk extractor); ``None`` for the
        deterministic solvers.  The accuracy harness's stochastic
        tolerance mode gates on this field.
    num_basis_functions, num_templates:
        The ``N`` and ``M`` of the instantiable basis (zero for the
        panel-based backends).
    setup_seconds, solve_seconds:
        Wall-clock time of the system setup (discretisation / operator
        construction / matrix fill) and of the solve plus capacitance
        post-processing.
    memory_bytes:
        Memory of the stored system operator (the Galerkin backends add
        their incidence matrix; ``frw`` counts its scene boxes).
    parallel_setup:
        Per-node workload/timing details when a parallel mode was used.
    metadata:
        Free-form extras (basis summary, category counts, configuration echo).
    backend:
        Registry name of the backend that produced the result
        (``"instantiable"``, ``"pwc-dense"``, ``"fastcap"``, ...).
    num_unknowns:
        Size of the linear system the backend solved: basis functions for
        the instantiable backend, panels for the PWC-based backends.
    iterations:
        Krylov iteration statistics when an iterative solve was used.
    stored_entries:
        Stored operator entries when the backend compresses the system
        (near-field dense entries plus low-rank factor entries); zero for
        the dense backends.
    compression_ratio:
        ``stored_entries / num_unknowns^2`` for compressed backends
        (``None`` when the full dense operator was stored).
    max_block_rank:
        Largest low-rank block rank of a compressed operator.
    charges:
        Panel charge densities (one column per conductor excitation) when
        the backend exposes them.
    panels:
        The discretisation panels when the backend exposes them.
    """

    capacitance: np.ndarray
    conductor_names: list[str]
    capacitance_stderr: np.ndarray | None = None
    num_basis_functions: int = 0
    num_templates: int = 0
    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    memory_bytes: int = 0
    parallel_setup: ParallelSetupResult | None = None
    metadata: dict = field(default_factory=dict)
    backend: str = "instantiable"
    num_unknowns: int = 0
    iterations: IterativeStats | None = None
    stored_entries: int = 0
    compression_ratio: float | None = None
    max_block_rank: int = 0
    charges: np.ndarray | None = None
    panels: list[Panel] | None = None

    def __post_init__(self) -> None:
        if self.num_unknowns == 0:
            if self.num_basis_functions:
                self.num_unknowns = int(self.num_basis_functions)
            elif self.panels is not None:
                self.num_unknowns = len(self.panels)

    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Setup plus solve time (the paper's "Total time" row)."""
        return self.setup_seconds + self.solve_seconds

    @property
    def setup_fraction(self) -> float:
        """Fraction of the runtime spent in the system setup.

        The paper reports >95 % for instantiable basis functions, which is
        the property that makes the method embarrassingly parallel.
        """
        total = self.total_seconds
        return self.setup_seconds / total if total > 0.0 else 0.0

    @property
    def num_panels(self) -> int:
        """Number of discretisation panels (zero for the condensed basis)."""
        if self.panels is not None:
            return len(self.panels)
        return int(self.metadata.get("num_panels", 0))

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Parallel workers used in the system setup (zero when serial/unknown)."""
        return self.parallel_setup.num_nodes if self.parallel_setup is not None else 0

    @property
    def worker_setup_seconds(self) -> list[float]:
        """Per-worker system-setup time (empty without a parallel setup)."""
        if self.parallel_setup is None:
            return []
        return [r.elapsed_seconds for r in self.parallel_setup.node_results]

    @property
    def worker_communication_bytes(self) -> list[int]:
        """Per-worker communication volume (empty without a parallel setup).

        All zeros in the shared-memory flow; in the distributed flow the
        non-main workers' entries are the partial-matrix message sizes.
        """
        if self.parallel_setup is None:
            return []
        return list(self.parallel_setup.communication_bytes)

    # ------------------------------------------------------------------
    def index_of(self, name: str) -> int:
        """Index of a conductor by name."""
        try:
            return self.conductor_names.index(name)
        except ValueError:
            raise KeyError(f"no conductor named {name!r}; have {self.conductor_names}") from None

    def self_capacitance(self, name: str) -> float:
        """Diagonal (total) capacitance of a conductor, in farad."""
        index = self.index_of(name)
        return float(self.capacitance[index, index])

    def coupling_capacitance(self, first: str, second: str) -> float:
        """Coupling capacitance between two conductors, in farad (positive)."""
        i, j = self.index_of(first), self.index_of(second)
        if i == j:
            raise ValueError("coupling capacitance requires two distinct conductors")
        return float(-self.capacitance[i, j])

    def capacitance_femtofarad(self) -> np.ndarray:
        """The capacitance matrix scaled to femtofarad."""
        return self.capacitance * 1e15

    def as_dict(self) -> dict:
        """Plain-dictionary summary for CSV/JSON reporting."""
        summary = {
            "backend": self.backend,
            "conductors": list(self.conductor_names),
            "num_unknowns": self.num_unknowns,
            "num_basis_functions": self.num_basis_functions,
            "num_templates": self.num_templates,
            "setup_seconds": self.setup_seconds,
            "solve_seconds": self.solve_seconds,
            "total_seconds": self.total_seconds,
            "memory_bytes": self.memory_bytes,
            "capacitance_farad": self.capacitance.tolist(),
        }
        if self.capacitance_stderr is not None:
            summary["capacitance_stderr_farad"] = self.capacitance_stderr.tolist()
        if self.iterations is not None:
            summary["total_iterations"] = self.iterations.total_iterations
            summary["iterations_per_rhs"] = list(self.iterations.iterations_per_rhs)
            summary["max_iterations"] = self.iterations.max_iterations
            summary["operator_traversals"] = self.iterations.operator_traversals
        if self.compression_ratio is not None:
            summary["stored_entries"] = self.stored_entries
            summary["compression_ratio"] = self.compression_ratio
            summary["max_block_rank"] = self.max_block_rank
        if self.parallel_setup is not None:
            summary["num_workers"] = self.num_workers
            summary["worker_setup_seconds"] = self.worker_setup_seconds
            summary["worker_communication_bytes"] = self.worker_communication_bytes
            summary["load_imbalance"] = self.parallel_setup.load_imbalance
        return summary
