"""Configuration of the capacitance extractor."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum

from repro.accel.engine import AccelerationTechnique
from repro.basis.instantiate import InstantiationConfig
from repro.greens.policy import ApproximationPolicy

__all__ = ["ParallelMode", "ExtractionConfig"]


class ParallelMode(Enum):
    """How the system-setup step is executed."""

    SERIAL = "serial"
    SHARED_MEMORY = "shared_memory"
    DISTRIBUTED = "distributed"


@dataclass
class ExtractionConfig:
    """All knobs of the instantiable-basis extractor.

    Attributes
    ----------
    tolerance:
        Target relative accuracy of the integral approximations (drives the
        approximation-distance policy of Section 4.1).
    acceleration:
        Which integration acceleration technique of Section 4.2 to use for
        the collocation evaluations (``None`` or ``ANALYTICAL`` disables
        acceleration -- the "w/o accel." column of Table 2).
    parallel_mode, num_nodes, use_processes:
        Parallel execution of the system setup (Section 5).  With
        ``use_processes=False`` the partitions are executed sequentially and
        timed individually, which is what the simulated parallel machine
        consumes.  Worker processes cannot carry an acceleration
        evaluator, so extraction refuses ``acceleration`` with
        ``use_processes`` on more than one node.
    instantiation:
        Basis-instantiation knobs (crossing cut-off, face refinement,
        ablation switches).
    order_near, order_far:
        Gauss orders of the quadrature fallbacks.
    batch_size:
        Template pairs per vectorised batch.
    acceleration_options:
        Extra keyword arguments forwarded to the acceleration evaluator
        constructor (table resolutions, fit degrees, ...).
    """

    tolerance: float = 0.01
    acceleration: AccelerationTechnique | str | None = None
    parallel_mode: ParallelMode | str = ParallelMode.SERIAL
    num_nodes: int = 1
    use_processes: bool = False
    instantiation: InstantiationConfig = field(default_factory=InstantiationConfig)
    order_near: int = 6
    order_far: int = 3
    batch_size: int = 200_000
    acceleration_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> "ExtractionConfig":
        """Check the configuration and normalise string-valued enums.

        The extraction engine calls this before running a backend, so both
        freshly constructed and subsequently mutated configurations are
        rejected with a clear message instead of failing deep inside the
        solver.  Returns ``self`` so it can be chained.

        Raises
        ------
        ValueError
            On an unknown parallel mode or acceleration name, a tolerance
            outside ``(0, 1)`` (negative in particular), ``num_nodes < 1``,
            or non-positive quadrature orders / batch size.
        """
        if isinstance(self.parallel_mode, str):
            try:
                self.parallel_mode = ParallelMode(self.parallel_mode)
            except ValueError:
                valid = ", ".join(sorted(m.value for m in ParallelMode))
                raise ValueError(
                    f"unknown parallel mode {self.parallel_mode!r}; valid modes: {valid}"
                ) from None
        elif not isinstance(self.parallel_mode, ParallelMode):
            raise ValueError(
                f"parallel_mode must be a ParallelMode or its string value, "
                f"got {self.parallel_mode!r}"
            )
        if isinstance(self.acceleration, str):
            try:
                self.acceleration = AccelerationTechnique(self.acceleration)
            except ValueError:
                valid = ", ".join(sorted(t.value for t in AccelerationTechnique))
                raise ValueError(
                    f"unknown acceleration technique {self.acceleration!r}; "
                    f"valid techniques: {valid}"
                ) from None
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")
        try:
            num_nodes = operator.index(self.num_nodes)
        except TypeError:
            num_nodes = None
        if num_nodes is None or isinstance(self.num_nodes, bool) or num_nodes < 1:
            raise ValueError(f"num_nodes must be an integer >= 1, got {self.num_nodes!r}")
        self.num_nodes = num_nodes
        if self.order_near < 1 or self.order_far < 1:
            raise ValueError(
                f"quadrature orders must be >= 1, got "
                f"order_near={self.order_near}, order_far={self.order_far}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        return self

    # ------------------------------------------------------------------
    def policy(self) -> ApproximationPolicy:
        """The approximation-distance policy implied by the tolerance."""
        return ApproximationPolicy(tolerance=self.tolerance)

    def technique(self) -> AccelerationTechnique:
        """The effective acceleration technique (ANALYTICAL when disabled)."""
        if self.acceleration is None:
            return AccelerationTechnique.ANALYTICAL
        return self.acceleration
