"""The workload registry: named parametric families of extraction problems.

A :class:`Workload` bundles everything the harnesses need to run one layout
family end to end: the layout factory, its quick/full parameter sets, the
size knob that scales the family for sweeps, per-backend extraction options
and per-backend accuracy tolerances against the golden reference.  Families
register under a short name (``"bus_crossing"``, ``"guard_ring"``, ...) so
the accuracy suite, the HTTP service and the CLI can select them by
string — the same pattern the engine uses for backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.geometry.layout import Layout

__all__ = [
    "TOLERANCE_MODES",
    "Workload",
    "register_workload",
    "unregister_workload",
    "get_workload",
    "available_workloads",
    "all_workloads",
]

#: Tag carried by the families that are new geometry (not present in the
#: paper's original evaluation set).
NEW_GEOMETRY_TAG = "new-geometry"

#: Valid per-backend tolerance modes of the accuracy gate.
TOLERANCE_MODES = ("exact", "stochastic")


@dataclass(frozen=True)
class Workload:
    """One named parametric workload family.

    Attributes
    ----------
    name:
        Registry name of the family.
    description:
        One-line human-readable summary.
    factory:
        Callable mapping keyword parameters to a
        :class:`~repro.geometry.layout.Layout`.
    params:
        Factory parameters of the *quick* instance (the CI-sized problem).
    full_params:
        Parameter overrides of the *full* instance (the nightly-sized
        problem); merged over ``params``.
    size_params:
        Names of the parameters that act as the family's size knob; sweeps
        assign one integer to all of them (e.g. ``("n_lower", "n_upper")``
        turns the crossing bus into an ``n x n`` family).
    backend_options:
        Per-backend extraction options (e.g. ``{"pwc-dense":
        {"cells_per_edge": 2}}``).  Backends without an entry run with
        their defaults.
    backend_tolerances:
        Per-backend relative-error tolerance against the golden reference;
        backends without an entry use ``default_tolerance``.
    default_tolerance:
        Fallback relative-error tolerance.
    backend_tolerance_modes:
        Per-backend tolerance *mode*: ``"exact"`` (default — the relative
        Frobenius error must sit under the tolerance) or ``"stochastic"``
        (for Monte Carlo backends — the tolerance is widened by a
        confidence interval derived from the backend's reported standard
        errors, so a correct estimator with an honest error bar passes at
        any walk budget).  Backends without an entry gate exactly.
    reference_options:
        Extra options of the golden-reference extraction (forwarded to the
        reference backend on top of its harness defaults).
    tags:
        Free-form labels; ``"new-geometry"`` marks the families added on
        top of the paper's original evaluation set.
    """

    name: str
    description: str
    factory: Callable[..., Layout]
    params: Mapping[str, Any] = field(default_factory=dict)
    full_params: Mapping[str, Any] = field(default_factory=dict)
    size_params: tuple[str, ...] = ()
    backend_options: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    backend_tolerances: Mapping[str, float] = field(default_factory=dict)
    default_tolerance: float = 0.12
    backend_tolerance_modes: Mapping[str, str] = field(default_factory=dict)
    reference_options: Mapping[str, Any] = field(default_factory=dict)
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workload name must be a non-empty string")
        if not callable(self.factory):
            raise ValueError(f"workload {self.name!r} factory must be callable")
        if self.default_tolerance <= 0.0:
            raise ValueError(
                f"workload {self.name!r} default_tolerance must be positive, "
                f"got {self.default_tolerance}"
            )
        for backend, tolerance in self.backend_tolerances.items():
            if tolerance <= 0.0:
                raise ValueError(
                    f"workload {self.name!r} tolerance for backend {backend!r} "
                    f"must be positive, got {tolerance}"
                )
        for backend, mode in self.backend_tolerance_modes.items():
            if mode not in TOLERANCE_MODES:
                raise ValueError(
                    f"workload {self.name!r} tolerance mode for backend "
                    f"{backend!r} must be one of {TOLERANCE_MODES}, got {mode!r}"
                )

    # ------------------------------------------------------------------
    def params_for(self, full: bool = False) -> dict[str, Any]:
        """The factory parameters of the quick or full instance."""
        merged = dict(self.params)
        if full:
            merged.update(self.full_params)
        return merged

    def layout(self, full: bool = False, **overrides: Any) -> Layout:
        """Build the layout of the quick/full instance (plus overrides)."""
        parameters = self.params_for(full)
        parameters.update(overrides)
        return self.factory(**parameters)

    def sized_layout(self, size: int, full: bool = False) -> Layout:
        """Build the layout with the size knob set to ``size``.

        Raises
        ------
        ValueError
            When the family declares no size knob, or ``size`` is not a
            positive integer.
        """
        if not self.size_params:
            raise ValueError(f"workload {self.name!r} has no size knob")
        if size < 1:
            raise ValueError(f"workload size must be >= 1, got {size}")
        return self.layout(full=full, **{name: int(size) for name in self.size_params})

    # ------------------------------------------------------------------
    def options_for(self, backend: str) -> dict[str, Any]:
        """Extraction options of one backend (empty when unconfigured)."""
        return dict(self.backend_options.get(backend, {}))

    def tolerance_for(self, backend: str) -> float:
        """Relative-error tolerance of one backend vs the golden reference."""
        return float(self.backend_tolerances.get(backend, self.default_tolerance))

    def tolerance_mode_for(self, backend: str) -> str:
        """Tolerance mode of one backend: ``"exact"`` or ``"stochastic"``."""
        return str(self.backend_tolerance_modes.get(backend, "exact"))

    @property
    def is_new_geometry(self) -> bool:
        """Whether the family is new geometry on top of the paper's set."""
        return NEW_GEOMETRY_TAG in self.tags


_REGISTRY: dict[str, Workload] = {}


def register_workload(workload: Workload, *, replace: bool = False) -> Workload:
    """Register a workload family under its name.

    Returns the workload so the function can be chained; pass
    ``replace=True`` to overwrite an existing name (used by tests).
    """
    if workload.name in _REGISTRY and not replace:
        raise ValueError(
            f"workload {workload.name!r} is already registered; "
            "pass replace=True to overwrite"
        )
    _REGISTRY[workload.name] = workload
    return workload


def unregister_workload(name: str) -> None:
    """Remove a workload family from the registry (no-op when absent)."""
    _REGISTRY.pop(name, None)


def get_workload(name: str) -> Workload:
    """Look up a registered workload family by name.

    Raises
    ------
    KeyError
        When no family of that name is registered; the message lists the
        available names.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(available_workloads()) or "<none>"
        raise KeyError(
            f"no workload named {name!r}; available workloads: {available}"
        ) from None


def available_workloads() -> list[str]:
    """Sorted names of all registered workload families."""
    return sorted(_REGISTRY)


def all_workloads() -> list[Workload]:
    """All registered workload families, sorted by name."""
    return [_REGISTRY[name] for name in available_workloads()]
