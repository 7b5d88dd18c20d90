"""Stock backends of the unified extraction engine.

Each adapter wraps one existing solver pipeline behind the
:class:`~repro.engine.registry.Backend` protocol, translating keyword
options into the solver's native configuration and returning the unified
:class:`~repro.core.results.ExtractionResult`:

====================  ==================================================  =============
name                  pipeline                                            unknowns
====================  ==================================================  =============
instantiable          instantiable-basis condensed system, direct solve   basis functions
pwc-dense             dense piecewise-constant Galerkin BEM               panels
fastcap               multipole-accelerated PWC collocation + GMRES       panels
galerkin-shared       shared-memory parallel Galerkin assembly + GMRES    basis functions
galerkin-distributed  distributed partial-matrix assembly + GMRES         basis functions
galerkin-aca          H-matrix-compressed Galerkin (ACA far field)+GMRES  basis functions
frw                   floating-random-walk Monte Carlo (no linear system) none (walks)
====================  ==================================================  =============

``instantiable`` and the three ``galerkin-*`` names run one Galerkin
pipeline, :func:`repro.core.engine.extract_galerkin`; each translates its
options into that pipeline's setup and solve.  The two parallel
``galerkin-*`` translations live in :mod:`repro.engine.parallel_backends`,
the compressed ``galerkin-aca`` one in :mod:`repro.compress.backend`, and
the stochastic ``frw`` backend in :mod:`repro.frw.backend`; they are
registered here alongside the serial adapters.
"""

from __future__ import annotations

from repro.compress.backend import GalerkinACABackend
from repro.core.config import ExtractionConfig
from repro.core.engine import CapacitanceExtractor
from repro.core.results import ExtractionResult
from repro.engine.parallel_backends import (
    GalerkinDistributedBackend,
    GalerkinSharedBackend,
)
from repro.engine.registry import available_backends, register_backend
from repro.fastcap.solver import FastCapSolver
from repro.frw.backend import FRWBackend
from repro.geometry.layout import Layout
from repro.pwc.solver import PWCSolver

__all__ = [
    "InstantiableBackend",
    "PWCDenseBackend",
    "FastCapBackend",
    "register_default_backends",
]


class InstantiableBackend:
    """The paper's instantiable-basis extractor behind the engine API.

    Options are either a prebuilt ``config=ExtractionConfig(...)`` or the
    keyword fields of :class:`~repro.core.config.ExtractionConfig`
    (``tolerance``, ``acceleration``, ``parallel_mode``, ``num_nodes``, ...).
    """

    name = "instantiable"
    description = (
        "Instantiable-basis extractor of the paper: compact condensed system, "
        "parallel matrix fill, direct solve"
    )

    def extract(self, layout: Layout, *, config: ExtractionConfig | None = None, **options) -> ExtractionResult:
        if config is not None:
            if options:
                raise TypeError(
                    "pass either a prebuilt config or keyword options, not both; "
                    f"got config and {sorted(options)}"
                )
        else:
            config = ExtractionConfig(**options)
        config.validate()
        return CapacitanceExtractor(config).extract(layout)


class PWCDenseBackend:
    """The dense piecewise-constant Galerkin reference solver.

    Options are the :class:`~repro.pwc.solver.PWCSolver` constructor
    arguments (``cells_per_edge``, ``grading_ratio``, ``max_edge``,
    ``order_near``).
    """

    name = "pwc-dense"
    description = (
        "Dense piecewise-constant Galerkin BEM: one unknown per panel, "
        "direct solve (accuracy reference)"
    )

    def extract(self, layout: Layout, **options) -> ExtractionResult:
        return PWCSolver(**options).solve(layout)


class FastCapBackend:
    """The FASTCAP-like multipole-accelerated baseline.

    Options are the :class:`~repro.fastcap.solver.FastCapSolver`
    constructor arguments (``cells_per_edge``, ``theta``, ``max_leaf_size``,
    ``tolerance``, ``max_iterations``, ``expansion_order``, ...).  The
    accuracy knobs ``theta`` (multipole acceptance) and ``expansion_order``
    (highest retained moment, 0-2) travel through this options dict — e.g.
    ``python -m repro extract --backend fastcap --option theta=0.3
    --option expansion_order=1`` — so they enter the request fingerprint and
    are cached like every other option.
    """

    name = "fastcap"
    description = (
        "FASTCAP-like baseline: multipole-accelerated PWC collocation, "
        "GMRES solve per conductor"
    )

    def extract(self, layout: Layout, **options) -> ExtractionResult:
        return FastCapSolver(**options).solve(layout)


def register_default_backends() -> None:
    """Register the stock backends (idempotent)."""
    registered = set(available_backends())
    stock = (
        InstantiableBackend,
        PWCDenseBackend,
        FastCapBackend,
        GalerkinSharedBackend,
        GalerkinDistributedBackend,
        GalerkinACABackend,
        FRWBackend,
    )
    for backend_type in stock:
        if backend_type.name not in registered:
            register_backend(backend_type())
