"""Reproduction of "A Highly Scalable Parallel Boundary Element Method for
Capacitance Extraction" (Hsiao & Daniel, DAC 2011).

The package implements the system described in the paper, except the
integration acceleration of Section 4.2 (slower than the vectorised closed
forms here; see ``docs/benchmarks.md``):

* ``repro.geometry`` -- Manhattan interconnect geometry substrate.
* ``repro.greens`` -- closed-form and quadrature integration of the
  electrostatic Green's function over rectangular panels.
* ``repro.basis`` -- instantiable basis functions (flat and arch templates).
* ``repro.pwc`` -- the standard piecewise-constant BEM substrate.
* ``repro.fastcap`` -- a FASTCAP-like multipole-accelerated baseline.
* ``repro.pfft`` -- a precorrected-FFT baseline.
* ``repro.assembly`` -- the parallel system-setup strategy of Section 3.
* ``repro.parallel`` -- real and simulated parallel execution backends.
* ``repro.solver`` -- dense/iterative solves and capacitance post-processing.
* ``repro.core`` -- the top-level :class:`~repro.core.engine.CapacitanceExtractor` API.
* ``repro.engine`` -- the unified extraction engine: backend registry and
  the batched :class:`~repro.engine.service.ExtractionService`.
* ``repro.analysis`` -- efficiency/error analysis and report generation.

Quickstart::

    from repro import ExtractionService, generators

    layout = generators.crossing_wires(separation=1e-6)
    service = ExtractionService()
    result = service.extract(layout, backend="instantiable")
    print(result.capacitance_femtofarad())

Or drive it from the command line: ``python -m repro extract``.
"""

from typing import Any

__all__ = [
    "CapacitanceExtractor",
    "ExtractionConfig",
    "ExtractionRequest",
    "ExtractionResult",
    "ExtractionService",
    "available_backends",
    "get_backend",
    "register_backend",
    "generators",
    "__version__",
]

__version__ = "1.0.0"

# The heavyweight public classes are imported lazily (PEP 562) so that light
# uses of the subpackages (e.g. ``repro.geometry`` alone) do not pay for the
# full solver import chain.
_LAZY_ATTRIBUTES = {
    "CapacitanceExtractor": ("repro.core.engine", "CapacitanceExtractor"),
    "ExtractionConfig": ("repro.core.config", "ExtractionConfig"),
    "ExtractionRequest": ("repro.engine.request", "ExtractionRequest"),
    "ExtractionResult": ("repro.core.results", "ExtractionResult"),
    "ExtractionService": ("repro.engine", "ExtractionService"),
    "available_backends": ("repro.engine", "available_backends"),
    "get_backend": ("repro.engine", "get_backend"),
    "register_backend": ("repro.engine", "register_backend"),
    "generators": ("repro.geometry.generators", None),
}


def __getattr__(name: str) -> Any:
    """Resolve the lazily exported public attributes."""
    try:
        module_name, attribute = _LAZY_ATTRIBUTES[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attribute is None else getattr(module, attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_ATTRIBUTES))
