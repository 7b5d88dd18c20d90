"""Unified extraction engine: one request/result contract, many backends.

The engine serves every extraction workload of the reproduction through one
API::

    from repro.engine import ExtractionService, get_backend

    # direct backend use
    result = get_backend("pwc-dense").extract(layout, cells_per_edge=2)

    # batched service with fan-out and caching
    service = ExtractionService(max_workers=4)
    report = service.extract_batch([
        ExtractionRequest(layout, backend="instantiable"),
        ExtractionRequest(layout, backend="fastcap", options={"cells_per_edge": 2}),
    ])

Every backend returns the same :class:`~repro.core.results.ExtractionResult`.
Importing this package registers the six stock backends (``instantiable``,
``pwc-dense``, ``fastcap``, ``galerkin-shared``, ``galerkin-distributed``,
``galerkin-aca``); third-party pipelines join the same registry through
:func:`register_backend`.

The command-line front end lives in :mod:`repro.engine.cli`
(``python -m repro``).
"""

from repro.compress.backend import GalerkinACABackend
from repro.core.results import ExtractionResult
from repro.engine.backends import (
    FastCapBackend,
    InstantiableBackend,
    PWCDenseBackend,
    register_default_backends,
)
from repro.engine.compare import (
    CapacitanceComparison,
    align_capacitance,
    compare_capacitance,
)
from repro.engine.fingerprint import canonicalize, layout_fingerprint, request_fingerprint
from repro.engine.parallel_backends import (
    GalerkinDistributedBackend,
    GalerkinSharedBackend,
)
from repro.engine.registry import (
    Backend,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.engine.request import (
    DEFAULT_BACKEND,
    BatchReport,
    ExtractionRequest,
    RequestStatus,
)
from repro.engine.service import ExtractionService

__all__ = [
    "Backend",
    "BatchReport",
    "CapacitanceComparison",
    "DEFAULT_BACKEND",
    "ExtractionRequest",
    "ExtractionResult",
    "ExtractionService",
    "FastCapBackend",
    "GalerkinACABackend",
    "GalerkinDistributedBackend",
    "GalerkinSharedBackend",
    "InstantiableBackend",
    "PWCDenseBackend",
    "RequestStatus",
    "align_capacitance",
    "available_backends",
    "canonicalize",
    "compare_capacitance",
    "get_backend",
    "layout_fingerprint",
    "register_backend",
    "register_default_backends",
    "request_fingerprint",
    "unregister_backend",
]

register_default_backends()
