"""Analysis utilities: scaling metrics, published reference curves, reports."""

from repro.analysis.efficiency import ScalingPoint, ScalingTable, amdahl_efficiency
from repro.analysis.reference_curves import (
    parallel_fmm_efficiency,
    parallel_pfft_efficiency,
    published_reference_curves,
)
from repro.analysis.report import format_table

__all__ = [
    "ScalingPoint",
    "ScalingTable",
    "amdahl_efficiency",
    "parallel_fmm_efficiency",
    "parallel_pfft_efficiency",
    "published_reference_curves",
    "format_table",
]
