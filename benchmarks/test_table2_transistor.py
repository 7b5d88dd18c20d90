"""Benchmark regenerating paper Table 2 (transistor interconnect vs FASTCAP)."""

from __future__ import annotations

from conftest import run_once

from repro.core.experiments import run_table2


def test_table2_transistor_interconnect(benchmark, quick_mode):
    """Setup/total time, memory and accuracy of the three solvers."""
    report = run_once(benchmark, run_table2, quick=quick_mode)
    print("\n" + report.text)
    benchmark.extra_info["table"] = {
        key: value for key, value in report.data.items() if not isinstance(value, dict)
    }

    data = report.data
    fastcap = data["FASTCAP-like"]
    compact = data["instantiable"]
    # Reproduction targets (shape): the compact basis uses far fewer unknowns,
    # runs faster in total and needs less memory than the FASTCAP-like
    # baseline, at comparable (few-percent to ~10 %) accuracy.
    assert compact["unknowns"] < fastcap["unknowns"] / 3
    assert data["speedup_vs_fastcap"] > 1.0
    assert data["memory_ratio"] > 1.5
    assert compact["error"] < 0.15
    assert fastcap["error"] < 0.15
