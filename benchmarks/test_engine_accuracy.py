"""Accuracy benchmark over the workload registry.

Extracts every registered workload family with every registered backend and
compares the capacitance matrices against the committed golden references
in ``benchmarks/golden/`` — the same suite the CI accuracy gate
(``benchmarks/check_accuracy.py``) runs via ``python -m repro accuracy``.
The machine-readable artifact is written to the test's temporary directory,
so a test run leaves the checkout untouched.
"""

from __future__ import annotations

from conftest import run_once

from repro.engine.registry import available_backends
from repro.workloads import all_workloads, run_accuracy_suite, write_accuracy_json


def test_accuracy_suite(benchmark, quick_mode, tmp_path):
    """All backends x all workload families within tolerance vs golden."""
    report = run_once(benchmark, run_accuracy_suite, quick=quick_mode)
    print("\n" + report.text)
    target = write_accuracy_json(report, tmp_path / "BENCH_accuracy.json")
    print(f"\nwrote {target}")
    benchmark.extra_info["worst"] = report.data["worst"]

    data = report.data
    assert data["failures"] == []
    assert data["all_within_tolerance"] is True
    assert data["num_workloads"] == len(all_workloads()) >= 8
    assert data["num_new_geometry"] >= 3
    assert set(data["backends"]) == set(available_backends())
    for per_workload in data["workloads"].values():
        assert per_workload["golden_error"] is None
        for record in per_workload["backends"].values():
            assert record["within_tolerance"] is True
            assert record["frobenius_relative_error"] <= record["tolerance"]
