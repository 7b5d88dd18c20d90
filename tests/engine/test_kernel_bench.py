"""Tests of the kernel bench (``repro.engine.kernel_bench`` / ``python -m repro kernel``)."""

from __future__ import annotations

import json

import pytest

from repro.core.experiments import ExperimentReport
from repro.engine.cli import main
from repro.engine.kernel_bench import (
    KERNEL_AGREEMENT_BOUND,
    agreement_failures,
    run_kernel_bench,
    write_kernel_json,
)


@pytest.fixture(scope="module")
def quick_report():
    """A minimal sweep: the 2x2 bus on a coarse basis, 200 sampled pairs."""
    return run_kernel_bench(sizes=(2,), face_refinement=2, sample_pairs=200)


class TestRunKernelBench:
    def test_batched_values_agree_with_reference(self, quick_report):
        entry = quick_report.data["entries"]["bus2x2"]
        assert entry["sampled_pairs"] == 200
        assert 0.0 <= entry["max_rel_diff"] <= KERNEL_AGREEMENT_BOUND
        assert agreement_failures(quick_report) == []

    def test_records_requested_and_evaluated_pairs(self, quick_report):
        entry = quick_report.data["entries"]["bus2x2"]
        assert entry["requested_pairs"] == entry["num_pairs"]
        assert 0 < entry["evaluated_pairs"] < entry["requested_pairs"]

    def test_records_only_the_one_evaluation_path(self, quick_report):
        """The removed table and JIT modes leave no fields in the artifact."""
        entry = quick_report.data["entries"]["bus2x2"]
        assert set(entry) == {
            "num_basis_functions",
            "num_templates",
            "num_pairs",
            "sampled_pairs",
            "entrywise_us_per_pair",
            "entrywise_seconds_estimated",
            "batched_seconds",
            "speedup",
            "requested_pairs",
            "evaluated_pairs",
            "max_rel_diff",
        }

    def test_agreement_failures_names_sizes_over_the_bound(self):
        report = ExperimentReport(
            name="kernel",
            text="",
            data={
                "entries": {
                    "bus2x2": {"max_rel_diff": 0.5 * KERNEL_AGREEMENT_BOUND},
                    "bus3x3": {"max_rel_diff": 2.0 * KERNEL_AGREEMENT_BOUND},
                    "bus4x4": {"max_rel_diff": float("nan")},
                }
            },
        )
        failures = agreement_failures(report)
        assert [failure.split(":")[0] for failure in failures] == ["bus3x3", "bus4x4"]

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"sample_pairs": 0}, "sample_pairs"), ({"sizes": (0,)}, "bus sizes")],
    )
    def test_rejects_invalid_inputs(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            run_kernel_bench(**kwargs)

    def test_write_kernel_json(self, quick_report, tmp_path):
        target = write_kernel_json(quick_report, tmp_path / "BENCH_kernel.json")
        data = json.loads(target.read_text())
        assert data["workload"] == "bus_crossing"
        assert set(data["entries"]) == {"bus2x2"}


class TestKernelCommand:
    def test_writes_report_and_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "kernel.json"
        code = main(["kernel", "--sizes", "2", "--sample", "50", "--output", str(target)])
        assert code == 0
        assert "bus2x2" in capsys.readouterr().out
        assert json.loads(target.read_text())["sample_pairs"] == 50

    @pytest.mark.parametrize("flag", ["--no-table", "--numba", "--no-numba"])
    def test_removed_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["kernel", flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
