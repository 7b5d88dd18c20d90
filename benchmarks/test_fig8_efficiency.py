"""Benchmark regenerating paper Figure 8 (parallel efficiency curves)."""

from __future__ import annotations

from conftest import run_once

from repro.core.experiments import run_fig8


def test_fig8_parallel_efficiency_curves(benchmark, quick_mode):
    """This work (OpenMP/MPI) vs published parallel FMM and pFFT curves."""
    report = run_once(benchmark, run_fig8, quick=quick_mode)
    print("\n" + report.text)
    benchmark.extra_info["curves"] = {
        "this_work_distributed": report.data["this_work_distributed"],
        "parallel_fmm": report.data["parallel_fmm"],
        "parallel_pfft": report.data["parallel_pfft"],
    }

    # The modelled efficiency of this work rests on timings of the machine
    # that runs the test and is only reported; its deterministic bound, the
    # work balance of the partitions' evaluated pair integrals, is what is
    # compared.
    ours = report.data["this_work_distributed_balance"]
    fmm = report.data["parallel_fmm"]
    pfft = report.data["parallel_pfft"]
    # Reproduction target: at 8 nodes this work stays near 90 % efficiency
    # while the prior parallel FMM and pFFT approaches have dropped to ~65 %
    # and ~42 % -- the crossing of the curves is the figure's message.
    assert ours[8] > fmm[8] > pfft[8]
    assert ours[8] > 0.70
    assert ours[10] > 0.65
    assert abs(fmm[8] - 0.65) < 0.02
    assert abs(pfft[8] - 0.42) < 0.02
    assert report.data["flow_max_rel_diff"] <= 1e-12
