"""Parallel Galerkin backends: per-worker breakdown and a scaling sweep.

Extracts a crossing bus through the ``galerkin-distributed`` backend and
prints the per-worker setup times and communication volumes of the paper's
Section 5.2 flow, then prints the paper's Table 3 sweep
(:func:`repro.core.experiments.run_table3`): speedup and efficiency of both
assembly flows over node counts.  Those timings come from the
``SimulatedParallelMachine`` model fed with calibrated per-partition work,
not from wall-clock runs; ``perfbench/run.py`` measures the real pool.

Run with ``python examples/parallel_scaling.py``.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core.experiments import run_table3
from repro.engine import get_backend
from repro.geometry import generators


def main() -> None:
    layout = generators.bus_crossing(3, 3)
    result = get_backend("galerkin-distributed").extract(layout, workers=4)

    rows = [
        [str(worker), f"{seconds * 1e3:.1f} ms", f"{num_bytes} B"]
        for worker, (seconds, num_bytes) in enumerate(
            zip(result.worker_setup_seconds, result.worker_communication_bytes), start=1
        )
    ]
    print(
        format_table(
            ["worker", "setup time", "sent to main"],
            rows,
            title=(
                f"galerkin-distributed on a 3x3 bus -- N={result.num_unknowns}, "
                f"{result.iterations.total_iterations} GMRES iterations"
            ),
        )
    )
    print()

    report = run_table3(bus_size=3, shared_nodes=(1, 2, 4), distributed_nodes=(1, 2, 4))
    print(report.text)


if __name__ == "__main__":
    main()
