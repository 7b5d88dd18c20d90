"""Parallel execution substrate: worker-pool seam, simulated machine, timing helpers.

The paper evaluates its solver on a 4-core shared-memory machine (OpenMP)
and a 2-processor/10-core distributed-memory machine (MPI).  The evaluation
container for this reproduction has a *single* physical core, so genuine
wall-clock speedups cannot be observed directly.  Instead,
:class:`~repro.parallel.machine.SimulatedParallelMachine` replays the exact
parallel decomposition (Algorithm 1's work partition, the per-node compute
times measured while executing each partition, and the communication volumes
of the distributed flow) on a simple machine model, which reproduces the
quantities Figure 8 and Table 3 are about: load balance, serial fraction and
communication overhead.  The real worker-process flows in
:mod:`repro.assembly` remain available for functional verification; they,
like every other compute fan-out of the package, run through
:mod:`repro.parallel.executor`.
"""

from repro.parallel.machine import (
    MachineModel,
    ParallelRunTiming,
    SimulatedParallelMachine,
    calibrate_unit_costs,
    with_predicted_times,
)
from repro.parallel.timing import SolverTimer, Stopwatch, measure

__all__ = [
    "MachineModel",
    "SimulatedParallelMachine",
    "ParallelRunTiming",
    "SolverTimer",
    "Stopwatch",
    "calibrate_unit_costs",
    "measure",
    "with_predicted_times",
]
