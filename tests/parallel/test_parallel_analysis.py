"""Tests for the simulated parallel machine and the scaling analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    ScalingTable,
    amdahl_efficiency,
    format_table,
    parallel_fmm_efficiency,
    parallel_pfft_efficiency,
    published_reference_curves,
)
from repro.assembly import DistributedAssembler, SharedMemoryAssembler
from repro.basis import build_basis_set
from repro.parallel import (
    MachineModel,
    SimulatedParallelMachine,
    Stopwatch,
    measure,
)


class TestMachineModel:
    def test_send_time_components(self):
        model = MachineModel(
            communication_latency_seconds=1e-3,
            communication_bandwidth_bytes_per_second=1e6,
        )
        assert model.send_time(0) == 0.0
        assert model.send_time(1_000_000) == pytest.approx(1e-3 + 1.0)

    def test_reduction_time(self):
        model = MachineModel(reduction_seconds_per_byte=1e-9)
        assert model.reduction_time(1_000_000) == pytest.approx(1e-3)


class TestSimulatedMachine:
    def test_shared_memory_partitions_balance_evaluated_pairs(self, crossing_layout, permittivity):
        # The paper's scaling argument is deterministic: equal partitions of
        # the iteration space carry near-equal kernel work, so the work
        # balance mean/max of the partitions' evaluated pair integrals bounds
        # the efficiency from below, and every node count assembles the
        # same matrix.
        basis_set = build_basis_set(crossing_layout)
        setups = {
            nodes: SharedMemoryAssembler(basis_set, permittivity, num_nodes=nodes).assemble()
            for nodes in (1, 2, 4)
        }
        balance = {}
        for nodes, setup in setups.items():
            counts = [chunk.num_evaluated for chunk in setup.node_results]
            assert len(counts) == nodes and min(counts) > 0
            balance[nodes] = float(np.mean(counts)) / max(counts)
            np.testing.assert_array_equal(setup.matrix, setups[1].matrix)
        assert balance[1] == 1.0
        assert balance[2] > 0.9
        assert balance[4] > 0.85

    def test_distributed_run_includes_communication(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        setup = DistributedAssembler(basis_set, permittivity, num_nodes=3).assemble()
        machine = SimulatedParallelMachine()
        timing = machine.distributed_run(setup, solve_seconds=0.01)
        assert timing.num_nodes == 3
        assert timing.communication_seconds > 0.0
        assert timing.total_seconds == pytest.approx(
            timing.setup_seconds + timing.solve_seconds
        )
        assert timing.solve_seconds == pytest.approx(0.01)

    def test_single_node_has_no_overhead(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        setup = SharedMemoryAssembler(basis_set, permittivity, num_nodes=1).assemble()
        timing = SimulatedParallelMachine().shared_memory_run(setup)
        assert timing.overhead_seconds == 0.0


class TestScalingTable:
    def test_from_times_perfect_scaling(self):
        table = ScalingTable.from_times("ideal", [1, 2, 4], [8.0, 4.0, 2.0])
        assert table.efficiency_at(4) == pytest.approx(1.0)
        assert table.speedups == pytest.approx([1.0, 2.0, 4.0])

    def test_efficiency_below_one_for_overheads(self):
        table = ScalingTable.from_times("real", [1, 2], [8.0, 5.0])
        assert table.efficiency_at(2) == pytest.approx(0.8)

    def test_rows_formatting(self):
        table = ScalingTable.from_times("x", [1, 2], [2.0, 1.0])
        rows = table.rows()
        assert rows[0][0] == "1" and rows[1][3] == "100%"

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalingTable.from_times("bad", [1, 2], [1.0])
        with pytest.raises(ValueError):
            ScalingTable.from_times("bad", [], [])
        with pytest.raises(KeyError):
            ScalingTable.from_times("x", [1], [1.0]).efficiency_at(2)


class TestAmdahl:
    def test_zero_serial_fraction_is_ideal(self):
        nodes = np.asarray([1, 2, 4, 8])
        assert np.allclose(amdahl_efficiency(nodes, 0.0), 1.0)

    def test_invalid_serial_fraction(self):
        with pytest.raises(ValueError):
            amdahl_efficiency(np.asarray([1, 2]), 1.5)


class TestReferenceCurves:
    def test_anchored_at_published_8_core_values(self):
        nodes = np.asarray([8])
        assert parallel_pfft_efficiency(nodes)[0] == pytest.approx(0.42, abs=0.01)
        assert parallel_fmm_efficiency(nodes)[0] == pytest.approx(0.65, abs=0.01)

    def test_curves_decrease_with_nodes(self):
        curves = published_reference_curves(10)
        assert np.all(np.diff(curves["parallel_pfft"]) < 0.0)
        assert np.all(np.diff(curves["parallel_fmm"]) < 0.0)
        # pFFT scales worse than FMM everywhere beyond one node.
        assert np.all(curves["parallel_pfft"][1:] < curves["parallel_fmm"][1:])

    def test_single_node_is_100_percent(self):
        curves = published_reference_curves(4)
        assert curves["parallel_pfft"][0] == pytest.approx(1.0)
        assert curves["parallel_fmm"][0] == pytest.approx(1.0)


class TestReportAndTiming:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "333" in lines[-1]

    def test_format_table_validates_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        with watch.lap("work"):
            sum(range(1000))
        with watch.lap("work"):
            sum(range(1000))
        assert watch.laps["work"] > 0.0
        assert watch.total == pytest.approx(sum(watch.laps.values()))

    def test_measure_returns_value_and_time(self):
        value, seconds = measure(lambda: 42)
        assert value == 42 and seconds >= 0.0
