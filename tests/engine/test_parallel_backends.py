"""Parallel Galerkin backends: serial equivalence and per-worker plumbing.

The ``galerkin-shared`` and ``galerkin-distributed`` backends must reproduce
the serial instantiable-basis capacitance to round-off at every worker count
(the parallel flows change the execution order, not the arithmetic), and
their results must carry the per-worker setup times and communication
volumes of the paper's Section 5 flows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.results import ExtractionResult
from repro.engine import available_backends, get_backend

PARALLEL_BACKENDS = ("galerkin-shared", "galerkin-distributed")


@pytest.fixture(scope="module")
def serial_result(crossing_layout):
    """The serial instantiable-basis reference extraction."""
    return get_backend("instantiable").extract(crossing_layout)


class TestRegistration:
    def test_parallel_backends_registered(self):
        assert set(PARALLEL_BACKENDS) <= set(available_backends())

    def test_names_and_descriptions(self):
        for name in PARALLEL_BACKENDS:
            backend = get_backend(name)
            assert backend.name == name
            assert backend.description
            assert backend.assembly_flow in ("shared-memory", "distributed")


class TestSerialEquivalence:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial_backend(self, crossing_layout, serial_result, backend, workers):
        result = get_backend(backend).extract(crossing_layout, workers=workers)
        np.testing.assert_allclose(
            result.capacitance, serial_result.capacitance, rtol=1e-10
        )
        assert result.num_unknowns == serial_result.num_unknowns

    def test_worker_counts_agree_with_each_other(self, crossing_layout):
        for backend in PARALLEL_BACKENDS:
            one, four = (
                get_backend(backend).extract(crossing_layout, workers=w)
                for w in (1, 4)
            )
            np.testing.assert_allclose(one.capacitance, four.capacitance, rtol=1e-12)


class TestResultPlumbing:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_per_worker_fields_filled(self, crossing_layout, backend):
        result = get_backend(backend).extract(crossing_layout, workers=3)
        assert type(result) is ExtractionResult
        assert result.backend == backend
        assert result.parallel_setup is not None
        assert result.num_workers == 3
        assert len(result.worker_setup_seconds) == 3
        assert all(seconds > 0.0 for seconds in result.worker_setup_seconds)
        assert len(result.worker_communication_bytes) == 3
        assert result.iterations is not None
        assert result.iterations.total_iterations > 0
        assert result.metadata["workers"] == 3
        assert result.metadata["executor"] == "simulated"

    def test_shared_flow_never_communicates(self, crossing_layout):
        result = get_backend("galerkin-shared").extract(crossing_layout, workers=4)
        assert result.worker_communication_bytes == [0, 0, 0, 0]

    def test_distributed_flow_sends_partial_matrices(self, crossing_layout):
        result = get_backend("galerkin-distributed").extract(crossing_layout, workers=4)
        bytes_per_worker = result.worker_communication_bytes
        assert bytes_per_worker[0] == 0  # the main process never sends
        assert all(b > 0 for b in bytes_per_worker[1:])

    def test_as_dict_reports_worker_details(self, crossing_layout):
        summary = get_backend("galerkin-distributed").extract(
            crossing_layout, workers=2
        ).as_dict()
        assert summary["num_workers"] == 2
        assert len(summary["worker_setup_seconds"]) == 2
        assert len(summary["worker_communication_bytes"]) == 2
        assert summary["load_imbalance"] >= 1.0
        assert summary["total_iterations"] > 0

    def test_serial_backends_report_no_workers(self, crossing_layout):
        result = get_backend("pwc-dense").extract(crossing_layout, cells_per_edge=2)
        assert result.num_workers == 0
        assert result.worker_setup_seconds == []
        assert result.worker_communication_bytes == []
        assert "num_workers" not in result.as_dict()


class TestSizedBusFamily:
    """The registered bus family sized through its knob, as a scaling sweep runs it."""

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("size", [2, 3])
    def test_sized_bus_matches_serial_at_two_workers(self, backend, size):
        from repro.workloads import get_workload

        layout = get_workload("bus_crossing").sized_layout(size)
        assert layout.num_conductors == 2 * size
        serial = get_backend("instantiable").extract(layout)
        result = get_backend(backend).extract(layout, workers=2)
        np.testing.assert_allclose(result.capacitance, serial.capacitance, rtol=1e-10)
        sent = result.worker_communication_bytes
        if backend == "galerkin-distributed":
            assert sent[0] == 0 and sent[1] > 0
        else:
            assert sent == [0, 0]


class TestValidation:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_rejects_invalid_workers(self, crossing_layout, backend):
        with pytest.raises(ValueError, match="workers"):
            get_backend(backend).extract(crossing_layout, workers=0)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_rejects_unknown_executor(self, crossing_layout, backend):
        with pytest.raises(ValueError, match="executor"):
            get_backend(backend).extract(crossing_layout, executor="gpu")
