"""Real-``multiprocessing`` system-setup flows (fork pool + pipe transfer).

The default test suite exercises the sequential ("simulated") execution of
the parallel assembly flows; these tests run the *actual* process pools of
paper Figures 4 and 6 — including the transfer of
:class:`~repro.assembly.distributed.PartialMatrix` messages over OS pipes —
and assert bit-identical results.  They are marked ``multiprocess`` so CI
can run them explicitly, and skip gracefully on single-core hosts.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.assembly import (
    BatchGalerkinAssembler,
    DistributedAssembler,
    SharedMemoryAssembler,
)
from repro.assembly.batch import ChunkResult
from repro.assembly.distributed import PartialMatrix, _column_block
from repro.basis import build_basis_set
from repro.engine import get_backend
from repro.obs.trace import start_trace

pytestmark = [
    pytest.mark.multiprocess,
    pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="real multiprocessing flows need >= 2 cores",
    ),
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="real multiprocessing flows use the fork start method",
    ),
]


def _send_chunk(connection, assembler, part) -> None:
    """Child-process target: assemble one partition and pipe the message back.

    The forked child inherits the parent's assembler, as the pool workers do.
    """
    partial, chunk = _column_block(assembler, part.start, part.stop)
    connection.send((partial, chunk))
    connection.close()


class TestProcessPools:
    def test_distributed_pool_matches_sequential(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        reference = BatchGalerkinAssembler(basis_set, permittivity).assemble()
        result = DistributedAssembler(
            basis_set, permittivity, num_nodes=2, use_processes=True
        ).assemble()
        np.testing.assert_allclose(result.matrix, reference, rtol=1e-12)
        # Forked workers inherit the parent's assembler: the same bits as
        # the in-process flow.
        in_process = DistributedAssembler(basis_set, permittivity, num_nodes=2).assemble()
        np.testing.assert_array_equal(result.matrix, in_process.matrix)
        assert result.num_nodes == 2
        assert result.communication_bytes[0] == 0
        assert all(b > 0 for b in result.communication_bytes[1:])

    def test_shared_pool_matches_sequential(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        reference = BatchGalerkinAssembler(basis_set, permittivity).assemble()
        shared = SharedMemoryAssembler(basis_set, permittivity, num_nodes=2, use_processes=True)
        result = shared.assemble()
        np.testing.assert_allclose(result.matrix, reference, rtol=1e-12)
        # Each worker returns its own partial matrix; summing the in-process
        # partitions the same way gives the same bits.
        summed = sum(
            shared.assembler.assemble_chunk(part.start, part.stop)[0]
            for part in shared.partitions()
        )
        np.testing.assert_array_equal(result.matrix, summed)
        # Every worker pickles its full N x N float64 partial back.
        n = basis_set.num_basis_functions
        assert result.communication_bytes == [8 * n * n, 8 * n * n]

    def test_shared_pool_traffic_and_work_on_span(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        with start_trace() as trace:
            result = SharedMemoryAssembler(
                basis_set, permittivity, num_nodes=2, use_processes=True
            ).assemble()
        (assemble,) = [s for s in trace.spans if s.name == "assembly.assemble"]
        assert assemble.attributes["communication_bytes"] == sum(result.communication_bytes) > 0
        assert assemble.attributes["pairs"] == sum(r.num_pairs for r in result.node_results)
        assert assemble.attributes["pairs_evaluated"] == sum(
            r.num_evaluated for r in result.node_results
        )
        assert 0 < assemble.attributes["pairs_evaluated"] <= assemble.attributes["pairs"]


class TestPartialMatrixPipeTransfer:
    def test_partial_matrix_roundtrip_over_pipe(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        assembler = DistributedAssembler(basis_set, permittivity, num_nodes=2)
        part = assembler.partitions()[1]  # a non-main partition (it communicates)

        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(target=_send_chunk, args=(sender, assembler.assembler, part))
        process.start()
        sender.close()
        received_partial, received_chunk = receiver.recv()
        process.join(timeout=120)
        assert process.exitcode == 0

        assert isinstance(received_partial, PartialMatrix)
        assert isinstance(received_chunk, ChunkResult)
        expected_partial, expected_chunk = _column_block(assembler.assembler, part.start, part.stop)
        assert received_partial.first_column == expected_partial.first_column
        assert received_partial.last_column == expected_partial.last_column
        # Same arithmetic on both sides of the pipe: bit-identical blocks.
        np.testing.assert_array_equal(received_partial.block, expected_partial.block)
        assert received_partial.nbytes == expected_partial.nbytes > 0
        assert received_chunk.category_counts == expected_chunk.category_counts


class TestBackendProcessExecutor:
    @pytest.mark.parametrize("backend", ["galerkin-shared", "galerkin-distributed"])
    def test_process_executor_matches_simulated(self, crossing_layout, backend):
        simulated = get_backend(backend).extract(
            crossing_layout, workers=2, executor="simulated"
        )
        processed = get_backend(backend).extract(
            crossing_layout, workers=2, executor="process"
        )
        np.testing.assert_allclose(
            processed.capacitance, simulated.capacitance, rtol=1e-12
        )
        assert processed.metadata["executor"] == "process"
        assert processed.num_workers == 2
