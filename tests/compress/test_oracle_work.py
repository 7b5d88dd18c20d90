"""Work counts of the entry oracle, whose kernel core keeps one key table.

An H-matrix build samples the condensed matrix in many oracle calls (the
near field, then one call per lockstep ACA step).  The oracle's key table
lives as long as the oracle, so each kernel key is evaluated once per
build, not once per call.  Counts only; no wall-clock assertions.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.assembly import batch
from repro.assembly.mapping import triangular_index_to_pair
from repro.basis.instantiate import InstantiationConfig, build_basis_set
from repro.compress.entries import GalerkinEntries
from repro.compress.hmatrix import build_hmatrix
from repro.engine import ExtractionRequest, ExtractionService
from repro.geometry import generators
from repro.obs.trace import start_trace


def _build_span(trace):
    (build,) = [s for s in trace.spans if s.name == "assembly.build_hmatrix"]
    return build.attributes


class TestBus6x6:
    """``galerkin-aca``'s configuration of the H-matrix benchmark: bus 6x6,
    ``face_refinement=2``, ``leaf_size=16``."""

    @pytest.fixture(scope="class")
    def built(self):
        layout = generators.bus_crossing(6, 6)
        basis_set = build_basis_set(layout, InstantiationConfig(face_refinement=2))
        entries = GalerkinEntries(basis_set, layout.permittivity)
        with start_trace("test") as trace:
            hmatrix = build_hmatrix(entries, leaf_size=16, executor="serial")
        return entries, hmatrix, _build_span(trace)

    def test_each_key_is_evaluated_once_per_build(self, built):
        entries, hmatrix, attributes = built
        assert attributes["pairs_requested"] == 130_202
        assert attributes["keys_evaluated"] == 39_390
        assert entries.assembler.core.table_size == 39_390
        assert hmatrix.entries_sampled == 63_550

    def test_no_more_than_one_dense_batch_of_the_basis(self, built):
        entries, _, attributes = built
        core = entries.assembler.core
        dense = type(core)(core.arrays, core.permittivity)
        i, j = triangular_index_to_pair(np.arange(core.arrays.num_pairs))
        evaluated: dict[str, int] = {}
        dense.evaluate_pairs(i, j, evaluated=evaluated)
        assert sum(evaluated.values()) == 41_506
        assert attributes["keys_evaluated"] <= sum(evaluated.values())


class TestOracleCounts:
    @pytest.fixture
    def entries(self):
        layout = generators.bus_crossing(2, 2)
        return GalerkinEntries(build_basis_set(layout), layout.permittivity)

    def test_work_counts_and_metric_follow_the_table(self, entries):
        rows = np.arange(entries.num_unknowns)
        before = {c: batch._PAIRS_EVALUATED.value(category=c) for c in batch.CATEGORIES}
        first: Counter[str] = Counter()
        block = entries.block(rows, rows)
        entries.entry_values(np.repeat(rows, rows.size), np.tile(rows, rows.size), work=first)
        evaluated = sum(
            batch._PAIRS_EVALUATED.value(category=c) - before[c] for c in batch.CATEGORIES
        )
        # The block call filled the table; the repeat evaluated nothing.
        assert evaluated == entries.assembler.core.table_size > 0
        assert first["entries_sampled"] == rows.size**2
        assert first["pairs_requested"] >= rows.size**2
        assert first["keys_evaluated"] == 0
        np.testing.assert_array_equal(
            entries.entry_values(np.repeat(rows, rows.size), np.tile(rows, rows.size)),
            block.ravel(),
        )

    @pytest.mark.parametrize(
        "executor", ["serial", "thread", pytest.param("process", marks=pytest.mark.multiprocess)]
    )
    def test_build_span_reports_the_partitions_work(self, entries, executor):
        with start_trace("test") as trace:
            hmatrix = build_hmatrix(entries, leaf_size=4, num_workers=2, executor=executor)
        attributes = _build_span(trace)
        assert attributes["pairs_requested"] >= hmatrix.entries_sampled > 0
        assert 0 < attributes["keys_evaluated"] <= attributes["pairs_requested"]


def test_concurrent_extractions_match_serial_runs():
    """Two layouts extracted at once, each on a two-thread H-matrix build."""
    layouts = [generators.bus_crossing(3, 3), generators.crossing_wires()]
    options = {"face_refinement": 2, "leaf_size": 8, "executor": "thread", "num_workers": 2}
    requests = [
        ExtractionRequest(layout, backend="galerkin-aca", options=options) for layout in layouts
    ]
    concurrent = ExtractionService(executor="thread", max_workers=2).extract_batch(requests)
    alone = {**options, "executor": "serial", "num_workers": 1}
    serial = [
        ExtractionService(executor="serial").extract(layout, backend="galerkin-aca", **alone)
        for layout in layouts
    ]
    for pooled, reference in zip(concurrent.results, serial):
        np.testing.assert_array_equal(pooled.capacitance, reference.capacitance)
