"""Work counts of the entry oracle, whose kernel core keeps one key table.

An H-matrix build samples the condensed matrix in many oracle calls (the
near field, then one call per lockstep ACA step).  The oracle's key table
lives as long as the oracle, so each kernel key is evaluated once per
build, not once per call, and the workers of a parallel build only
evaluate slices of the missing keys, so the counts are the same on every
executor.  Counts only; no wall-clock assertions (the phase spans are
compared with their own build span).
"""

from __future__ import annotations

import multiprocessing
import threading
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


_EXECUTORS = [
    pytest.param(("serial", 1), id="serial"),
    pytest.param(("thread", 2), id="thread-2"),
    pytest.param(("thread", 4), id="thread-4"),
    pytest.param(("process", 2), id="process-2", marks=pytest.mark.multiprocess),
]


def _bus6x6_build(executor: str, num_workers: int):
    """``galerkin-aca``'s configuration of the H-matrix benchmark: bus 6x6,
    ``face_refinement=2``, ``leaf_size=16``."""
    layout = generators.bus_crossing(6, 6)
    basis_set = build_basis_set(layout, InstantiationConfig(face_refinement=2))
    entries = GalerkinEntries(basis_set, layout.permittivity)
    with start_trace("test") as trace:
        hmatrix = build_hmatrix(
            entries, leaf_size=16, executor=executor, num_workers=num_workers
        )
    return entries, hmatrix, trace


class TestBus6x6:
    """Each kernel key is evaluated once per build, whatever the executor."""

    @pytest.fixture(scope="class")
    def serial(self):
        return _bus6x6_build("serial", 1)

    @pytest.fixture(scope="class", params=_EXECUTORS)
    def built(self, request):
        return _bus6x6_build(*request.param)

    def test_each_key_is_evaluated_once_per_build(self, built, serial):
        entries, hmatrix, trace = built
        attributes = _build_span(trace)
        assert attributes["pairs_requested"] == 130_202
        assert attributes["keys_evaluated"] == 39_390
        assert entries.assembler.core.table_size == 39_390
        assert hmatrix.entries_sampled == entries.entries_sampled == 63_550
        assert len(hmatrix.worker_seconds) == attributes["num_workers"]
        for name in ("near", "far_u", "far_v"):
            packed, reference = getattr(hmatrix, name), getattr(serial[1], name)
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(packed, part), getattr(reference, part))

    def test_phase_spans_add_up_to_the_build(self, built):
        _, hmatrix, trace = built
        (build,) = [s for s in trace.spans if s.name == "assembly.build_hmatrix"]
        phases = {s.name: s for s in trace.spans if s.parent_id == build.span_id}
        assert sorted(phases) == ["compress.far", "compress.near", "compress.pack", "compress.tree"]
        # The phases open no spans of their own, so their durations are
        # their self-times.
        assert not [s for s in trace.spans if s.parent_id in {p.span_id for p in phases.values()}]
        assert sum(p.seconds for p in phases.values()) >= 0.95 * build.seconds
        near, far = phases["compress.near"].attributes, phases["compress.far"].attributes
        assert near["blocks"] == len(hmatrix.dense_blocks)
        assert far["blocks"] == len(hmatrix.lowrank_blocks)
        assert phases["compress.tree"].attributes["blocks"] == near["blocks"] + far["blocks"]
        assert near["keys_evaluated"] + far["keys_evaluated"] == 39_390
        workers = build.attributes["num_workers"]
        # The near field's 33,600-odd keys are dealt out; the ACA steps are
        # each too small and run inline.
        assert near["slices_dispatched"] == (workers if workers > 1 else 0)
        assert near["keys_inline"] == (0 if workers > 1 else near["keys_evaluated"])
        assert far["slices_dispatched"] == 0
        assert far["keys_inline"] == far["keys_evaluated"]

    def test_no_more_than_one_dense_batch_of_the_basis(self, serial):
        entries, _, trace = serial
        core = entries.assembler.core
        dense = type(core)(core.arrays, core.permittivity)
        i, j = triangular_index_to_pair(np.arange(core.arrays.num_pairs))
        evaluated: dict[str, int] = {}
        dense.evaluate_pairs(i, j, evaluated=evaluated)
        assert sum(evaluated.values()) == 41_506
        assert _build_span(trace)["keys_evaluated"] <= sum(evaluated.values())


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
        layout = generators.bus_crossing(2, 2)
        alone = GalerkinEntries(build_basis_set(layout), layout.permittivity)
        with start_trace("test") as trace:
            serial = build_hmatrix(alone, leaf_size=4, executor="serial")
        reference = _build_span(trace)
        with start_trace("test") as trace:
            hmatrix = build_hmatrix(entries, leaf_size=4, num_workers=2, executor=executor)
        attributes = _build_span(trace)
        assert hmatrix.entries_sampled == serial.entries_sampled > 0
        assert attributes["pairs_requested"] == reference["pairs_requested"]
        assert attributes["keys_evaluated"] == reference["keys_evaluated"] > 0


class TestNothingOutlivesTheBuild:
    """The build's worker pool is closed when it returns or raises."""

    @pytest.fixture(scope="class")
    def basis(self):
        # Large enough that the near field's keys are dealt to the workers.
        layout = generators.bus_crossing(2, 2)
        return build_basis_set(layout, InstantiationConfig(face_refinement=2)), layout

    @staticmethod
    def _alive() -> tuple[int, int]:
        return threading.active_count(), len(multiprocessing.active_children())

    @pytest.mark.parametrize(
        "executor", ["thread", pytest.param("process", marks=pytest.mark.multiprocess)]
    )
    def test_after_a_build(self, basis, executor):
        basis_set, layout = basis
        before = self._alive()
        with start_trace("test") as trace:
            build_hmatrix(
                GalerkinEntries(basis_set, layout.permittivity),
                leaf_size=8,
                num_workers=2,
                executor=executor,
            )
        (near,) = [s for s in trace.spans if s.name == "compress.near"]
        assert near.attributes["slices_dispatched"] == 2
        assert self._alive() == before

    @pytest.mark.parametrize(
        "executor", ["thread", pytest.param("process", marks=pytest.mark.multiprocess)]
    )
    def test_after_a_build_whose_oracle_raises(self, basis, executor, monkeypatch):
        basis_set, layout = basis
        entries = GalerkinEntries(basis_set, layout.permittivity)

        def broken(job):
            raise RuntimeError("kernel failed")

        # The pool's workers run the slices; process workers inherit the
        # patched core at the fork.
        monkeypatch.setattr(entries.assembler.core, "evaluate_slice", broken)
        before = self._alive()
        with pytest.raises(RuntimeError, match="kernel failed"):
            build_hmatrix(entries, leaf_size=8, num_workers=2, executor=executor)
        assert self._alive() == before
        assert entries.assembler.core.slices is None


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
