"""Unit tests of the span tracer: nesting, propagation, error capture."""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.trace import (
    attach,
    carrier,
    current_trace,
    current_trace_id,
    propagate,
    record_span,
    span,
    start_trace,
    traced,
)


def names(tree):
    """Flatten a span tree to depth-first ``(name, depth)`` pairs."""
    out = []

    def walk(nodes, depth):
        for node in nodes:
            out.append((node["name"], depth))
            walk(node["children"], depth + 1)

    walk(tree, 0)
    return out


class TestSpans:
    def test_nesting_builds_the_tree(self):
        with start_trace("root") as trace:
            with span("outer"):
                with span("inner"):
                    pass
            with span("sibling"):
                pass
        assert names(trace.tree()) == [("root", 0), ("outer", 1), ("inner", 2), ("sibling", 1)]

    def test_span_outside_a_trace_is_inert(self):
        assert current_trace() is None
        with span("orphan") as entered:
            assert entered is None
        assert current_trace() is None

    def test_open_spans_are_visible_mid_trace(self):
        with start_trace("root") as trace:
            with span("open"):
                tree = trace.tree()
                assert names(tree) == [("root", 0), ("open", 1)]
                assert all(node["seconds"] >= 0.0 for node in tree)

    def test_error_marks_status_and_attribute(self):
        with pytest.raises(ValueError):
            with start_trace("root") as trace:
                with span("boom"):
                    raise ValueError("nope")
        failed = [s for s in trace.spans if s.name == "boom"]
        assert failed[0].status == "error"
        assert failed[0].attributes["error"] == "ValueError: nope"

    def test_attributes_and_phase_seconds(self):
        with start_trace("root", workload="bus") as trace:
            with span("phase.setup", blocks=3):
                pass
            with span("phase.setup"):
                pass
        assert trace.spans[0].attributes == {"workload": "bus"}
        phases = trace.phase_seconds()
        assert set(phases) == {"root", "phase.setup"}
        assert phases["phase.setup"] >= 0.0

    def test_trace_id_is_stable_and_echoed(self):
        with start_trace("root", trace_id="feedface") as trace:
            assert current_trace_id() == "feedface"
        assert trace.trace_id == "feedface"
        assert "feedface" in trace.render()

    def test_traced_decorator(self):
        @traced("worker.step")
        def step():
            return 41 + 1

        with start_trace("root") as trace:
            assert step() == 42
        assert [s.name for s in trace.spans] == ["root", "worker.step"]


class TestPropagation:
    def test_propagate_carries_the_trace_into_a_thread(self):
        def work():
            with span("threaded"):
                return current_trace_id()

        with start_trace("root") as trace:
            with ThreadPoolExecutor(max_workers=1) as pool:
                seen = pool.submit(propagate(work)).result()
        assert seen == trace.trace_id
        assert names(trace.tree()) == [("root", 0), ("threaded", 1)]

    def test_bare_thread_submission_does_not_leak_the_trace(self):
        with start_trace("root"):
            with ThreadPoolExecutor(max_workers=1) as pool:
                assert pool.submit(current_trace).result() is None

    def test_carrier_attach_across_tasks(self):
        async def main():
            with start_trace("root") as trace:
                handle = carrier()

                async def worker():
                    # A task created from a *fresh* context (as the server's
                    # long-lived shard workers are) adopts the trace via attach.
                    with attach(handle):
                        with span("adopted"):
                            pass

                await asyncio.get_running_loop().create_task(worker())
            return trace

        trace = asyncio.run(main())
        assert names(trace.tree()) == [("root", 0), ("adopted", 1)]

    def test_attach_none_is_a_noop(self):
        assert carrier() is None
        with attach(None):
            assert current_trace() is None

    def test_record_span_synthesizes_a_finished_child(self):
        with start_trace("root") as trace:
            record_span("fork.partition", 0.25, worker=1)
        synthesized = trace.spans[-1]
        assert synthesized.name == "fork.partition"
        assert synthesized.end is not None
        assert synthesized.seconds == pytest.approx(0.25)
        assert names(trace.tree()) == [("root", 0), ("fork.partition", 1)]

    def test_record_span_outside_a_trace_is_inert(self):
        record_span("nowhere", 1.0)  # must not raise


class TestExtractionSpans:
    """An extraction under a trace reports its engine, assembly and solver layers."""

    #: The layer spans each stock backend opens beneath ``engine.extract``.
    LAYER_SPANS = {
        "instantiable": ("assembly.assemble", "solver.direct"),
        "pwc-dense": ("solver.direct",),
        "fastcap": ("solver.gmres",),
        "galerkin-shared": ("assembly.assemble", "solver.gmres"),
        "galerkin-distributed": ("assembly.assemble", "solver.gmres"),
        "galerkin-aca": ("assembly.build_hmatrix", "solver.gmres"),
        "frw": ("frw.scene", "frw.walks"),
    }

    @staticmethod
    def traced_extraction(backend):
        """Extract the quick bus under a trace with the family's options."""
        from repro.engine.service import ExtractionService
        from repro.workloads import get_workload

        family = get_workload("bus_crossing")
        options = dict(family.backend_options.get(backend, {}))
        service = ExtractionService(executor="serial", cache_capacity=0)
        with start_trace("extract", backend=backend) as trace:
            result = service.extract(family.layout(), backend=backend, **options)
        return trace, result

    @classmethod
    def extract_under_trace(cls, backend):
        trace, _ = cls.traced_extraction(backend)
        return [name for name, _ in names(trace.tree())]

    def test_every_stock_backend_is_covered(self):
        from repro.engine import available_backends

        assert set(self.LAYER_SPANS) == set(available_backends())

    @pytest.mark.parametrize("backend", sorted(LAYER_SPANS))
    def test_backend_emits_engine_phase_and_layer_spans(self, backend):
        spans = self.extract_under_trace(backend)
        assert spans[0] == "extract"
        for expected in ("engine.extract", "phase.setup", "phase.solve",
                         *self.LAYER_SPANS[backend]):
            assert expected in spans

    @pytest.mark.parametrize("backend", sorted(LAYER_SPANS))
    def test_phase_spans_enclose_the_result_timings(self, backend):
        # The phase span opens before and closes after the timer lap on the
        # same clock, so it can only be longer than the reported field.
        trace, result = self.traced_extraction(backend)
        phases = trace.phase_seconds()
        assert phases["phase.setup"] >= result.setup_seconds > 0.0
        assert phases["phase.solve"] >= result.solve_seconds > 0.0
        assert trace.trace_id in trace.render()

    def test_dense_extraction_emits_engine_assembly_and_solver_spans(self):
        spans = self.extract_under_trace("instantiable")
        for expected in ("engine.extract", "phase.setup", "assembly.assemble",
                         "phase.solve", "solver.direct"):
            assert expected in spans

    def test_compressed_extraction_emits_hmatrix_build_and_gmres(self):
        spans = self.extract_under_trace("galerkin-aca")
        for expected in ("engine.extract", "assembly.build_hmatrix", "solver.gmres"):
            assert expected in spans
