"""Tests of the batched extraction service: fan-out, caching, failure containment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ExtractionRequest, ExtractionService
from repro.engine import service as service_module
from repro.geometry import generators


@pytest.fixture()
def mixed_batch(crossing_layout):
    """A 4-request mixed-backend batch with one repeated request."""
    return [
        ExtractionRequest(crossing_layout, backend="instantiable", label="basis"),
        ExtractionRequest(
            crossing_layout, backend="pwc-dense", options={"cells_per_edge": 2}, label="pwc"
        ),
        ExtractionRequest(
            crossing_layout, backend="fastcap", options={"cells_per_edge": 2}, label="fastcap"
        ),
        ExtractionRequest(
            crossing_layout, backend="pwc-dense", options={"cells_per_edge": 2}, label="pwc-repeat"
        ),
    ]


class TestExtractionService:
    @pytest.mark.parametrize(
        "executor", ["serial", "thread", pytest.param("process", marks=pytest.mark.multiprocess)]
    )
    def test_mixed_backend_batch_completes(self, mixed_batch, executor):
        service = ExtractionService(executor=executor, max_workers=2)
        report = service.extract_batch(mixed_batch)
        assert report.succeeded
        assert report.num_requests == 4
        assert all(status.ok for status in report.statuses)
        assert [s.label for s in report.statuses] == ["basis", "pwc", "fastcap", "pwc-repeat"]
        assert report.throughput > 0.0
        # The duplicated request is deduplicated within the batch...
        assert report.statuses[3].status == "cached"
        assert report.cache_hits == 1
        # ...and serves the identical result object.
        np.testing.assert_array_equal(
            report.statuses[3].result.capacitance, report.statuses[1].result.capacitance
        )

    @pytest.mark.multiprocess
    def test_process_workers_run_nested_process_assembly(self, crossing_layout):
        # Each service worker process forks the assembly's own worker pool.
        requests = [
            ExtractionRequest(
                crossing_layout, backend=backend, options={"executor": "process", "workers": 2}
            )
            for backend in ("galerkin-shared", "galerkin-distributed")
        ]
        nested = ExtractionService(executor="process", max_workers=2).extract_batch(requests)
        serial = ExtractionService(executor="serial").extract_batch(
            [ExtractionRequest(r.layout, backend=r.backend, options={"workers": 2}) for r in requests]
        )
        assert [s.status for s in nested.statuses] == ["completed", "completed"]
        for got, want in zip(nested.results, serial.results):
            assert got.metadata["executor"] == "process"
            np.testing.assert_allclose(got.capacitance, want.capacitance, rtol=1e-12)

    def test_repeat_batch_is_all_cache_hits(self, mixed_batch, monkeypatch):
        # Count backend executions instead of comparing wall clocks: a hit
        # must never reach a backend.
        calls = []
        execute = service_module._execute_request

        def counting_execute(backend_name, layout, options):
            calls.append(backend_name)
            return execute(backend_name, layout, options)

        monkeypatch.setattr(service_module, "_execute_request", counting_execute)
        service = ExtractionService(executor="serial")
        first = service.extract_batch(mixed_batch)
        assert first.succeeded
        assert sorted(calls) == ["fastcap", "instantiable", "pwc-dense"]
        second = service.extract_batch(mixed_batch)
        assert second.succeeded
        assert [s.status for s in second.statuses] == ["cached"] * 4
        assert second.cache_hits == 4
        assert len(calls) == 3  # the second batch invoked no backend
        info = service.cache_info()
        assert info["size"] == 3  # three distinct fingerprints
        assert info["hits"] >= 3

    def test_cache_stats_surface_through_the_report(self, mixed_batch):
        """``as_dict`` must carry hit rate + cache_info (the CLI/JSON surface)."""
        service = ExtractionService(executor="serial")
        first = service.extract_batch(mixed_batch)
        assert first.cache_hit_rate == pytest.approx(0.25)  # the in-batch repeat
        second = service.extract_batch(mixed_batch)
        assert second.cache_hit_rate == 1.0
        payload = second.as_dict()
        assert payload["cache_hit_rate"] == 1.0
        assert payload["cache_info"]["size"] == 3
        # 3 distinct fingerprints hit the store; the in-batch repeat is
        # deduplicated before it ever reaches the cache, so it doesn't count.
        assert payload["cache_info"]["hits"] >= 3
        # The payload stays JSON-serialisable end to end.
        import json

        json.dumps(payload)

    def test_results_in_request_order(self, crossing_layout):
        layouts = [generators.crossing_wires(separation=s * 1e-6) for s in (0.5, 1.0, 2.0)]
        requests = [
            ExtractionRequest(layout, backend="pwc-dense", options={"cells_per_edge": 2})
            for layout in layouts
        ]
        report = ExtractionService(executor="thread", max_workers=3).extract_batch(requests)
        couplings = [r.coupling_capacitance("source", "target") for r in report.results]
        # Coupling decreases monotonically with separation; order is preserved.
        assert couplings[0] > couplings[1] > couplings[2]

    def test_failure_contained_per_request(self, crossing_layout):
        requests = [
            ExtractionRequest(crossing_layout, backend="pwc-dense", options={"cells_per_edge": 2}),
            ExtractionRequest(crossing_layout, backend="pwc-dense", options={"bogus_option": 1}),
            ExtractionRequest(crossing_layout, backend="no-such-backend"),
        ]
        report = ExtractionService(executor="serial").extract_batch(requests)
        assert not report.succeeded
        assert report.num_failed == 2
        good, bad_option, bad_backend = report.statuses
        assert good.status == "completed" and good.ok
        assert bad_option.status == "failed" and "bogus_option" in bad_option.error
        assert bad_backend.status == "failed" and "no-such-backend" in bad_backend.error
        summary = report.as_dict()
        assert summary["num_failed"] == 2
        assert len(summary["requests"]) == 3

    def test_single_request_convenience(self, crossing_layout):
        service = ExtractionService(executor="serial")
        result = service.extract(crossing_layout, backend="pwc-dense", cells_per_edge=2)
        assert result.backend == "pwc-dense"
        with pytest.raises(RuntimeError, match="no-such-backend"):
            service.extract(crossing_layout, backend="no-such-backend")

    def test_cache_capacity_bound(self, crossing_layout):
        service = ExtractionService(executor="serial", cache_capacity=1)
        layouts = [generators.crossing_wires(separation=s * 1e-6) for s in (0.5, 1.0)]
        for layout in layouts:
            service.extract(layout, backend="pwc-dense", cells_per_edge=2)
        assert service.cache_info()["size"] == 1
        # Capacity zero disables caching entirely.
        uncached = ExtractionService(executor="serial", cache_capacity=0)
        uncached.extract(crossing_layout, backend="pwc-dense", cells_per_edge=2)
        report = uncached.extract_batch(
            [ExtractionRequest(crossing_layout, backend="pwc-dense", options={"cells_per_edge": 2})]
        )
        assert report.statuses[0].status == "completed"

    def test_cache_hit_is_isolated_from_mutation(self, crossing_layout):
        """Mutating a served result must not corrupt later cache hits."""
        service = ExtractionService(executor="serial")
        first = service.extract(crossing_layout, backend="pwc-dense", cells_per_edge=2)
        pristine = first.capacitance.copy()
        # Mutate the freshly computed result (aliases the cache if the
        # service stores the object it returned)...
        first.capacitance[:] = -1.0
        first.metadata["poison"] = True
        # ...and mutate a cache hit as well.
        hit = service.extract(crossing_layout, backend="pwc-dense", cells_per_edge=2)
        assert hit is not first
        hit.capacitance[:] = 99.0
        # A re-fetch still serves the pristine values.
        again = service.extract(crossing_layout, backend="pwc-dense", cells_per_edge=2)
        assert again is not hit
        np.testing.assert_array_equal(again.capacitance, pristine)
        assert "poison" not in again.metadata
        assert service.cache_info()["hits"] >= 2

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ExtractionService(executor="fibers")
        with pytest.raises(ValueError):
            ExtractionService(max_workers=0)
        with pytest.raises(ValueError):
            ExtractionService(cache_capacity=-1)

    def test_backend_replacement_invalidates_cache(self, crossing_layout):
        from repro.engine import get_backend, register_backend, unregister_backend

        class Doubling:
            name = "replace-me"
            description = "scales the pwc-dense result"

            def __init__(self, scale):
                self.scale = scale

            def extract(self, layout, **options):
                result = get_backend("pwc-dense").extract(layout, **options)
                result.capacitance = result.capacitance * self.scale
                return result

        service = ExtractionService(executor="serial")
        try:
            register_backend(Doubling(1.0))
            first = service.extract(crossing_layout, backend="replace-me", cells_per_edge=2)
            register_backend(Doubling(2.0), replace=True)
            second = service.extract(crossing_layout, backend="replace-me", cells_per_edge=2)
            # The replacement backend runs instead of serving the stale result.
            np.testing.assert_allclose(second.capacitance, 2.0 * first.capacitance)
        finally:
            unregister_backend("replace-me")

    def test_clear_cache(self, crossing_layout):
        service = ExtractionService(executor="serial")
        service.extract(crossing_layout, backend="pwc-dense", cells_per_edge=2)
        assert service.cache_info()["size"] == 1
        service.clear_cache()
        assert service.cache_info() == {"hits": 0, "misses": 0, "size": 0, "capacity": 256}
