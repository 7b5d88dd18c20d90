"""Tests of the worker-pool seam (:mod:`repro.parallel.executor`).

The killed-worker cases make every fan-out of the package lose a worker
process and check that the call raises ``BrokenProcessPool`` instead of
hanging, and that the next call in the same interpreter succeeds.  Each case
runs in a child interpreter with a timeout, so a site that hangs on a dead
worker fails the test instead of hanging the suite.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import textwrap
import threading
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.obs.trace import current_trace_id, span, start_trace
from repro.parallel.executor import MODES, WorkerPool, check_mode, map_jobs

SRC = Path(__file__).resolve().parents[2] / "src"

multiprocess = [
    pytest.mark.multiprocess,
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the process mode uses the fork start method",
    ),
]


def square(x: int) -> int:
    return x * x


def fail_on_two(x: int) -> int:
    if x == 2:
        raise RuntimeError("job two failed")
    return x


def die(_job) -> None:
    os._exit(1)


class TestModes:
    def test_vocabulary(self):
        assert MODES == ("serial", "thread", "process")
        for mode in MODES:
            assert check_mode(mode) == mode

    @pytest.mark.parametrize("mode", ["gpu", "fibers", "Serial"])
    def test_unknown_mode_rejected(self, mode):
        message = re.escape(f"executor must be one of {MODES}, got {mode!r}")
        with pytest.raises(ValueError, match=message):
            map_jobs(square, [1], mode=mode, workers=1)
        with pytest.raises(ValueError, match=message):
            WorkerPool(mode, 1)
        with pytest.raises(ValueError, match=message):
            map_jobs(square, [], mode=mode, workers=1)


class TestInProcessModes:
    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_results_in_job_order(self, mode):
        assert map_jobs(square, range(7), mode=mode, workers=3) == [x * x for x in range(7)]

    @pytest.mark.parametrize("mode", MODES)
    def test_no_jobs(self, mode):
        assert map_jobs(square, [], mode=mode, workers=4) == []

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_job_error_is_raised(self, mode):
        with pytest.raises(RuntimeError, match="job two failed"):
            map_jobs(fail_on_two, [1, 2, 3], mode=mode, workers=2)

    def test_thread_jobs_join_the_caller_trace(self):
        def traced(index: int) -> str | None:
            with span("job", index=index):
                return current_trace_id()

        with start_trace("root") as trace:
            seen = map_jobs(traced, range(3), mode="thread", workers=3)
        assert seen == [trace.trace_id] * 3
        root = next(s for s in trace.spans if s.name == "root")
        jobs = [s for s in trace.spans if s.name == "job"]
        assert sorted(s.attributes["index"] for s in jobs) == [0, 1, 2]
        assert all(s.parent_id == root.span_id for s in jobs)

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_one_pool_serves_several_calls(self, mode):
        with WorkerPool(mode, 2) as pool:
            assert pool.mode == mode
            assert pool.map(square, [1, 2]) == [1, 4]
            assert pool.map(square, [3]) == [9]


def test_no_other_compute_pool_in_src():
    # The seam owns every compute pool; the server's shard threads are
    # request concurrency, not a compute fan-out.
    pattern = re.compile(
        r"multiprocessing\.(get_context|Pool)|\bPool\(|ProcessPoolExecutor|ThreadPoolExecutor"
    )
    allowed = {"parallel/executor.py", "serve/shards.py"}
    offenders = [
        path.relative_to(SRC / "repro").as_posix()
        for path in sorted((SRC / "repro").rglob("*.py"))
        if pattern.search(path.read_text())
    ]
    assert set(offenders) <= allowed, offenders
    assert "parallel/executor.py" in offenders


class TestProcessMode:
    pytestmark = multiprocess

    def test_results_in_job_order(self):
        assert map_jobs(square, range(7), mode="process", workers=2) == [x * x for x in range(7)]

    def test_job_error_is_raised(self):
        with pytest.raises(RuntimeError, match="job two failed"):
            map_jobs(fail_on_two, [1, 2, 3], mode="process", workers=2)

    def test_one_pool_serves_several_calls(self):
        with WorkerPool("process", 2) as pool:
            assert pool.map(square, [1, 2, 3]) == [1, 4, 9]
            assert pool.map(square, [4]) == [16]

    def test_killed_worker_raises(self):
        with pytest.raises(BrokenProcessPool):
            map_jobs(die, [1, 2], mode="process", workers=2)
        assert map_jobs(square, [1, 2], mode="process", workers=2) == [1, 4]

    def test_closure_over_an_unpicklable_object(self):
        # The workers inherit fn at the fork; it is never pickled.
        lock = threading.Lock()

        def locked_square(x: int) -> int:
            with lock:
                return x * x

        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            pickle.dumps(locked_square)
        assert map_jobs(locked_square, range(5), mode="process", workers=2) == [0, 1, 4, 9, 16]

    def test_concurrent_calls_keep_their_own_closures(self):
        results: dict[str, list] = {}

        def call(tag: str) -> None:
            seen = []
            for _ in range(3):
                seen.append(map_jobs(lambda x: (tag, x), range(4), mode="process", workers=2))
            results[tag] = seen

        threads = [threading.Thread(target=call, args=(tag,)) for tag in "ab"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for tag in "ab":
            assert results[tag] == [[(tag, x) for x in range(4)]] * 3

    def test_worker_pool_still_pickles_fn(self):
        with WorkerPool("process", 1) as pool:
            with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
                pool.map(lambda x: x, [1])


# ----------------------------------------------------------------------
# killed workers at every site, each in a child interpreter
# ----------------------------------------------------------------------
_PRELUDE = """
import os
from concurrent.futures.process import BrokenProcessPool

from repro.geometry import generators


def die(*_args):
    os._exit(1)


def check(owner, name, call):
    # Swap the function the site's workers run (a module's worker function,
    # or the method a forked worker's inherited closure calls) for one that
    # kills its process.
    worker = getattr(owner, name)
    setattr(owner, name, die)
    try:
        call()
    except BrokenProcessPool:
        pass
    else:
        raise AssertionError("a killed worker did not raise BrokenProcessPool")
    finally:
        setattr(owner, name, worker)
    call()
"""

_CASES = {
    "shared_memory": """
        from repro.assembly import shared_memory
        from repro.basis import build_basis_set

        layout = generators.crossing_wires()
        assembler = shared_memory.SharedMemoryAssembler(
            build_basis_set(layout), layout.permittivity, num_nodes=2, use_processes=True
        )
        check(assembler.assembler, "assemble_chunk", assembler.assemble)
    """,
    "distributed": """
        from repro.assembly import distributed
        from repro.basis import build_basis_set

        layout = generators.crossing_wires()
        assembler = distributed.DistributedAssembler(
            build_basis_set(layout), layout.permittivity, num_nodes=2, use_processes=True
        )
        check(distributed, "_column_block", assembler.assemble)
    """,
    "hmatrix": """
        from repro.basis import build_basis_set
        from repro.compress import hmatrix
        from repro.compress.entries import GalerkinEntries

        layout = generators.bus_crossing(2, 2)
        entries = GalerkinEntries(build_basis_set(layout), layout.permittivity)
        check(
            hmatrix,
            "_assemble_partition",
            lambda: hmatrix.build_hmatrix(entries, leaf_size=8, num_workers=2, executor="process"),
        )
    """,
    "frw": """
        from repro.frw import estimator
        from repro.frw.scene import build_scene

        scene = build_scene(generators.crossing_wires())
        check(
            estimator,
            "_group_worker",
            lambda: estimator.estimate_capacitance(
                scene, num_walks=256, batch_size=64, num_workers=2
            ),
        )
    """,
    "service": """
        from repro.engine import ExtractionRequest, ExtractionService, register_backend


        class Dying:
            name = "kills-its-worker"
            description = "exits the worker process mid-extraction"

            def extract(self, layout, **options):
                os._exit(1)


        register_backend(Dying())
        layout = generators.crossing_wires()
        service = ExtractionService(executor="process", max_workers=2)
        broken = service.extract_batch(
            [
                ExtractionRequest(layout, backend="kills-its-worker"),
                ExtractionRequest(layout, backend="pwc-dense", options={"cells_per_edge": 2}),
            ]
        )
        assert [s.status for s in broken.statuses] == ["failed", "failed"], broken.statuses
        assert all("BrokenProcessPool" in s.error for s in broken.statuses), broken.statuses
        after = service.extract_batch(
            [
                ExtractionRequest(layout, backend="pwc-dense", options={"cells_per_edge": 2}),
                ExtractionRequest(layout, backend="fastcap", options={"cells_per_edge": 2}),
            ]
        )
        assert [s.status for s in after.statuses] == ["completed", "completed"], after.statuses
    """,
}


@pytest.mark.parametrize("case", sorted(_CASES))
class TestKilledWorker:
    pytestmark = multiprocess

    def test_raises_then_recovers(self, case):
        script = _PRELUDE + textwrap.dedent(_CASES[case]) + '\nprint("recovered")\n'
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        # A session of its own, so a hung child and its workers are killed together.
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail(f"{case}: the call hung on a killed worker (60 s timeout)")
        assert child.returncode == 0, stderr
        assert stdout.strip().endswith("recovered"), stdout
