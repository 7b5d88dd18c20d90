"""The three extraction workloads: an untraced timing loop and traced pipelines.

The untraced loop calls the public ``ExtractionService.extract`` and times
each extraction from layout to validated capacitance matrix.  The traced
run rebuilds each backend's pipeline from the public layer functions, in
the backend's order, with a span around every call, and asserts that the
composed pipeline returns exactly the backend's matrix.
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass, field

import numpy as np

from common import (
    FRW_Z,
    Span,
    Tracer,
    check_capacitance,
    median,
    now,
    nproc,
    peak_rss_mb,
    relative_error,
)
from workloads import (
    OFFDIAG_TOLERANCE,
    TOLERANCE,
    ExtractionWorkload,
    build_layout,
    load_reference,
)

#: Set-up repetitions of an untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed extractions per run, whatever ``--seconds`` says.
MIN_EXTRACTIONS = 3
#: Largest share of a traced pipeline's time its layer spans may leave
#: unaccounted.
SELF_TIME_GAP = 0.05
#: 1-worker assembly repetitions behind ``assembly.speedup``.
SERIAL_ASSEMBLY_REPEATS = 2


@dataclass
class Outcome:
    """One extraction as the benchmark judged it."""

    seconds: float = 0.0
    ok: bool = False
    error: str | None = None
    rel_err: float = 0.0
    checks: dict = field(default_factory=dict)
    capacitance: np.ndarray | None = None


def _defaults(function) -> dict:
    """Keyword defaults of a backend's ``extract``: the traced pipeline's options."""
    return {
        name: parameter.default
        for name, parameter in inspect.signature(function).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }


class ExtractionRun:
    """State of one run of an extraction workload in this process."""

    def __init__(self, workload: ExtractionWorkload, size: str, seed: int):
        from repro.engine import ExtractionService

        self.workload = workload
        self.size = size
        self.seed = seed
        self.workers = nproc()
        self.params = workload.layout_params(size)
        self.service = ExtractionService(executor="serial", cache_capacity=0)
        self.reference: np.ndarray | None = None
        self.reference_names: list[str] = []
        #: Times one 1-worker assembly of the last traced dense pipeline.
        self.serial_assembly = None
        self._index = 0

    def next_options(self) -> dict:
        """Backend options of the next extraction (a fresh FRW seed each time)."""
        options = self.workload.backend_options(
            self.size, self.workers, seed=self.seed * 1000 + self._index
        )
        self._index += 1
        return options

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Layout, reference load and one untimed warm-up extraction."""
        layout = build_layout(self.params)
        self.reference, self.reference_names = load_reference(self.workload, self.size, layout)
        outcome = self.extract(self.next_options())
        if not outcome.ok:
            raise RuntimeError(f"warm-up extraction failed: {outcome.error}")

    def judge(self, capacitance, stderr, names) -> Outcome:
        """Validity checks plus the error against the reference."""
        from repro.engine.compare import align_capacitance

        assert self.reference is not None
        checks = check_capacitance(capacitance, OFFDIAG_TOLERANCE, stderr)
        aligned = align_capacitance(capacitance, names, self.reference_names)
        rel_err = relative_error(aligned, self.reference)
        tolerance = TOLERANCE
        if stderr is not None:
            aligned_se = align_capacitance(stderr, names, self.reference_names)
            tolerance += FRW_Z * float(np.linalg.norm(aligned_se) / np.linalg.norm(self.reference))
        failures = [name for name, passed in checks.items() if passed is False]
        if rel_err > tolerance:
            failures.append(f"error {rel_err:.4f} > {tolerance:.4f}")
        return Outcome(
            ok=not failures,
            error="; ".join(failures) or None,
            rel_err=rel_err,
            checks=checks,
            capacitance=np.asarray(capacitance),
        )

    def extract(self, options: dict) -> Outcome:
        """One public-API extraction, from layout to validated matrix."""
        start = now()
        try:
            layout = build_layout(self.params)
            result = self.service.extract(layout, backend=self.workload.backend, **options)
            outcome = self.judge(result.capacitance, result.capacitance_stderr, result.conductor_names)
        except Exception as exc:  # a failed extraction is counted, not fatal
            outcome = Outcome(error=f"{type(exc).__name__}: {exc}")
        outcome.seconds = now() - start
        return outcome

    # ------------------------------------------------------------------
    # traced pipelines
    # ------------------------------------------------------------------
    def traced(self, tracer: Tracer, options: dict) -> tuple[Span, Outcome, dict]:
        """One traced pipeline run: root span, judged outcome, layer counters."""
        pipeline = {
            "instantiable": self._dense_pipeline,
            "galerkin-aca": self._hmatrix_pipeline,
            "frw": self._frw_pipeline,
        }[self.workload.backend]
        with tracer.span("pipeline") as root:
            with tracer.span("geometry"):
                layout = build_layout(self.params)
            capacitance, stderr, counters = pipeline(tracer, layout, options)
            with tracer.span("check"):
                outcome = self.judge(capacitance, stderr, list(layout.names))
        outcome.seconds = root.seconds
        return root, outcome, counters

    def _dense_pipeline(self, tracer: Tracer, layout, options: dict):
        from repro.assembly.shared_memory import SharedMemoryAssembler
        from repro.basis.instantiate import build_basis_set
        from repro.core.config import ExtractionConfig, ParallelMode
        from repro.solver.capacitance import capacitance_from_solution
        from repro.solver.dense import solve_dense

        config = ExtractionConfig(**options)
        with tracer.span("basis"):
            basis_set = build_basis_set(layout, config.instantiation)
        assembler_options = dict(
            policy=config.policy(),
            order_near=config.order_near,
            order_far=config.order_far,
            batch_size=config.batch_size,
        )
        use_processes = config.use_processes and config.parallel_mode is ParallelMode.SHARED_MEMORY
        pooled = use_processes and config.num_nodes > 1
        with tracer.span("assembly") as assembly:
            setup = SharedMemoryAssembler(
                basis_set,
                layout.permittivity,
                num_nodes=config.num_nodes,
                use_processes=use_processes,
                **assembler_options,
            ).assemble()
        with tracer.span("solver"):
            phi = basis_set.incidence_matrix(layout.num_conductors)
            rho = solve_dense(setup.matrix, phi)
            capacitance = capacitance_from_solution(phi, rho)

        counts: dict[str, int] = {}
        for node in setup.node_results:
            for category, count in node.category_counts.items():
                counts[category] = counts.get(category, 0) + int(count)
        busy = setup.total_node_seconds
        n = basis_set.num_basis_functions
        counters = {
            "basis.functions": basis_set.num_basis_functions,
            "basis.templates": basis_set.num_templates,
            **{f"greens.pairs.{category}": count for category, count in counts.items()},
            "greens.pairs": sum(counts.values()),
            "greens.busy_s": busy,
            "assembly.wall_s": assembly.seconds,
            "assembly.worker_busy_s": busy,
            "assembly.parallel_eff": busy / (setup.num_nodes * assembly.seconds),
            "assembly.load_imbalance": setup.load_imbalance,
            # Computed, not measured: in process mode every worker pickles a
            # full N x N float64 partial back to the parent (the program
            # itself reports communication_bytes of 0 for this flow).
            "assembly.comm_bytes": 8 * n * n * setup.num_nodes if pooled else 0,
            "assembly.comm_bytes_reported": sum(setup.communication_bytes),
        }

        def serial_assembly() -> float:
            start = now()
            SharedMemoryAssembler(basis_set, layout.permittivity, num_nodes=1, **assembler_options).assemble()
            return now() - start

        self.serial_assembly = serial_assembly
        return capacitance, None, counters

    def _hmatrix_pipeline(self, tracer: Tracer, layout, options: dict):
        from repro.basis.instantiate import InstantiationConfig, build_basis_set
        from repro.compress.backend import GalerkinACABackend
        from repro.compress.entries import GalerkinEntries
        from repro.compress.hmatrix import build_hmatrix
        from repro.greens.policy import ApproximationPolicy
        from repro.solver.capacitance import capacitance_from_solution
        from repro.solver.iterative import gmres_solve

        o = {**_defaults(GalerkinACABackend.extract), **options}
        with tracer.span("basis"):
            basis_set = build_basis_set(
                layout, InstantiationConfig(face_refinement=o["face_refinement"])
            )
        with tracer.span("compress") as compress:
            entries = GalerkinEntries(
                basis_set,
                layout.permittivity,
                policy=ApproximationPolicy(tolerance=o["tolerance"]),
                order_near=o["order_near"],
                order_far=o["order_far"],
                near_field=o["near_field"],
                use_numba=o["use_numba"],
            )
            kernel = _KernelCounter(entries.assembler)
            hmatrix = build_hmatrix(
                entries,
                epsilon=o["epsilon"],
                max_rank=o["max_rank"],
                leaf_size=o["leaf_size"],
                eta=o["eta"],
                num_workers=o["num_workers"],
                executor=o["executor"],
            )
            phi = basis_set.incidence_matrix(layout.num_conductors)
            diagonal = hmatrix.diagonal()
        operator = _TimedOperator(hmatrix)
        with tracer.span("solver"):
            rho, stats = gmres_solve(
                operator.matvec,
                phi,
                size=basis_set.num_basis_functions,
                tolerance=o["gmres_tolerance"],
                max_iterations=o["max_iterations"],
                diagonal=diagonal,
                matmat=operator.matmat,
                block_size=o["block_size"],
            )
            capacitance = capacitance_from_solution(phi, rho)

        busy = float(sum(hmatrix.worker_seconds))
        counters = {
            "basis.functions": basis_set.num_basis_functions,
            "basis.templates": basis_set.num_templates,
            **{f"greens.pairs.{category}": count for category, count in kernel.counts.items()},
            "greens.pairs": sum(kernel.counts.values()),
            "greens.busy_s": kernel.seconds,
            "compress.build_s": compress.seconds,
            "compress.entries_sampled": entries.entries_sampled,
            "compress.stored_entries": hmatrix.stored_entries,
            "compress.ratio": hmatrix.compression_ratio,
            "compress.near_blocks": len(hmatrix.dense_blocks),
            "compress.far_blocks": len(hmatrix.lowrank_blocks),
            "compress.max_rank": hmatrix.max_block_rank,
            "compress.worker_busy_s": busy,
            "compress.parallel_eff": busy / (len(hmatrix.worker_seconds) * compress.seconds),
            "compress.useful_frac": hmatrix.stored_entries / max(entries.entries_sampled, 1),
            "solver.operator_s": operator.seconds,
            "solver.traversals": stats.operator_traversals,
            "solver.iterations_max": stats.max_iterations,
        }
        return capacitance, None, counters

    def _frw_pipeline(self, tracer: Tracer, layout, options: dict):
        from repro.frw.backend import FRWBackend
        from repro.frw.estimator import estimate_capacitance
        from repro.frw.scene import build_scene

        o = {**_defaults(FRWBackend.extract), **options}
        with tracer.span("frw.scene"):
            scene = build_scene(
                layout, delta_fraction=o["delta_fraction"], capture_fraction=o["capture_fraction"]
            )
        with tracer.span("frw.walk"):
            estimate = estimate_capacitance(
                scene,
                num_walks=o["num_walks"],
                target_rel_std=o["target_rel_std"],
                max_walks=o["max_walks"],
                seed=o["seed"],
                num_workers=o["num_workers"],
                antithetic=o["antithetic"],
                batch_size=o["batch_size"],
                max_hops=o["max_hops"],
            )
        walks = int(estimate.num_walks.sum())
        hops = int(estimate.hops.sum())
        counters = {
            "frw.walks": walks,
            "frw.hops": hops,
            "frw.hops_per_s": hops / estimate.walk_seconds if estimate.walk_seconds > 0 else 0.0,
            "frw.rel_std": estimate.rel_std,
            "frw.truncated_frac": int(estimate.truncated.sum()) / walks,
            "frw.escaped_frac": int(estimate.escaped.sum()) / walks,
        }
        return estimate.capacitance, estimate.stderr, counters


class _KernelCounter:
    """Counts and times the kernel calls an entry oracle makes.

    Wraps the assembler's public ``evaluate_pairs`` on this one instance and
    passes a per-call ``counts`` dictionary, so the values are unchanged.
    The compression workers run on threads, hence the lock.
    """

    def __init__(self, assembler) -> None:
        self.counts: dict[str, int] = {}
        self.seconds = 0.0
        self._lock = threading.Lock()
        evaluate = assembler.evaluate_pairs

        def counted(i, j, counts=None):
            local: dict[str, int] = {}
            start = now()
            values = evaluate(i, j, counts=local)
            elapsed = now() - start
            with self._lock:
                self.seconds += elapsed
                for target in (self.counts, counts):
                    if target is not None:
                        for category, count in local.items():
                            target[category] = target.get(category, 0) + count
            return values

        assembler.evaluate_pairs = counted


class _TimedOperator:
    """The H-matrix products handed to GMRES, with the time spent inside them."""

    def __init__(self, hmatrix) -> None:
        self.hmatrix = hmatrix
        self.seconds = 0.0

    def matvec(self, x):
        start = now()
        y = self.hmatrix.matvec(x)
        self.seconds += now() - start
        return y

    def matmat(self, x):
        start = now()
        y = self.hmatrix.matmat(x)
        self.seconds += now() - start
        return y


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
def run_untraced(workload: ExtractionWorkload, size: str, seed: int, seconds: float, import_s: float) -> dict:
    """End-to-end metrics of one run."""
    run = ExtractionRun(workload, size, seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = now()
        run.setup()
        setups.append(now() - start)

    outcomes: list[Outcome] = []
    window = now()
    while len(outcomes) < MIN_EXTRACTIONS or (
        now() - window + median(o.seconds for o in outcomes) <= seconds
    ):
        outcomes.append(run.extract(run.next_options()))

    good = [o for o in outcomes if o.ok]
    latencies = [o.seconds for o in good]
    pos_offdiag = [o.checks.get("pos_offdiag", 0) for o in outcomes if o.checks]
    return {
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(good),
        "errors": sorted({o.error for o in outcomes if o.error}),
        "metrics": {
            "setup_s": import_s + median(setups),
            "latency_p50_s": median(latencies),
            # Too few extractions for a percentile with ten samples beyond
            # it: the workload's tail percentile is its median.
            "latency_tail_s": median(latencies),
            "goodput_per_s": len(good) / sum(o.seconds for o in outcomes),
            # Exact backends repeat one error; for Monte Carlo the largest of
            # a run's draws is too noisy to gate, so its median is reported
            # (each draw is still checked against the tolerance).
            "cap_rel_err": (median if workload.stochastic else max)(o.rel_err for o in outcomes),
            "peak_rss_mb": peak_rss_mb(),
        },
        "detail": {
            "setup_repeats_s": setups,
            "import_s": import_s,
            "extraction_s": [o.seconds for o in outcomes],
            "rel_err": [o.rel_err for o in outcomes],
            "pos_offdiag": pos_offdiag,
            "max_pos_offdiag_ratio": max(
                (o.checks.get("max_pos_offdiag_ratio", 0.0) for o in outcomes), default=0.0
            ),
        },
    }


def run_traced(workload: ExtractionWorkload, size: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics: untraced and traced extractions of the same seed, alternated."""
    run = ExtractionRun(workload, size, seed)
    run.setup()
    tracer = Tracer()
    untraced: list[Outcome] = []
    traced: list[tuple[Span, Outcome, dict]] = []
    mismatches = 0
    window = now()
    while len(traced) < 2 or (
        now() - window + median(o.seconds for o in untraced) + median(t[0].seconds for t in traced)
        <= seconds
    ):
        options = run.next_options()
        plain = run.extract(options)
        untraced.append(plain)
        root, outcome, counters = run.traced(tracer, options)
        traced.append((root, outcome, counters))
        if plain.capacitance is None or not np.array_equal(plain.capacitance, outcome.capacitance):
            mismatches += 1

    layer_self = [Tracer.layer_self_seconds(root) for root, _, _ in traced]
    gaps = [root.self_seconds / root.seconds for root, _, _ in traced]
    outcomes = untraced + [outcome for _, outcome, _ in traced]
    failed = sum(not o.ok for o in outcomes)

    def layer(name: str) -> float:
        return median(times.get(name, 0.0) for times in layer_self)

    def counter(name: str) -> float:
        return median(c.get(name, 0.0) for _, _, c in traced)

    metrics = {name: counter(name) for name in traced[-1][2]}
    metrics.pop("greens.busy_s", None)
    metrics.pop("assembly.comm_bytes_reported", None)
    busy = counter("greens.busy_s")
    metrics.update(
        {
            "basis.instantiate_s": layer("basis"),
            "greens.pairs_per_s": counter("greens.pairs") / busy if busy > 0 else 0.0,
            "solver.solve_s": layer("solver"),
            "solver.pos_offdiag": median(o.checks.get("pos_offdiag", 0) for _, o, _ in traced),
            "frw.scene_s": layer("frw.scene"),
            "frw.walk_s": layer("frw.walk"),
            "trace.overhead_s": median(t[0].seconds for t in traced) - median(o.seconds for o in untraced),
            "trace.self_time_gap": max(gaps),
        }
    )
    if workload.backend == "instantiable":
        serial = [run.serial_assembly() for _ in range(SERIAL_ASSEMBLY_REPEATS)]
        metrics["assembly.speedup"] = median(serial) / metrics["assembly.wall_s"]
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "errors": sorted({o.error for o in outcomes if o.error}),
        "fidelity_mismatches": mismatches,
        "self_time_ok": max(gaps) <= SELF_TIME_GAP,
        "metrics": metrics,
        "detail": {
            "layer_self_s": {name: layer(name) for name in sorted(set().union(*layer_self))},
            "traced_s": [t[0].seconds for t in traced],
            "untraced_s": [o.seconds for o in untraced],
            "assembly.comm_bytes_reported": counter("assembly.comm_bytes_reported"),
        },
    }
