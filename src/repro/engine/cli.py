"""Command-line front end of the unified extraction engine.

Run as ``python -m repro``:

* ``python -m repro backends`` -- list the registered backends.
* ``python -m repro extract --generator crossing_wires --backend pwc-dense
  --option cells_per_edge=2`` -- extract a generated structure.
* ``python -m repro bench --output BENCH_engine.json`` -- run the engine
  benchmark and write the machine-readable artifact.
* ``python -m repro scale --quick`` -- sweep worker counts x layout sizes
  over the parallel Galerkin backends and write ``BENCH_scaling.json``.
* ``python -m repro scale --backend galerkin-aca`` -- sweep bus sizes over
  the compressed backend and write ``BENCH_compress.json`` (stored entries
  vs dense ``N^2`` and the fitted storage growth exponent).
* ``python -m repro kernel`` -- benchmark the entry-wise vs batched
  panel-integral paths and write ``BENCH_kernel.json``.
* ``python -m repro solver`` -- benchmark the parallel H-matrix assembly
  and the blocked multi-RHS GMRES against their serial/per-column
  baselines and write ``BENCH_solver.json``.
* ``python -m repro frw`` -- benchmark the floating-random-walk backend
  (antithetic vs plain variance, walks-to-tolerance, parallel walk
  throughput with the bit-identical determinism check) and write
  ``BENCH_frw.json``.
* ``python -m repro workloads`` -- list the registered workload families.
* ``python -m repro accuracy --quick`` -- extract every workload family
  with every backend, gate the relative errors against the golden
  references in ``benchmarks/golden/`` and write ``BENCH_accuracy.json``
  (``--update-golden`` refreshes the references instead).
* ``python -m repro serve`` -- run the long-lived async HTTP extraction
  service (sharded worker pools, bounded priority queue, persistent
  fingerprint-keyed result cache); Ctrl-C drains gracefully.
* ``python -m repro loadtest`` -- fire a Zipf-distributed repeated-layout
  workload at an in-process server and write ``BENCH_service.json``
  (throughput, p50/p99 latency, cache hit rate).
* ``python -m repro profile`` -- run one workload under the span tracer,
  print the span-tree wall-time breakdown and write
  ``BENCH_profile.json``.

(The paper-experiment driver remains available as
``python -m repro.core.experiments``.)
"""

from __future__ import annotations

import argparse
import ast
import json
import sys

from repro.engine.registry import available_backends, get_backend
from repro.engine.request import DEFAULT_BACKEND
from repro.geometry import generators
from repro.parallel.executor import MODES

__all__ = ["main"]


def _parse_assignment(text: str) -> tuple[str, object]:
    """Parse a ``key=value`` option, literal-evaluating the value when possible."""
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return key, value


def _build_layout(generator: str, arguments: list[tuple[str, object]]):
    names = sorted(generators.__all__)
    if generator not in names:
        raise SystemExit(
            f"unknown generator {generator!r}; available: {', '.join(names)}"
        )
    return getattr(generators, generator)(**dict(arguments))


def _command_backends(args: argparse.Namespace) -> int:
    entries = [
        {"name": name, "description": get_backend(name).description}
        for name in available_backends()
    ]
    if args.json:
        print(json.dumps(entries, indent=2))
        return 0
    from repro.analysis.report import format_table

    print(
        format_table(
            ["backend", "description"],
            [[e["name"], e["description"]] for e in entries],
            title="Registered extraction backends",
        )
    )
    return 0


def _command_extract(args: argparse.Namespace) -> int:
    from repro.engine.service import ExtractionService

    try:
        layout = _build_layout(args.generator, args.generator_arg)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error building layout: {exc}") from None
    service = ExtractionService(executor=args.executor, max_workers=args.workers)
    try:
        result = service.extract(layout, backend=args.backend, **dict(args.option))
    except RuntimeError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
        return 0
    print(f"Backend:    {result.backend}")
    print(f"Conductors: {', '.join(result.conductor_names)}")
    print(f"Unknowns:   {result.num_unknowns}")
    print(f"Setup:      {result.setup_seconds * 1e3:.1f} ms")
    print(f"Solve:      {result.solve_seconds * 1e3:.1f} ms")
    print(f"Memory:     {result.memory_bytes / 1e6:.2f} MB")
    print()
    print("Capacitance matrix (fF):")
    print(result.capacitance_femtofarad().round(4))
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.engine.bench import run_engine_bench, write_bench_json

    report = run_engine_bench(
        quick=not args.full, executor=args.executor, max_workers=args.workers
    )
    print(report.text)
    if args.output is not None:
        target = write_bench_json(report, args.output)
        print(f"\nwrote {target}")
    return 0


def _parse_int_list(text: str) -> list[int]:
    """Parse a comma-separated list of integers (e.g. ``1,2,4``)."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _command_scale(args: argparse.Namespace) -> int:
    from repro.engine.scaling import (
        BENCH_COMPRESS_FILENAME,
        BENCH_SCALING_FILENAME,
        run_compress_bench,
        run_scaling_bench,
        write_compress_json,
        write_scaling_json,
    )

    try:
        if args.backend == "galerkin-aca":
            # The compression sweep varies the layout size, not the worker
            # count, and has no executor modes: reject explicit flags
            # instead of silently reinterpreting them.
            if args.executor is not None:
                raise SystemExit(
                    "error: --executor does not apply to --backend galerkin-aca"
                )
            workers = args.workers if args.workers is not None else [1]
            if len(workers) != 1:
                raise SystemExit(
                    "error: --backend galerkin-aca takes a single worker count "
                    f"(block-assembly partitions), got --workers {','.join(map(str, workers))}"
                )
            report = run_compress_bench(
                quick=not args.full,
                sizes=args.sizes,
                epsilon=args.epsilon if args.epsilon is not None else 1e-4,
                num_workers=workers[0],
            )
            writer, default_output = write_compress_json, BENCH_COMPRESS_FILENAME
        else:
            if args.epsilon is not None:
                raise SystemExit(
                    "error: --epsilon only applies to --backend galerkin-aca"
                )
            report = run_scaling_bench(
                quick=not args.full,
                worker_counts=args.workers if args.workers is not None else [1, 2, 4],
                sizes=args.sizes,
                executor=args.executor if args.executor is not None else "simulated",
            )
            writer, default_output = write_scaling_json, BENCH_SCALING_FILENAME
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(report.text)
    target = writer(report, args.output if args.output is not None else default_output)
    print(f"\nwrote {target}")
    return 0


def _command_kernel(args: argparse.Namespace) -> int:
    from repro.engine.kernel_bench import (
        BENCH_KERNEL_FILENAME,
        agreement_failures,
        run_kernel_bench,
        write_kernel_json,
    )

    try:
        report = run_kernel_bench(
            quick=not args.full,
            sizes=args.sizes,
            sample_pairs=args.sample,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(report.text)
    target = write_kernel_json(
        report, args.output if args.output is not None else BENCH_KERNEL_FILENAME
    )
    print(f"\nwrote {target}")
    failures = agreement_failures(report)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _command_solver(args: argparse.Namespace) -> int:
    from repro.engine.solver_bench import (
        BENCH_SOLVER_FILENAME,
        run_solver_bench,
        write_solver_json,
    )

    try:
        report = run_solver_bench(
            quick=not args.full,
            sizes=args.sizes,
            worker_counts=args.workers if args.workers is not None else (1, 2, 4),
            executor=args.executor,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(report.text)
    target = write_solver_json(
        report, args.output if args.output is not None else BENCH_SOLVER_FILENAME
    )
    print(f"\nwrote {target}")
    return 0


def _command_frw(args: argparse.Namespace) -> int:
    from repro.engine.frw_bench import (
        BENCH_FRW_FILENAME,
        run_frw_bench,
        write_frw_json,
    )

    try:
        report = run_frw_bench(
            quick=not args.full,
            workload=args.workload,
            seed=args.seed,
            worker_counts=args.workers if args.workers is not None else (1, 2, 4),
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    print(report.text)
    target = write_frw_json(
        report, args.output if args.output is not None else BENCH_FRW_FILENAME
    )
    print(f"\nwrote {target}")
    return 0


def _command_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import all_workloads

    entries = [
        {
            "name": workload.name,
            "description": workload.description,
            "new_geometry": workload.is_new_geometry,
            "size_params": list(workload.size_params),
            "default_tolerance": workload.default_tolerance,
        }
        for workload in all_workloads()
    ]
    if args.json:
        print(json.dumps(entries, indent=2))
        return 0
    from repro.analysis.report import format_table

    print(
        format_table(
            ["workload", "new", "size knob", "tolerance", "description"],
            [
                [
                    e["name"],
                    "yes" if e["new_geometry"] else "",
                    ",".join(e["size_params"]) or "-",
                    f"{e['default_tolerance']:.3f}",
                    e["description"],
                ]
                for e in entries
            ],
            title="Registered workload families",
        )
    )
    return 0


def _command_accuracy(args: argparse.Namespace) -> int:
    from repro.workloads import (
        BENCH_ACCURACY_FILENAME,
        run_accuracy_suite,
        update_goldens,
        write_accuracy_json,
    )

    workloads = args.workload or None
    try:
        if args.update_golden:
            # The refresh always runs the reference backend serially and
            # writes to the golden store: reject the comparison-only flags
            # instead of silently ignoring them.
            rejected = [
                flag
                for flag, value in (
                    ("--backend", args.backend),
                    ("--executor", args.executor != "serial"),
                    ("--workers", args.workers),
                    ("--output", args.output),
                    ("--json", args.json),
                )
                if value
            ]
            if rejected:
                raise SystemExit(
                    f"error: {', '.join(rejected)} does not apply to --update-golden"
                )
            modes = ("quick",) if args.quick else (("full",) if args.full else ("quick", "full"))
            paths = update_goldens(
                workloads=workloads, golden_dir=args.golden_dir, modes=modes
            )
            for path in paths:
                print(f"wrote {path}")
            return 0
        report = run_accuracy_suite(
            quick=not args.full,
            workloads=workloads,
            backends=args.backend or None,
            golden_dir=args.golden_dir,
            executor=args.executor,
            max_workers=args.workers,
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.json:
        print(json.dumps(report.data, indent=2, sort_keys=True))
    else:
        print(report.text)
    target = write_accuracy_json(
        report, args.output if args.output is not None else BENCH_ACCURACY_FILENAME
    )
    if not args.json:
        print(f"\nwrote {target}")
    return 0 if report.data["all_within_tolerance"] else 1


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve.config import DEFAULT_CACHE_DIR, ServeConfig
    from repro.serve.server import run_server

    if args.no_cache and args.cache_dir is not None:
        raise SystemExit("error: --no-cache and --cache-dir are mutually exclusive")
    cache_dir = None if args.no_cache else (args.cache_dir or DEFAULT_CACHE_DIR)
    try:
        config = ServeConfig(host=args.host, port=args.port, cache_dir=cache_dir)
        if args.shard:
            config = config.with_shard_workers(dict(args.shard))
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    run_server(config)
    return 0


def _command_loadtest(args: argparse.Namespace) -> int:
    from repro.serve.loadtest import BENCH_SERVICE_FILENAME, run_loadtest, write_service_json

    try:
        report = run_loadtest(
            num_requests=args.requests,
            pool_size=args.pool,
            concurrency=args.concurrency,
            exponent=args.exponent,
            backend=args.backend,
            seed=args.seed,
            cache_dir=args.cache_dir,
            workers=args.workers,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(report.text)
    target = write_service_json(
        report, args.output if args.output is not None else BENCH_SERVICE_FILENAME
    )
    print(f"\nwrote {target}")
    return 0 if report.data["failed"] == 0 else 1


def _command_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import BENCH_PROFILE_FILENAME, run_profile, write_profile_json

    try:
        report = run_profile(
            workload=args.workload,
            size=args.size,
            backend=args.backend,
            options=dict(args.option),
        )
    except (KeyError, RuntimeError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.json:
        print(json.dumps(report.data, indent=2, sort_keys=True))
    else:
        print(report.text)
    target = write_profile_json(
        report, args.output if args.output is not None else BENCH_PROFILE_FILENAME
    )
    if not args.json:
        print(f"\nwrote {target}")
    return 0


def _parse_shard_size(text: str) -> tuple[str, int]:
    """Parse a ``shard=workers`` sizing option (e.g. ``dense=4``)."""
    name, separator, raw = text.partition("=")
    if not separator or not name:
        raise argparse.ArgumentTypeError(f"expected shard=workers, got {text!r}")
    try:
        workers = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"worker count must be an integer, got {raw!r}") from None
    return name, workers


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified capacitance-extraction engine (registry, backends, batched service).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    backends_parser = subparsers.add_parser(
        "backends", help="list the registered extraction backends"
    )
    backends_parser.add_argument("--json", action="store_true", help="emit JSON")
    backends_parser.set_defaults(handler=_command_backends)

    extract_parser = subparsers.add_parser(
        "extract", help="extract a generated structure through one backend"
    )
    extract_parser.add_argument(
        "--generator",
        default="crossing_wires",
        help="structure generator from repro.geometry.generators (default: crossing_wires)",
    )
    extract_parser.add_argument(
        "--generator-arg",
        action="append",
        default=[],
        type=_parse_assignment,
        metavar="KEY=VALUE",
        help="generator keyword argument (repeatable)",
    )
    extract_parser.add_argument(
        "--backend",
        default=DEFAULT_BACKEND,
        help=f"backend name (default: {DEFAULT_BACKEND}); see the backends subcommand",
    )
    extract_parser.add_argument(
        "--option",
        action="append",
        default=[],
        type=_parse_assignment,
        metavar="KEY=VALUE",
        help="backend option (repeatable), e.g. cells_per_edge=2",
    )
    extract_parser.add_argument("--json", action="store_true", help="emit JSON")
    extract_parser.add_argument(
        "--executor", choices=MODES, default="serial"
    )
    extract_parser.add_argument("--workers", type=int, default=None)
    extract_parser.set_defaults(handler=_command_extract)

    bench_parser = subparsers.add_parser(
        "bench", help="benchmark the backends and the batched service"
    )
    bench_parser.add_argument(
        "--full", action="store_true", help="use the larger workload sizes"
    )
    bench_parser.add_argument(
        "--executor", choices=MODES, default="thread"
    )
    bench_parser.add_argument("--workers", type=int, default=2)
    bench_parser.add_argument(
        "--output",
        nargs="?",
        const="BENCH_engine.json",
        default=None,
        metavar="PATH",
        help="write the machine-readable report (default path: BENCH_engine.json)",
    )
    bench_parser.set_defaults(handler=_command_bench)

    scale_parser = subparsers.add_parser(
        "scale",
        help="sweep worker counts x layout sizes over the parallel Galerkin backends",
    )
    quickness = scale_parser.add_mutually_exclusive_group()
    quickness.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced bus sizes (the default)",
    )
    quickness.add_argument(
        "--full", action="store_true", help="use the larger bus sizes"
    )
    scale_parser.add_argument(
        "--workers",
        type=_parse_int_list,
        default=None,
        metavar="D1,D2,...",
        help=(
            "comma-separated worker counts to sweep (default: 1,2,4); with "
            "--backend galerkin-aca a single count of assembly partitions"
        ),
    )
    scale_parser.add_argument(
        "--sizes",
        type=_parse_int_list,
        default=None,
        metavar="N1,N2,...",
        help="comma-separated crossing-bus sizes overriding the quick/full defaults",
    )
    scale_parser.add_argument(
        "--executor",
        choices=("simulated", "process"),
        default=None,
        help="backend executor mode (default: simulated; parallel sweep only)",
    )
    scale_parser.add_argument(
        "--backend",
        choices=("parallel", "galerkin-aca"),
        default="parallel",
        help=(
            "what to sweep: 'parallel' (default) runs the worker-count sweep of "
            "the parallel Galerkin backends; 'galerkin-aca' runs the storage "
            "sweep of the compressed backend and writes BENCH_compress.json"
        ),
    )
    scale_parser.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="ACA tolerance of the galerkin-aca sweep (default: 1e-4)",
    )
    scale_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help=(
            "where to write the machine-readable report (default: "
            "BENCH_scaling.json, or BENCH_compress.json with --backend galerkin-aca)"
        ),
    )
    scale_parser.set_defaults(handler=_command_scale)

    kernel_parser = subparsers.add_parser(
        "kernel",
        help="benchmark entry-wise vs batched panel-integral evaluation",
    )
    kernel_quickness = kernel_parser.add_mutually_exclusive_group()
    kernel_quickness.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced bus sizes (the default)",
    )
    kernel_quickness.add_argument(
        "--full", action="store_true", help="use the larger bus sizes"
    )
    kernel_parser.add_argument(
        "--sizes",
        type=_parse_int_list,
        default=None,
        metavar="N1,N2,...",
        help="comma-separated crossing-bus sizes overriding the quick/full defaults",
    )
    kernel_parser.add_argument(
        "--sample",
        type=int,
        default=4000,
        metavar="PAIRS",
        help="template pairs sampled for the entry-wise timing (default: 4000)",
    )
    kernel_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="where to write the machine-readable report (default: BENCH_kernel.json)",
    )
    kernel_parser.set_defaults(handler=_command_kernel)

    solver_parser = subparsers.add_parser(
        "solver",
        help="benchmark parallel H-matrix assembly and blocked multi-RHS GMRES",
    )
    solver_quickness = solver_parser.add_mutually_exclusive_group()
    solver_quickness.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced bus sizes (the default)",
    )
    solver_quickness.add_argument(
        "--full", action="store_true", help="use the larger bus sizes"
    )
    solver_parser.add_argument(
        "--sizes",
        type=_parse_int_list,
        default=None,
        metavar="N1,N2,...",
        help="comma-separated crossing-bus sizes overriding the quick/full defaults",
    )
    solver_parser.add_argument(
        "--workers",
        type=_parse_int_list,
        default=None,
        metavar="D1,D2,...",
        help="comma-separated assembly worker counts to sweep (default: 1,2,4)",
    )
    solver_parser.add_argument(
        "--executor",
        choices=MODES,
        default="thread",
        help="parallel-assembly executor of the multi-worker builds (default: thread)",
    )
    solver_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="where to write the machine-readable report (default: BENCH_solver.json)",
    )
    solver_parser.set_defaults(handler=_command_solver)

    frw_parser = subparsers.add_parser(
        "frw",
        help="benchmark the floating-random-walk backend (variance + throughput)",
    )
    frw_quickness = frw_parser.add_mutually_exclusive_group()
    frw_quickness.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced walk budgets (the default)",
    )
    frw_quickness.add_argument(
        "--full", action="store_true", help="use the larger walk budgets"
    )
    frw_parser.add_argument(
        "--workload",
        default="crossing_wires",
        metavar="NAME",
        help="registered workload family to walk (default: crossing_wires)",
    )
    frw_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="root seed shared by every run (default: 0)",
    )
    frw_parser.add_argument(
        "--workers",
        type=_parse_int_list,
        default=None,
        metavar="D1,D2,...",
        help="comma-separated worker counts of the throughput sweep (default: 1,2,4)",
    )
    frw_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="where to write the machine-readable report (default: BENCH_frw.json)",
    )
    frw_parser.set_defaults(handler=_command_frw)

    workloads_parser = subparsers.add_parser(
        "workloads", help="list the registered workload families"
    )
    workloads_parser.add_argument("--json", action="store_true", help="emit JSON")
    workloads_parser.set_defaults(handler=_command_workloads)

    accuracy_parser = subparsers.add_parser(
        "accuracy",
        help="gate every backend against the golden references of the workload registry",
    )
    accuracy_quickness = accuracy_parser.add_mutually_exclusive_group()
    accuracy_quickness.add_argument(
        "--quick",
        action="store_true",
        help="use the CI-sized workload parameters (the default)",
    )
    accuracy_quickness.add_argument(
        "--full", action="store_true", help="use the nightly-sized workload parameters"
    )
    accuracy_parser.add_argument(
        "--workload",
        action="append",
        default=[],
        metavar="NAME",
        help="restrict to one workload family (repeatable; default: all)",
    )
    accuracy_parser.add_argument(
        "--backend",
        action="append",
        default=[],
        metavar="NAME",
        help="restrict to one backend (repeatable; default: all registered)",
    )
    accuracy_parser.add_argument(
        "--update-golden",
        action="store_true",
        help=(
            "recompute and write the golden references instead of comparing "
            "(honours --workload; --quick/--full restricts the refreshed mode)"
        ),
    )
    accuracy_parser.add_argument(
        "--golden-dir",
        default=None,
        metavar="PATH",
        help="golden-reference directory (default: benchmarks/golden/)",
    )
    accuracy_parser.add_argument(
        "--executor", choices=MODES, default="serial"
    )
    accuracy_parser.add_argument("--workers", type=int, default=None)
    accuracy_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="where to write the machine-readable report (default: BENCH_accuracy.json)",
    )
    accuracy_parser.add_argument("--json", action="store_true", help="emit JSON")
    accuracy_parser.set_defaults(handler=_command_accuracy)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived async HTTP extraction service",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=8421, help="bind port; 0 picks an ephemeral port (default: 8421)"
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persistent result-cache directory (default: .repro-serve-cache)",
    )
    serve_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache (in-flight dedup still applies)",
    )
    serve_parser.add_argument(
        "--shard",
        action="append",
        default=[],
        type=_parse_shard_size,
        metavar="NAME=WORKERS",
        help="resize a shard's worker pool (repeatable), e.g. --shard dense=4",
    )
    serve_parser.set_defaults(handler=_command_serve)

    loadtest_parser = subparsers.add_parser(
        "loadtest",
        help="benchmark the service under a Zipf repeated-layout workload",
    )
    loadtest_parser.add_argument(
        "--requests", type=int, default=150, help="total requests to fire (default: 150)"
    )
    loadtest_parser.add_argument(
        "--pool", type=int, default=12, help="distinct layouts in the pool (default: 12)"
    )
    loadtest_parser.add_argument(
        "--concurrency", type=int, default=8, help="parallel client workers (default: 8)"
    )
    loadtest_parser.add_argument(
        "--exponent", type=float, default=1.1, help="Zipf popularity exponent (default: 1.1)"
    )
    loadtest_parser.add_argument(
        "--backend", default=DEFAULT_BACKEND, help=f"backend under load (default: {DEFAULT_BACKEND})"
    )
    loadtest_parser.add_argument(
        "--seed", type=int, default=7, help="seed of the popularity draw (default: 7)"
    )
    loadtest_parser.add_argument(
        "--workers", type=int, default=2, help="server-side shard workers (default: 2)"
    )
    loadtest_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persistent store directory (default: a fresh temporary directory)",
    )
    loadtest_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="where to write the machine-readable report (default: BENCH_service.json)",
    )
    loadtest_parser.set_defaults(handler=_command_loadtest)

    profile_parser = subparsers.add_parser(
        "profile",
        help="run one workload under the span tracer and report the span tree",
    )
    profile_parser.add_argument(
        "--workload",
        default="bus_crossing",
        help="workload family to profile (default: bus_crossing); see the workloads subcommand",
    )
    profile_parser.add_argument(
        "--size",
        type=int,
        default=None,
        help="size knob of the workload family (default: the quick layout)",
    )
    profile_parser.add_argument(
        "--backend",
        default="instantiable",
        help="backend to profile (default: instantiable); see the backends subcommand",
    )
    profile_parser.add_argument(
        "--option",
        action="append",
        default=[],
        type=_parse_assignment,
        metavar="KEY=VALUE",
        help="backend option (repeatable), e.g. num_nodes=4",
    )
    profile_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="where to write the machine-readable report (default: BENCH_profile.json)",
    )
    profile_parser.add_argument("--json", action="store_true", help="emit JSON")
    profile_parser.set_defaults(handler=_command_profile)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
