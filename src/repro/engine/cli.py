"""Command-line front end of the unified extraction engine.

Run as ``python -m repro``:

* ``python -m repro backends`` -- list the registered backends.
* ``python -m repro extract --generator crossing_wires --backend pwc-dense
  --option cells_per_edge=2`` -- extract a generated structure.
* ``python -m repro workloads`` -- list the registered workload families.
* ``python -m repro accuracy --quick`` -- extract every workload family
  with every backend, gate the relative errors against the golden
  references in ``benchmarks/golden/`` and write ``BENCH_accuracy.json``
  (``--update-golden`` refreshes the references instead).
* ``python -m repro serve`` -- run the long-lived async HTTP extraction
  service (sharded worker pools, bounded priority queue, persistent
  fingerprint-keyed result cache); Ctrl-C drains gracefully.

Performance is measured by ``perfbench/run.py``; the paper experiments run
through ``python -m repro.core.experiments``.
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

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
