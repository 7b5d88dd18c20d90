"""Benchmark of the capacitance-extraction system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bus_dense_shared --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that times the benchmark's own calls into
each layer and reports the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full record of the run (host facts,
validity details, raw timings).  ``--size tiny`` shrinks every workload for
the smoke test (``python3 perfbench/smoke.py``).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Every end-to-end metric, as ``name: unit``; each workload reports all.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "goodput_per_s": "1/s",
    "cap_rel_err": "ratio",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric of the traced run; a layer a workload does not
#: exercise reports 0.
PER_LAYER = {
    "basis.instantiate_s": "s",
    "basis.functions": "count",
    "basis.templates": "count",
    "greens.pairs": "count",
    "greens.pairs.point": "count",
    "greens.pairs.collocation": "count",
    "greens.pairs.parallel": "count",
    "greens.pairs.orthogonal": "count",
    "greens.pairs.profiled": "count",
    "greens.pairs_per_s": "1/s",
    "assembly.wall_s": "s",
    "assembly.worker_busy_s": "s",
    "assembly.parallel_eff": "ratio",
    "assembly.load_imbalance": "ratio",
    "assembly.comm_bytes": "bytes",
    "assembly.speedup": "ratio",
    "compress.build_s": "s",
    "compress.entries_sampled": "count",
    "compress.stored_entries": "count",
    "compress.ratio": "ratio",
    "compress.near_blocks": "count",
    "compress.far_blocks": "count",
    "compress.max_rank": "count",
    "compress.worker_busy_s": "s",
    "compress.parallel_eff": "ratio",
    "compress.useful_frac": "ratio",
    "solver.solve_s": "s",
    "solver.operator_s": "s",
    "solver.traversals": "count",
    "solver.iterations_max": "count",
    "solver.pos_offdiag": "count",
    "frw.scene_s": "s",
    "frw.walk_s": "s",
    "frw.walks": "count",
    "frw.hops": "count",
    "frw.hops_per_s": "1/s",
    "frw.rel_std": "ratio",
    "frw.truncated_frac": "ratio",
    "frw.escaped_frac": "ratio",
    "engine.fingerprint_s": "s",
    "serve.cached_p50_s": "s",
    "serve.computed_p50_s": "s",
    "serve.hit_frac": "ratio",
    "serve.coalesced": "count",
    "serve.rejected": "count",
    "serve.queue_max_depth": "count",
    "serve.store_bytes": "bytes",
    "serve.generator_lag_s": "s",
    "trace.overhead_s": "s",
    "trace.self_time_gap": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("real", "tiny"), default="real")
    return parser.parse_args(argv)


def run(args, import_s: float = 0.0) -> tuple[dict, dict]:
    """Run one workload; returns ``(result line, full record)``."""
    import extraction
    import service
    from common import host_facts
    from workloads import EXTRACTION_WORKLOADS, SERVICE_WORKLOAD, WORKLOAD_NAMES

    if args.workload not in WORKLOAD_NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOAD_NAMES)}")
    if args.workload == SERVICE_WORKLOAD.name:
        module, workload = service, SERVICE_WORKLOAD
    else:
        module, workload = extraction, EXTRACTION_WORKLOADS[args.workload]
    if args.trace:
        outcome = module.run_traced(workload, args.size, args.seed, args.seconds)
        names = PER_LAYER
    else:
        outcome = module.run_untraced(workload, args.size, args.seed, args.seconds, import_s)
        names = END_TO_END
    problems = list(outcome["errors"])
    if outcome.get("fidelity_mismatches"):
        problems.append(f"{outcome['fidelity_mismatches']} traced pipelines differ from the backend")
    if outcome.get("self_time_ok") is False:
        problems.append("layer self-times miss the traced end-to-end time by more than 5%")
    result = {
        "correct": outcome["failed"] == 0 and outcome.get("valid", True) and not problems,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(outcome["metrics"].get(name, 0.0)), "unit": unit}
            for name, unit in names.items()
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "host": host_facts(),
        "problems": problems,
        "valid": outcome.get("valid", True),
        "detail": outcome.get("detail", {}),
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import numpy  # noqa: F401
    import repro.engine  # noqa: F401

    import_s = time.perf_counter() - _STARTED
    result, record = run(args, import_s)
    print(json.dumps({"record": record}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
