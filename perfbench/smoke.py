"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the root of the checkout::

    python3 perfbench/smoke.py

It checks that every workload named in ``BENCHMARK.json`` runs, reports
correct outputs, and emits every end-to-end and per-layer metric of
``BENCHMARK.json`` with its unit; and that one seed replays the identical
request sequence and identical work counts.  Exits non-zero on failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

#: Work counts that must repeat exactly for one seed, per workload.
REPLAYED = {
    "bus_dense_shared": ("greens.pairs", "basis.functions"),
    "bus_hmatrix_gmres": ("greens.pairs", "solver.traversals", "compress.stored_entries"),
    "frw_bus_adaptive": ("frw.hops", "frw.walks"),
    # The stored payloads carry timings, so their size is not a replayed count.
    "service_zipf_open": ("serve.hit_frac",),
}


def run(workload: str, seed: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    if completed.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str, failures: list[str]) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def main() -> int:
    from run import END_TO_END, PER_LAYER
    from service import pool_specs, request_sequence
    from workloads import SERVICE_WORKLOAD, WORKLOAD_NAMES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(declared[0] == END_TO_END, "BENCHMARK.json end_to_end differs from run.END_TO_END", failures)
    expect(declared[1] == PER_LAYER, "BENCHMARK.json per_layer differs from run.PER_LAYER", failures)
    workloads = [w["name"] for w in spec["workloads"]]
    expect(sorted(workloads) == sorted(WORKLOAD_NAMES), "BENCHMARK.json workloads differ", failures)

    first = request_sequence(SERVICE_WORKLOAD, "tiny", 7, 1.0)
    again = request_sequence(SERVICE_WORKLOAD, "tiny", 7, 1.0)
    expect(first.tolist() == again.tolist(), "service request sequence does not replay", failures)
    expect(
        pool_specs(SERVICE_WORKLOAD, "tiny", 7) == pool_specs(SERVICE_WORKLOAD, "tiny", 7),
        "service layout pool does not replay",
        failures,
    )

    for workload in workloads:
        results = {trace: run(workload, 3, trace) for trace in (0, 1)}
        for trace, result in results.items():
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{workload}: result keys", failures)
            expect(result["correct"] is True, f"{workload} trace={trace}: outputs not correct", failures)
            expect(result["attempted"] >= 1 and result["failed"] == 0, f"{workload} trace={trace}: failures", failures)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(emitted == declared[trace], f"{workload} trace={trace}: metric names or units", failures)
        for name, metric in results[0]["metrics"].items():
            expect(metric["value"] > 0, f"{workload}: end-to-end {name} is not positive", failures)
        replay = run(workload, 3, 1)
        for name in REPLAYED[workload]:
            a, b = results[1]["metrics"][name]["value"], replay["metrics"][name]["value"]
            expect(a == b and a > 0, f"{workload}: {name} does not replay ({a} vs {b})", failures)
        print(f"ok {workload}")
    print("smoke test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
