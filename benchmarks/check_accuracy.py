#!/usr/bin/env python3
"""CI accuracy gate over the golden-reference suite.

Reads a freshly generated ``BENCH_accuracy.json`` (written by
``python -m repro accuracy``) and fails (exit 1) when any backend exceeded
its per-workload tolerance against the committed golden references in
``benchmarks/golden/``, when any extraction failed outright, or when a
golden reference is missing/stale.  A per-metric markdown table lands on
``$GITHUB_STEP_SUMMARY`` so red gates are readable without downloading
artifacts.

Escape hatches:

* ``ACCURACY_GATE_SKIP=1`` skips the gate entirely (the CI workflow sets
  it when the pull request carries the ``skip-accuracy-gate`` label).
* Intentional physics/parameter changes are absorbed by refreshing the
  goldens::

      PYTHONPATH=src python -m repro accuracy --update-golden

The script is dependency-free (standard library only) so the CI job can
run it without installing the package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    """A GitHub-flavoured markdown table as a list of lines."""
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def append_step_summary(lines: Sequence[str]) -> bool:
    """Append markdown lines to ``$GITHUB_STEP_SUMMARY`` when it is set.

    Returns whether anything was written (False outside GitHub Actions).
    """
    target = os.environ.get("GITHUB_STEP_SUMMARY")
    if not target:
        return False
    with Path(target).open("a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n\n")
    return True


def collect_rows(data: dict) -> tuple[list[list[str]], list[str]]:
    """Per-(workload, backend) table rows plus the failure messages."""
    rows: list[list[str]] = []
    for workload in sorted(data.get("workloads", {})):
        entry = data["workloads"][workload]
        for backend in sorted(entry.get("backends", {})):
            record = entry["backends"][backend]
            error = record.get("frobenius_relative_error")
            rows.append(
                [
                    workload,
                    backend,
                    f"{error:.4f}" if error is not None else "-",
                    f"{record.get('tolerance', 0.0):.3f}",
                    "✅ ok" if record.get("within_tolerance") else "❌ FAIL",
                ]
            )
    return rows, list(data.get("failures", []))


def write_summary(data: dict, rows: list[list[str]], failures: list[str]) -> None:
    mode = "quick" if data.get("quick", True) else "full"
    verdict = "passed ✅" if not failures else "FAILED ❌"
    lines = [f"## Accuracy gate ({mode} mode): {verdict}", ""]
    lines += markdown_table(
        ["workload", "backend", "rel error", "tolerance", "status"], rows
    )
    if failures:
        lines += ["", "**Failures:**", ""]
        lines += [f"- {failure}" for failure in failures]
    worst = data.get("worst")
    if worst:
        lines += [
            "",
            f"Worst case: `{worst['workload']}/{worst['backend']}` relative error "
            f"{worst['frobenius_relative_error']:.4f} "
            f"(tolerance {worst['tolerance']:.3f})",
        ]
    append_step_summary(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report",
        type=Path,
        default=REPO_ROOT / "BENCH_accuracy.json",
        help="fresh accuracy artifact (default: BENCH_accuracy.json)",
    )
    args = parser.parse_args(argv)

    if os.environ.get("ACCURACY_GATE_SKIP") == "1":
        print("accuracy gate skipped (ACCURACY_GATE_SKIP=1)")
        append_step_summary(["## Accuracy gate: skipped (`ACCURACY_GATE_SKIP=1`)"])
        return 0

    if not args.report.exists():
        raise SystemExit(f"error: accuracy report not found at {args.report}")
    data = json.loads(args.report.read_text())

    rows, failures = collect_rows(data)
    write_summary(data, rows, failures)

    for row in rows:
        print(f"  {row[0]:<26} {row[1]:<22} rel error {row[2]:>8}  (tol {row[3]})")
    if failures:
        print("\naccuracy gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        print(
            "\nIf the change is intentional, refresh the goldens "
            "(`python -m repro accuracy --update-golden`) or apply the "
            "'skip-accuracy-gate' PR label."
        )
        return 1
    print(
        f"\naccuracy gate passed: {data.get('num_workloads', 0)} workloads x "
        f"{len(data.get('backends', []))} backends within tolerance"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
