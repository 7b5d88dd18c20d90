"""Regenerate the committed reference matrices of the extraction workloads.

Run from the root of the checkout::

    python3 perfbench/make_references.py            # every workload and size
    python3 perfbench/make_references.py bus_dense_shared

Each file stores the layout parameters and fingerprint, the reference
backend and options, the matrix, and the reference's own validity checks
(including its count of wrong-sign off-diagonals).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import (  # noqa: E402
    EXTRACTION_WORKLOADS,
    REFERENCE_DIR,
    SIZES,
    compute_reference,
    reference_path,
)


def main(names: list[str]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(EXTRACTION_WORKLOADS):
        workload = EXTRACTION_WORKLOADS[name]
        for size in SIZES:
            document = compute_reference(workload.layout_params(size))
            reference_path(name, size).write_text(json.dumps(document, indent=1) + "\n")
            checks = document["checks"]
            print(
                f"{name}.{size}: N={document['num_unknowns']} {document['seconds']:.1f} s, "
                f"checks ok={checks['ok']}, {checks['pos_offdiag']} positive off-diagonals "
                f"(largest {100 * checks['max_pos_offdiag_ratio']:.2f}% of the smallest diagonal)"
            )


if __name__ == "__main__":
    main(sys.argv[1:])
