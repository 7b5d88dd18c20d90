"""Speedup and parallel-efficiency bookkeeping (Table 3, Figure 8).

A :class:`ScalingTable` collects the wall-clock time of runs at different
node counts and derives speedup (``T_1 / T_D``) and efficiency
(``speedup / D``), which are exactly the columns of the paper's Table 3 and
the y-axis of Figure 8.  Amdahl-law helpers quantify the serial fraction of
a measured curve, which is how the pFFT/FMM baseline curves are
characterised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ScalingPoint", "ScalingTable", "amdahl_efficiency"]


@dataclass(frozen=True)
class ScalingPoint:
    """One row of a scaling table."""

    num_nodes: int
    total_seconds: float
    speedup: float
    efficiency: float


@dataclass
class ScalingTable:
    """Scaling results of one solver configuration over several node counts."""

    label: str
    points: list[ScalingPoint] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def from_times(cls, label: str, node_counts: list[int], times: list[float]) -> "ScalingTable":
        """Build the table from raw wall-clock times.

        The single-node time is the reference; if no 1-node entry is present
        the smallest node count is used as the baseline (scaled ideally).
        """
        if len(node_counts) != len(times):
            raise ValueError("node_counts and times must have equal lengths")
        if not node_counts:
            raise ValueError("scaling table needs at least one measurement")
        pairs = sorted(zip(node_counts, times))
        base_nodes, base_time = pairs[0]
        reference = base_time * base_nodes  # ideal single-node equivalent
        if base_nodes == 1:
            reference = base_time
        points = []
        for nodes, seconds in pairs:
            if seconds <= 0.0:
                raise ValueError(f"non-positive time {seconds} for {nodes} nodes")
            speedup = reference / seconds
            points.append(
                ScalingPoint(
                    num_nodes=nodes,
                    total_seconds=seconds,
                    speedup=speedup,
                    efficiency=speedup / nodes,
                )
            )
        return cls(label=label, points=points)

    # ------------------------------------------------------------------
    @property
    def node_counts(self) -> list[int]:
        """Node counts in ascending order."""
        return [p.num_nodes for p in self.points]

    @property
    def efficiencies(self) -> list[float]:
        """Efficiencies aligned with :attr:`node_counts`."""
        return [p.efficiency for p in self.points]

    @property
    def speedups(self) -> list[float]:
        """Speedups aligned with :attr:`node_counts`."""
        return [p.speedup for p in self.points]

    def efficiency_at(self, num_nodes: int) -> float:
        """Efficiency at a specific node count."""
        for point in self.points:
            if point.num_nodes == num_nodes:
                return point.efficiency
        raise KeyError(f"no measurement for {num_nodes} nodes in table {self.label!r}")

    def as_dict(self) -> dict:
        """Machine-readable summary (aligned lists, one entry per node count)."""
        return {
            "label": self.label,
            "worker_counts": self.node_counts,
            "total_seconds": [p.total_seconds for p in self.points],
            "speedup": self.speedups,
            "efficiency": self.efficiencies,
        }

    def rows(self) -> list[list[str]]:
        """Formatted rows (nodes, time, speedup, efficiency) for reports."""
        return [
            [
                str(p.num_nodes),
                f"{p.total_seconds:.3f} s",
                f"{p.speedup:.2f}x",
                f"{100.0 * p.efficiency:.0f}%",
            ]
            for p in self.points
        ]


def amdahl_efficiency(num_nodes: np.ndarray, serial_fraction: float) -> np.ndarray:
    """Parallel efficiency predicted by Amdahl's law for a serial fraction."""
    num_nodes = np.asarray(num_nodes, dtype=float)
    if not (0.0 <= serial_fraction <= 1.0):
        raise ValueError(f"serial_fraction must be in [0, 1], got {serial_fraction}")
    speedup = 1.0 / (serial_fraction + (1.0 - serial_fraction) / num_nodes)
    return speedup / num_nodes
