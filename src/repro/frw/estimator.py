"""Deterministic batched FRW estimation with worker-process fan-out.

The estimator splits each conductor's walks into fixed-size batches and
derives every batch's generator from ``(seed, conductor, batch_index)``
alone, so the random stream belongs to the *batch*, never to the worker
that happens to run it.  Batch results are merged in batch-index order in
the parent process.  Together the two rules give the backend its headline
reproducibility guarantee: **same seed, any ``num_workers`` (and either
executor) → bit-identical capacitance matrix**.

Two stopping modes share that machinery:

* *fixed budget* — ``num_walks`` walks per conductor, split into batches
  up front;
* *adaptive* (``target_rel_std``) — rounds of batches are appended until
  the matrix-level relative standard error drops under the target or the
  ``max_walks`` cap is hit.  A round is a fixed set of batch indices, and
  the stopping decision reads only merged statistics, so the adaptive
  schedule is also identical for every worker count.

Each round is cut into contiguous *groups* of batches that walk in
lockstep (:func:`~repro.frw.walks.run_walk_batches`): serially the whole
round is one group; with ``num_workers > 1`` the round is split into at
most ``num_workers`` groups that fan out over one ``process``-mode
:class:`~repro.parallel.executor.WorkerPool` kept for the whole estimate.
Its workers inherit the scene when they are forked, so a job is just a
group's batch list.  Groups are further capped at
``_GROUP_WALK_BOXES`` walks x scene boxes, which bounds the distance
oracle's temporaries.  Which group a batch runs in never changes its
result.  Each group is timed where it ran; the parent re-attaches the
timings as ``frw.group`` spans and feeds the walk/hop counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frw.scene import WalkScene
from repro.frw.walks import WalkBatchResult, WalkGroupResult, run_walk_batches
from repro.obs.metrics import counter, histogram
from repro.obs.trace import record_span
from repro.parallel.executor import WorkerPool

__all__ = ["FRWEstimate", "estimate_capacitance"]

_WALKS_TOTAL = counter(
    "repro_frw_walks_total",
    "Floating-random-walk walks by outcome (hit / escaped / truncated / buried).",
    ("outcome",),
)
_HOPS_TOTAL = counter(
    "repro_frw_hops_total",
    "Total sphere hops taken by floating-random-walk walkers.",
)
_GROUP_SECONDS = histogram(
    "repro_frw_group_seconds",
    "Wall time of one lockstep group of floating-random-walk batches, measured in its worker.",
)

#: Cap on walks x scene boxes per lockstep group.  The distance oracle
#: holds a few ``(walks, boxes, 3)`` float64 temporaries, ~1.5 MB each at
#: the cap.
_GROUP_WALK_BOXES = 1 << 16


@dataclass(frozen=True)
class FRWEstimate:
    """The Monte Carlo capacitance estimate and its error statistics.

    Attributes
    ----------
    capacitance:
        ``(C, C)`` short-circuit capacitance matrix estimate (farad).  Row
        ``i`` is the independent estimate from walks launched off conductor
        ``i``'s Gaussian surface; the matrix is therefore symmetric only up
        to sampling noise.
    stderr:
        ``(C, C)`` standard error of each entry (same units).  Entry
        ``(i, j)`` is an asymptotic 1-sigma of ``capacitance[i, j]``.
    num_walks:
        Walks launched per source conductor.
    num_samples:
        Statistical samples per source conductor (pairs in antithetic
        mode).
    hits, escaped, truncated, buried:
        Walk outcome counts: ``hits[i, j]`` walks from source ``i``
        terminated on conductor ``j``; the rest escaped to infinity, hit
        the hop limit, or started buried inside the source's inflated
        union (zero-weight samples, never launched).
    hops:
        Total sphere hops per source conductor.
    walk_seconds:
        Summed wall time of the lockstep walk groups, each measured where
        it ran (CPU-seconds of walking; with worker processes this exceeds
        the elapsed wall clock).
    rel_std:
        Matrix-level relative standard error,
        ``||stderr||_F / ||capacitance||_F`` — the quantity the adaptive
        mode drives under ``target_rel_std``.
    num_batches:
        Walk batches run per source conductor.
    """

    capacitance: np.ndarray
    stderr: np.ndarray
    num_walks: np.ndarray
    num_samples: np.ndarray
    hits: np.ndarray
    escaped: np.ndarray
    truncated: np.ndarray
    buried: np.ndarray
    hops: np.ndarray
    walk_seconds: float
    rel_std: float
    num_batches: np.ndarray


def _batch_sizes(num_walks: int, batch_size: int, antithetic: bool) -> list[int]:
    """Split a walk budget into batch sizes (even sizes in antithetic mode)."""
    if antithetic:
        # Round the budget and the batch to pairs.
        num_walks += num_walks % 2
        batch_size += batch_size % 2
    sizes = [batch_size] * (num_walks // batch_size)
    remainder = num_walks % batch_size
    if remainder:
        sizes.append(remainder)
    return sizes


@dataclass
class _RowAccumulator:
    """Merged running statistics of one source conductor's batches."""

    num_conductors: int

    def __post_init__(self) -> None:
        self.samples = 0
        self.walks = 0
        self.sums = np.zeros(self.num_conductors)
        self.sumsq = np.zeros(self.num_conductors)
        self.hits = np.zeros(self.num_conductors, dtype=np.int64)
        self.escaped = 0
        self.truncated = 0
        self.buried = 0
        self.hops = 0
        self.batches = 0

    def add(self, result: WalkBatchResult, walks: int) -> None:
        self.samples += result.num_samples
        self.walks += walks
        self.sums += result.sums
        self.sumsq += result.sumsq
        self.hits += result.hits
        self.escaped += result.escaped
        self.truncated += result.truncated
        self.buried += result.buried
        self.hops += result.hops
        self.batches += 1

    def mean(self) -> np.ndarray:
        return self.sums / max(self.samples, 1)

    def stderr(self) -> np.ndarray:
        if self.samples < 2:
            return np.full(self.num_conductors, np.inf)
        mean = self.mean()
        variance = np.maximum(0.0, self.sumsq - self.samples * mean * mean)
        variance /= self.samples - 1
        return np.sqrt(variance / self.samples)


def _groups(batches: list[tuple], num_parts: int, num_boxes: int) -> list[list[tuple]]:
    """Cut a round's ``(source, size, seed_key)`` batches into lockstep groups.

    At most ``num_parts`` contiguous parts of near-equal batch counts, each
    cut again wherever it would exceed ``_GROUP_WALK_BOXES`` walks x boxes
    (a single larger batch still forms its own group).
    """
    groups: list[list[tuple]] = []
    for part in np.array_split(np.arange(len(batches)), min(num_parts, len(batches))):
        group: list[tuple] = []
        walks = 0
        for index in part:
            size = batches[index][1]
            if group and (walks + size) * num_boxes > _GROUP_WALK_BOXES:
                groups.append(group)
                group, walks = [], 0
            group.append(batches[index])
            walks += size
        groups.append(group)
    return groups


def _run_groups(
    groups: list[list[tuple]], pool: WorkerPool[WalkGroupResult]
) -> list[WalkGroupResult]:
    """Walk the groups on the pool (in group order), with telemetry."""
    results = pool.map(groups)
    for group, result in zip(groups, results):
        batches = result.batches
        record_span(
            "frw.group",
            result.seconds,
            batches=len(batches),
            walks=sum(size for _, size, _ in group),
            hops=result.hops,
            steps=result.steps,
            executor=pool.mode,
        )
        _WALKS_TOTAL.inc(float(sum(int(b.hits.sum()) for b in batches)), outcome="hit")
        _WALKS_TOTAL.inc(float(sum(b.escaped for b in batches)), outcome="escaped")
        _WALKS_TOTAL.inc(float(sum(b.truncated for b in batches)), outcome="truncated")
        _WALKS_TOTAL.inc(float(sum(b.buried for b in batches)), outcome="buried")
        _HOPS_TOTAL.inc(float(result.hops))
        _GROUP_SECONDS.observe(result.seconds)
    return results


def _relative_std(rows: list[_RowAccumulator]) -> float:
    """Matrix-level relative standard error of the merged estimate."""
    mean_norm = float(np.sqrt(sum(float(np.sum(row.mean() ** 2)) for row in rows)))
    err_norm = float(np.sqrt(sum(float(np.sum(row.stderr() ** 2)) for row in rows)))
    if mean_norm == 0.0:
        return np.inf
    return err_norm / mean_norm


def estimate_capacitance(
    scene: WalkScene,
    *,
    num_walks: int = 8192,
    target_rel_std: float | None = None,
    max_walks: int = 131072,
    seed: int = 0,
    num_workers: int = 1,
    antithetic: bool = True,
    batch_size: int = 512,
    max_hops: int = 1000,
) -> FRWEstimate:
    """Estimate the full capacitance matrix of a scene.

    Parameters
    ----------
    scene:
        The flattened geometry from :func:`repro.frw.scene.build_scene`.
    num_walks:
        Walks per source conductor — the whole budget in fixed mode, the
        per-round increment in adaptive mode.
    target_rel_std:
        When set, keep appending rounds of ``num_walks`` walks per
        conductor until the matrix-level relative standard error
        (:attr:`FRWEstimate.rel_std`) drops below this target or the
        per-conductor budget reaches ``max_walks``.
    max_walks:
        Per-conductor walk cap of the adaptive mode.
    seed:
        Root seed.  Every batch derives its generator from
        ``(seed, conductor, batch_index)``, making the estimate
        bit-identical for any ``num_workers``.
    num_workers:
        Number of worker processes walking the batches (``<= 1`` walks
        serially in-process).
    antithetic:
        Generalized-antithetic pairing (default) vs plain sampling.
    batch_size:
        Walks per batch — the unit of parallel work *and* of the seed
        schedule, so changing it changes the random stream.
    max_hops:
        Per-walk hop limit forwarded to :func:`repro.frw.walks.run_walk_batch`.
    """
    if num_walks < 2:
        raise ValueError(f"num_walks must be >= 2, got {num_walks}")
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    if target_rel_std is not None and target_rel_std <= 0.0:
        raise ValueError(f"target_rel_std must be positive, got {target_rel_std}")
    if num_workers < 0:
        raise ValueError(f"num_workers must be >= 0, got {num_workers}")

    rows = [_RowAccumulator(scene.num_conductors) for _ in range(scene.num_conductors)]
    round_sizes = _batch_sizes(num_walks, batch_size, antithetic)
    parallel = num_workers > 1 and scene.num_conductors * len(round_sizes) > 1
    walk_seconds = 0.0

    def walk_group(group: list[tuple]) -> WalkGroupResult:
        """Rebuild the group's batch generators and walk it (in a worker)."""
        specs = [
            (source, size, np.random.default_rng(seed_key)) for source, size, seed_key in group
        ]
        return run_walk_batches(scene, specs, antithetic, max_hops)

    def run_round(pool: WorkerPool[WalkGroupResult]) -> None:
        nonlocal walk_seconds
        batches = [
            (source, size, (seed, source, rows[source].batches + offset))
            for source in range(scene.num_conductors)
            for offset, size in enumerate(round_sizes)
        ]
        groups = _groups(batches, num_workers if parallel else 1, scene.box_lo.shape[0])
        for group, result in zip(groups, _run_groups(groups, pool)):
            walk_seconds += result.seconds
            for (source, size, _), batch in zip(group, result.batches):
                rows[source].add(batch, walks=size)

    with WorkerPool(walk_group, "process" if parallel else "serial", num_workers) as pool:
        run_round(pool)
        if target_rel_std is not None:
            while (
                _relative_std(rows) > target_rel_std
                and rows[0].walks + sum(round_sizes) <= max_walks
            ):
                run_round(pool)

    capacitance = np.stack([row.mean() for row in rows])
    stderr = np.stack([row.stderr() for row in rows])
    return FRWEstimate(
        capacitance=capacitance,
        stderr=stderr,
        num_walks=np.asarray([row.walks for row in rows], dtype=np.int64),
        num_samples=np.asarray([row.samples for row in rows], dtype=np.int64),
        hits=np.stack([row.hits for row in rows]),
        escaped=np.asarray([row.escaped for row in rows], dtype=np.int64),
        truncated=np.asarray([row.truncated for row in rows], dtype=np.int64),
        buried=np.asarray([row.buried for row in rows], dtype=np.int64),
        hops=np.asarray([row.hops for row in rows], dtype=np.int64),
        walk_seconds=walk_seconds,
        rel_std=_relative_std(rows),
        num_batches=np.asarray([row.batches for row in rows], dtype=np.int64),
    )
