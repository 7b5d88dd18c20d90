"""Floating random walks, fully vectorised over a group of batches.

The walk estimates one row of the short-circuit capacitance matrix from
Gauss's law over the source conductor's Gaussian surface ``G``:

``Q_i = -eps * integral_G dphi/dn dA``

Both integrals in that expression are Monte Carlo sampled.  The surface
integral draws start points uniformly on ``G`` (area measure
``total_area``; points buried inside the union carry weight zero).  The
normal derivative at a start point ``r0`` uses the gradient of the sphere
Poisson kernel at the centre of the largest conductor-free ball (radius
``R0``): for harmonic ``phi``,

``dphi/dn(r0) = (3 / R0) * E_u[ (u . n) * phi(r0 + R0 u) ]``

with ``u`` uniform on the unit sphere.  The remaining ``phi`` value is the
classic walk-on-spheres estimate: hop to a uniform point of the largest
conductor-free sphere (the mean-value property) until the walker enters
the first-passage capture shell of a conductor, whose voltage it reports.
With conductor ``j`` held at 1 V the whole chain gives one sample of
``C_ij`` per walk:

``X_j = -3 * eps * total_area * (u . n) / R0 * 1[walk hits j]``

Outside the bounding sphere of the layout the walk uses the *exact*
exterior transition instead of ever truncating the open domain: a walker
at distance ``rho`` from the centre returns to the bounding sphere with
probability ``radius / rho`` (else it escapes to infinity, where
``phi = 0``), and the conditional re-entry point follows the exterior
Poisson kernel — sampled in closed form through the Kelvin image of the
walker position.  The capture shell is therefore the method's only
systematic bias.

*Generalized antithetic sampling* (after arXiv:2504.20586) runs walks in
mirrored pairs sharing one start point: the partner path negates every
sphere-direction draw of the primary, so the first-hop weights are exactly
opposite and paths that terminate on the same conductor cancel.  Each
path is marginally an unmodified walk (the negated directions are still
uniform), so the pair mean is unbiased; the variance statistics then treat
the pair, not the walk, as the sample unit.

*Lockstep groups.*  A batch — ``(source, num_walks, rng)`` — is the unit of
the random stream.  :func:`run_walk_batches` walks a whole group of
batches (any mix of sources) in one set of arrays, one hop of every active
walker per step, so the per-step NumPy overhead is paid once per group
instead of once per batch.  Each batch keeps its own generator and its own
draw schedule, independent of the group it runs in:

1. start sampling — the surface points, then the first-hop directions;
2. then, at every step at which the batch still has an active walk, one
   full-batch draw set: ``num_walks / 2`` (antithetic) or ``num_walks``
   (plain) direction triples, then one ``(3, num_walks)`` block of
   uniforms (exterior escape, re-entry polar angle, re-entry azimuth).

A batch with no active walk left draws nothing more.  Every walker's
arithmetic is row-wise, so a batch's :class:`WalkBatchResult` is the same
bit for bit whether it runs alone (:func:`run_walk_batch`) or in any
group.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.frw.scene import WalkScene
from repro.obs.clock import now

__all__ = ["WalkBatchResult", "WalkGroupResult", "run_walk_batch", "run_walk_batches"]


@dataclass(frozen=True)
class WalkBatchResult:
    """Accumulated statistics of one walk batch (one row of the matrix).

    Attributes
    ----------
    source:
        Index of the source conductor the batch walked from.
    num_samples:
        Statistical sample count: walks in plain mode, *pairs* in
        antithetic mode (the pair mean is the i.i.d. sample unit).
    sums, sumsq:
        Per-conductor sums of the samples and of their squares, from which
        the estimator derives means and standard errors.
    hits:
        Walks terminated on each conductor.
    escaped:
        Walks that escaped to infinity (zero-valued samples).
    truncated:
        Walks cut off at the hop limit (also zero-valued; a non-negligible
        count signals the hop limit is too small for the geometry).
    buried:
        Walks whose start point fell inside the inflated union of the
        source conductor's own boxes — never launched, zero-weight samples
        by construction (see :meth:`~repro.frw.scene.GaussianSurface.sample`).
    hops:
        Total sphere hops taken, for throughput accounting.
    """

    source: int
    num_samples: int
    sums: np.ndarray
    sumsq: np.ndarray
    hits: np.ndarray
    escaped: int
    truncated: int
    buried: int
    hops: int


@dataclass(frozen=True)
class WalkGroupResult:
    """The batches of one lockstep group and the group's work counters.

    Attributes
    ----------
    batches:
        One :class:`WalkBatchResult` per batch, in the order given.
    steps:
        Lockstep hop iterations the group ran (the longest batch's count).
    seconds:
        Wall time of the whole group, measured where it ran.  Batches share
        every step, so there is no per-batch time.
    """

    batches: tuple[WalkBatchResult, ...]
    steps: int
    seconds: float

    @property
    def hops(self) -> int:
        """Total sphere hops of all batches."""
        return sum(batch.hops for batch in self.batches)


def _unit_rows(raw: np.ndarray) -> np.ndarray:
    """Each row of ``raw`` scaled to unit length (Gaussian triples -> sphere points)."""
    norm = np.linalg.norm(raw, axis=1, keepdims=True)
    # A zero draw is astronomically unlikely; substitute a fixed axis so the
    # batch never divides by zero.
    bad = norm[:, 0] < 1e-300
    if bad.any():  # pragma: no cover - probability ~1e-900
        raw[bad] = (1.0, 0.0, 0.0)
        norm[bad] = 1.0
    return raw / norm


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a x b``: the arithmetic of ``np.cross`` without its dispatch."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    out = np.empty_like(a)
    out[:, 0] = a1 * b2 - a2 * b1
    out[:, 1] = a2 * b0 - a0 * b2
    out[:, 2] = a0 * b1 - a1 * b0
    return out


def _orthonormal_basis(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing each row of ``e`` to an orthonormal frame."""
    helper = np.zeros_like(e)
    helper[np.arange(e.shape[0]), np.argmin(np.abs(e), axis=1)] = 1.0
    e1 = _cross(e, helper)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = _cross(e, e1)
    return e1, e2


def _poisson_reentry(
    positions: np.ndarray,
    center: np.ndarray,
    radius: float,
    mu_uniform: np.ndarray,
    psi_uniform: np.ndarray,
) -> np.ndarray:
    """Conditional re-entry points on the bounding sphere.

    For a walker outside the sphere, the hitting distribution conditioned
    on return equals the *interior* Poisson-kernel exit distribution from
    the Kelvin image of the walker (at ``radius/rho`` of the sphere
    radius).  The polar angle against the walker direction is sampled by
    inverting the kernel's closed-form CDF; the azimuth is uniform.
    """
    offset = positions - center
    rho = np.linalg.norm(offset, axis=1)
    e = offset / rho[:, None]
    d = radius / rho  # Kelvin image distance, in units of the sphere radius
    s = (1.0 - d * d) / (1.0 - d + 2.0 * d * mu_uniform)
    mu = np.clip((1.0 + d * d - s * s) / (2.0 * d), -1.0, 1.0)
    psi = 2.0 * np.pi * psi_uniform
    e1, e2 = _orthonormal_basis(e)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
    direction = (
        mu[:, None] * e
        + sin_theta[:, None] * (np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2)
    )
    # Nudge the landing point strictly inside the sphere: at exactly
    # ``radius`` floating-point rounding can leave ``rho > radius`` true,
    # and the walker would re-run the exterior transition forever instead
    # of taking its next interior hop.
    return center + (radius * (1.0 - 1e-12)) * direction


def run_walk_batches(
    scene: WalkScene,
    specs: Sequence[tuple[int, int, np.random.Generator]],
    antithetic: bool = True,
    max_hops: int = 1000,
) -> WalkGroupResult:
    """Walk a group of batches in lockstep.

    Parameters
    ----------
    scene:
        The flattened geometry (see :func:`repro.frw.scene.build_scene`).
    specs:
        One ``(source, num_walks, rng)`` per batch: the source conductor
        (the row being estimated), the walks in the batch (even in
        antithetic mode, where walks pair up) and the batch's private
        generator.  The draw schedule (module docstring) depends only on
        the batch's own walks, so its outcome depends only on ``rng``'s
        seed — never on the group or the worker that ran it.
    antithetic:
        Run mirrored pairs (generalized antithetic sampling) instead of
        independent walks.
    max_hops:
        Hard hop limit per walk; walks cut off here count as ``truncated``
        zero-valued samples.
    """
    if not specs:
        raise ValueError("a walk group needs at least one batch")
    for _, num_walks, _ in specs:
        if num_walks < 1:
            raise ValueError(f"num_walks must be >= 1, got {num_walks}")
        if antithetic and num_walks % 2:
            raise ValueError(f"antithetic batches need an even num_walks, got {num_walks}")
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    start_time = now()
    sizes = np.array([num_walks for _, num_walks, _ in specs], dtype=np.int64)
    halves = sizes // 2 if antithetic else sizes
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    total = int(bounds[-1])
    batch_of = np.repeat(np.arange(len(specs)), sizes)
    # Walks of batch b occupy rows bounds[b]:bounds[b + 1], and its draws
    # fill the first halves[b] rows of ``raw``.  In antithetic mode each
    # walk of the second half reads its partner's draws in the first half
    # (same start point) and negates the directions.
    batch_start = np.repeat(bounds[:-1], sizes)
    draw_row = batch_start + (np.arange(total) - batch_start) % np.repeat(halves, sizes)
    sign = np.where(draw_row == np.arange(total), 1.0, -1.0)[:, None]
    raw = np.empty((total, 3))

    def unit_directions(walkers: np.ndarray) -> np.ndarray:
        """Hop directions of ``walkers`` from their batches' current draws."""
        return _unit_rows(raw[draw_row[walkers]]) * sign[walkers]

    points = np.empty((total, 3))
    normals = np.empty((total, 3))
    live = np.empty(total, dtype=bool)
    area = np.empty(total)
    for b, (source, _, rng) in enumerate(specs):
        lo, hi = bounds[b], bounds[b] + halves[b]
        surface = scene.surfaces[source]
        points[lo:hi], normals[lo:hi], live[lo:hi] = surface.sample(rng, int(halves[b]))
        area[lo : bounds[b + 1]] = surface.total_area
        raw[lo:hi] = rng.standard_normal((hi - lo, 3))
    points, normals, live = points[draw_row], normals[draw_row], live[draw_row]
    directions = unit_directions(np.arange(total))

    first_radius, _ = scene.distance(points)
    u_dot_n = np.einsum("wk,wk->w", directions, normals)
    # Buried starts can sit inside a sibling raw box (first_radius == 0);
    # their weight is zero, so divide by a placeholder radius instead of
    # tripping a divide warning on the dead branch of the where().
    safe_radius = np.where(live, first_radius, 1.0)
    coefficient = np.where(
        live,
        -3.0 * scene.permittivity * area * u_dot_n / safe_radius,
        0.0,
    )
    positions = points + first_radius[:, None] * directions
    active = live.copy()
    hit = np.full(total, -1, dtype=np.int64)
    hops = np.zeros(len(specs), dtype=np.int64)
    uniforms = np.empty((3, total))
    steps = 0

    for _ in range(max_hops):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        steps += 1
        walking = np.bincount(batch_of[rows], minlength=len(specs))
        hops += walking
        # Only batches with an active walk draw, and each draws its full
        # batch (the stream schedule is independent of which walks are
        # still alive, and pairs the antithetic halves).
        for b in np.flatnonzero(walking):
            rng = specs[b][2]
            lo, hi = bounds[b], bounds[b + 1]
            raw[lo : lo + halves[b]] = rng.standard_normal((halves[b], 3))
            uniforms[:, lo:hi] = rng.random((3, hi - lo))
        escape_uniform, mu_uniform, psi_uniform = uniforms

        distance, nearest = scene.distance(positions[rows])

        captured = distance <= scene.capture
        captured_rows = rows[captured]
        hit[captured_rows] = nearest[captured]
        active[captured_rows] = False

        moving = rows[~captured]
        if moving.size == 0:
            continue
        offset = positions[moving] - scene.center
        rho = np.linalg.norm(offset, axis=1)
        outside = rho > scene.radius

        exterior = moving[outside]
        if exterior.size:
            escaped_mask = escape_uniform[exterior] > scene.radius / rho[outside]
            gone = exterior[escaped_mask]
            active[gone] = False  # phi = 0 at infinity: zero-valued sample
            returning = exterior[~escaped_mask]
            if returning.size:
                positions[returning] = _poisson_reentry(
                    positions[returning],
                    scene.center,
                    scene.radius,
                    mu_uniform[returning],
                    psi_uniform[returning],
                )

        interior = moving[~outside]
        if interior.size:
            step = distance[~captured][~outside]
            positions[interior] = positions[interior] + step[:, None] * unit_directions(interior)

    conductors = np.arange(scene.num_conductors)
    results: list[WalkBatchResult] = []
    for b, (source, num_walks, _) in enumerate(specs):
        own = slice(bounds[b], bounds[b + 1])
        batch_hit = hit[own]
        terminal = coefficient[own, None] * (batch_hit[:, None] == conductors[None, :])
        if antithetic:
            half = num_walks // 2
            samples = 0.5 * (terminal[:half] + terminal[half:])
            num_samples = half
        else:
            samples = terminal
            num_samples = num_walks
        # Walks still active after max_hops steps are truncated; hit == -1
        # then covers three outcomes: buried starts (never launched),
        # hop-limit truncations, and genuine escapes to infinity.
        truncated = int(active[own].sum())
        buried = int((~live[own]).sum())
        results.append(
            WalkBatchResult(
                source=source,
                num_samples=num_samples,
                sums=samples.sum(axis=0),
                sumsq=(samples * samples).sum(axis=0),
                hits=np.bincount(batch_hit[batch_hit >= 0], minlength=scene.num_conductors),
                escaped=int((batch_hit < 0).sum()) - truncated - buried,
                truncated=truncated,
                buried=buried,
                hops=int(hops[b]),
            )
        )
    return WalkGroupResult(batches=tuple(results), steps=steps, seconds=now() - start_time)


def run_walk_batch(
    scene: WalkScene,
    source: int,
    num_walks: int,
    rng: np.random.Generator,
    antithetic: bool = True,
    max_hops: int = 1000,
) -> WalkBatchResult:
    """Run one batch of walks from one source conductor.

    The one-batch group of :func:`run_walk_batches`, whose parameters
    this shares.
    """
    group = run_walk_batches(scene, [(source, num_walks, rng)], antithetic, max_hops)
    return group.batches[0]
