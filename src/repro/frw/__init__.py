"""Floating-random-walk (FRW) capacitance extraction.

The stack's Monte Carlo fast path: estimate the capacitance matrix by
launching random walks off a Gaussian surface around each conductor and
terminating them by first passage on conductor surfaces (walk-on-spheres
hops, exact exterior-sphere transition, generalized antithetic variance
reduction).  No linear system is ever formed — memory is near zero, walks
are embarrassingly parallel, and accuracy is tunable through the walk
budget, with per-entry standard errors reported alongside the estimate.

Layout of the package:

* :mod:`repro.frw.scene` — flatten a layout into the arrays the sampler
  needs; build per-conductor Gaussian surfaces.
* :mod:`repro.frw.walks` — vectorised walks, a lockstep group of batches
  at a time.
* :mod:`repro.frw.estimator` — deterministic batch scheduling, process
  fan-out, mean/standard-error statistics.
* :mod:`repro.frw.backend` — the ``frw`` engine backend.
"""

from __future__ import annotations

from repro.frw.backend import FRWBackend
from repro.frw.estimator import FRWEstimate, estimate_capacitance
from repro.frw.scene import GaussianSurface, WalkScene, build_scene
from repro.frw.walks import WalkBatchResult, WalkGroupResult, run_walk_batch, run_walk_batches

__all__ = [
    "FRWBackend",
    "FRWEstimate",
    "GaussianSurface",
    "WalkBatchResult",
    "WalkGroupResult",
    "WalkScene",
    "build_scene",
    "estimate_capacitance",
    "run_walk_batch",
    "run_walk_batches",
]
