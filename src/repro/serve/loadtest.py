"""Zipf popularity model of repeated-layout extraction traffic.

Real extraction traffic is highly repetitive -- the same layout patterns
recur across chips and across users -- so load against the service is
modelled as a **Zipf-distributed** draw over a pool of distinct layouts:
rank ``k`` is requested with probability proportional to ``k**-s``.
``perfbench/service.py`` draws its open-loop request stream from
:func:`zipf_probabilities`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zipf_probabilities"]


def zipf_probabilities(pool_size: int, exponent: float = 1.1) -> np.ndarray:
    """Normalised Zipf weights over ranks ``1..pool_size`` (``p_k ~ k**-s``).

    >>> p = zipf_probabilities(4, 1.0)
    >>> [round(x, 3) for x in (p / p[-1])]
    [4.0, 2.0, 1.333, 1.0]
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    if exponent <= 0:
        raise ValueError(f"exponent must be > 0, got {exponent}")
    weights = np.arange(1, pool_size + 1, dtype=float) ** (-float(exponent))
    return weights / weights.sum()
