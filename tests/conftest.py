"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import generators
from repro.geometry.layout import VACUUM_PERMITTIVITY


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test, so no test's draws depend on
    which tests ran before it."""
    return np.random.default_rng(20110605)


@pytest.fixture(scope="session")
def crossing_layout():
    """The elementary two-wire crossing (Figure 1)."""
    return generators.crossing_wires()

@pytest.fixture(scope="session")
def small_bus_layout():
    """A small 3x3 crossing bus."""
    return generators.bus_crossing(3, 3)


@pytest.fixture(scope="session")
def permittivity() -> float:
    """Vacuum permittivity."""
    return VACUUM_PERMITTIVITY
