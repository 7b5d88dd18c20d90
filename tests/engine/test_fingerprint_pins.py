"""Literal request fingerprints of the four Galerkin backend names.

The result store and the service cache key every result by
:func:`~repro.engine.fingerprint.request_fingerprint`.  These digests were
recorded before the four names were folded onto one Galerkin pipeline, so a
change that moves a cached key — a renamed backend, a translated option, a
new canonical form — fails here instead of silently missing every stored
result.
"""

from __future__ import annotations

import pytest

from repro.engine import ExtractionRequest
from repro.engine.fingerprint import request_fingerprint
from repro.geometry import generators

PINNED = [
    ("instantiable", {}, "675c9452f57d79f164e21f445ddf34f7d8077d21ee2b9e285c47084db9cccf8f"),
    ("galerkin-shared", {}, "ded909bc5fdcc4e7386b7bb33d8e677fc6ea30557aeba1def7c1efa8ba4c4e8a"),
    ("galerkin-distributed", {}, "f1270eacf4fd9ef24ce52d65e99cb43cc82183438445886ac221b622606fad4b"),
    ("galerkin-aca", {}, "d9c00ac8666c22e44a84a431b45337943e8f747d24180038f07469c6073bb4a0"),
    (
        "galerkin-shared",
        {"workers": 2, "executor": "process"},
        "4f2bd052699f3f496129168e9f4cf4f7bbf11c2bd35dba7d5587af2d82bcb120",
    ),
    (
        "galerkin-distributed",
        {"workers": 2, "executor": "process"},
        "9defd05e75d79c5dc40ec42801448c6cc05c7225fd91caab00614b936d192a4d",
    ),
    (
        "galerkin-aca",
        {"executor": "thread", "num_workers": 2, "face_refinement": 2},
        "31dd61ec8547e3e8b4f726ed59fcfe9892bfb617a5adfd406e3217c1b6af505c",
    ),
    (
        "instantiable",
        {"parallel_mode": "shared_memory", "use_processes": True, "num_nodes": 2},
        "28c15036fb12573090200f46fc88ccb4f26448000b20a2a7484c8848989aa158",
    ),
]


@pytest.mark.parametrize("backend, options, digest", PINNED)
def test_request_fingerprint_is_pinned(backend, options, digest):
    layout = generators.crossing_wires()
    assert request_fingerprint(layout, backend, options) == digest
    assert ExtractionRequest(layout, backend, dict(options)).fingerprint() == digest
