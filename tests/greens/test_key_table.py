"""The key table of the batched kernel core.

:meth:`BatchedKernelCore.evaluate_pairs` looks the distinct keys of every
call up in a table held by the core and evaluates only the keys it does not
hold.  A value is a pure function of its key, so answers from the table are
bit-identical to a cold evaluation whatever the order, batching or thread
that filled it.  These tests assert work counts and values only.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from repro.assembly.batch import BatchGalerkinAssembler
from repro.assembly.mapping import triangular_index_to_pair
from repro.basis import build_basis_set
from repro.geometry import generators
from repro.greens import batched
from repro.greens.batched import BatchedKernelCore


def _core() -> BatchedKernelCore:
    layout = generators.bus_crossing(3, 3)
    return BatchGalerkinAssembler(build_basis_set(layout), layout.permittivity).core


@lru_cache(maxsize=None)
def _cold() -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every pair of a bus 3x3 in both orders, in one call on a fresh core."""
    core = _core()
    upper_i, upper_j = triangular_index_to_pair(np.arange(core.arrays.num_pairs))
    i = np.concatenate([upper_i, upper_j])
    j = np.concatenate([upper_j, upper_i])
    evaluated: dict[str, int] = {}
    values = core.evaluate_pairs(i, j, evaluated=evaluated)
    return i, j, values, sum(evaluated.values())


def _in_shuffled_batches(core, i, j, seed, batches=7):
    """Evaluate every pair once, in shuffled sub-batches; values in pair order."""
    order = np.random.default_rng(seed).permutation(i.size)
    values = np.empty(i.size)
    evaluated: dict[str, int] = {}
    for part in np.array_split(order, batches):
        values[part] = core.evaluate_pairs(i[part], j[part], evaluated=evaluated)
    return values, sum(evaluated.values())


class TestWarmTable:
    def test_shuffled_sub_batches_match_a_cold_call(self):
        i, j, cold, cold_evaluated = _cold()
        core = _core()
        values, evaluated = _in_shuffled_batches(core, i, j, seed=1)
        np.testing.assert_array_equal(values, cold)
        # Each key is evaluated once across the sub-batches, as in one call.
        assert evaluated == cold_evaluated == core.table_size

    def test_repeated_keys_report_nothing_evaluated(self):
        i, j, cold, _ = _cold()
        core = _core()
        _in_shuffled_batches(core, i, j, seed=2)
        requested: dict[str, int] = {}
        evaluated: dict[str, int] = {}
        values = core.evaluate_pairs(i, j, counts=requested, evaluated=evaluated)
        np.testing.assert_array_equal(values, cold)
        assert sum(requested.values()) == i.size
        assert sum(evaluated.values()) == 0
        assert sum(core.last_evaluated().values()) == 0

    def test_cleared_table_evaluates_again(self):
        i, j, cold, cold_evaluated = _cold()
        core = _core()
        core.evaluate_pairs(i, j)
        core.clear_table()
        assert core.table_size == 0
        evaluated: dict[str, int] = {}
        np.testing.assert_array_equal(core.evaluate_pairs(i, j, evaluated=evaluated), cold)
        assert sum(evaluated.values()) == cold_evaluated

    def test_hash_collisions_cost_evaluations_not_values(self, monkeypatch):
        """Every key hashing alike: the full-row check keeps values exact."""
        i, j, cold, _ = _cold()
        monkeypatch.setattr(
            batched, "_hash_rows", lambda columns: np.zeros(columns[0].size, dtype=np.uint64)
        )
        core = _core()
        first, _ = _in_shuffled_batches(core, i, j, seed=3)
        second, _ = _in_shuffled_batches(core, i, j, seed=4)
        np.testing.assert_array_equal(first, cold)
        np.testing.assert_array_equal(second, cold)
        # One hash, so one slot: the table holds a single key.
        assert core.table_size == 1


def _in_threads(job, jobs, workers=4):
    """Results of ``job(x)`` for each of ``jobs``, on more threads than cores,
    switching between them as often as the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(job, x) for x in jobs]
            return [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)


class TestThreads:
    def test_concurrent_merges_lose_no_key(self):
        """Four threads merge disjoint keys and fold them in as they go."""
        rng = np.random.default_rng(8)
        columns = [rng.integers(0, 2**40, 4000) for _ in range(6)]
        hashes = batched._hash_rows(columns)
        rows = batched._key_rows(columns)
        values = rng.normal(size=4000)
        table = batched._KeyTable()

        def merge_and_fold(offset):
            for part in np.array_split(np.arange(offset, 4000, 4), 50):
                table.merge(hashes[part], rows[part], values[part])
                table.lookup(hashes[:1], rows[:1])

        _in_threads(merge_and_fold, range(4))
        hit, found = table.lookup(hashes, rows)
        assert hit.all()
        np.testing.assert_array_equal(found, values)
        assert len(table) == 4000

    def test_four_threads_on_one_core_match_a_serial_call(self):
        i, j, cold, cold_evaluated = _cold()
        core = _core()
        results = _in_threads(lambda seed: _in_shuffled_batches(core, i, j, seed, 25), range(4))
        for values, _ in results:
            np.testing.assert_array_equal(values, cold)
        # A key may be evaluated by several threads before one merges it,
        # but the table keeps exactly one copy of each.
        assert sum(evaluated for _, evaluated in results) >= cold_evaluated
        assert core.table_size == cold_evaluated
