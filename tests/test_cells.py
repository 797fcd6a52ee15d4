"""Unit tests for the sorted-row helpers behind the driver-side grid stages."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.cells import find_rows, unique_rows

DIMS = [1, 2, 9, 33]


def _rows(d: int, m: int, seed: int) -> np.ndarray:
    """m rows with negative coordinates and many duplicates."""
    g = np.random.default_rng([d, m, seed])
    return g.integers(-3, 4 if d > 2 else 40, (m, d))


class TestUniqueRows:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("m", [0, 1, 7, 500])
    def test_matches_np_unique(self, d, m):
        rows = _rows(d, m, 0)
        if m > 1:
            rows[m // 2] = rows[0]  # at least one duplicate
        want, want_inv = np.unique(rows, axis=0, return_inverse=True)
        got, inv = unique_rows(rows)
        assert got.shape == want.shape and got.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(inv, want_inv.ravel()) and inv.dtype == np.int64

    def test_wide_coordinates(self):
        # spans too wide to pack several columns into one int64 key
        top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        rows = np.array([[top, bottom, 0], [bottom, top, 1], [0, 0, -1], [bottom, top, 1], [top, 5, 2]])
        want, want_inv = np.unique(rows, axis=0, return_inverse=True)
        got, inv = unique_rows(rows)
        assert np.array_equal(got, want) and np.array_equal(inv, want_inv.ravel())

    def test_input_untouched(self):
        rows = _rows(2, 50, 1)
        before = rows.copy()
        unique_rows(rows)
        assert np.array_equal(rows, before)


class TestFindRows:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("m,q", [(0, 0), (0, 5), (5, 0), (40, 300)])
    def test_matches_brute_force(self, d, m, q):
        table = unique_rows(_rows(d, m, 2))[0]
        table = table[np.random.default_rng(d).permutation(len(table))]  # any order
        queries = np.concatenate([_rows(d, q, 3), table[: q // 2]])  # hits and misses
        want = [next((i for i, row in enumerate(table.tolist()) if row == query), -1)
                for query in queries.tolist()]
        got = find_rows(table, queries)
        assert got.dtype == np.int64 and got.tolist() == want
