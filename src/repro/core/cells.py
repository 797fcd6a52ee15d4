"""Sorted integer rows: the grid-cell bookkeeping of the driver-side stages.

A grid cell is a row of d integer coordinates. Merging cells that map to
the same coordinates (the DWT's contributions, a coarsened grid) and
finding a cell's neighbours both sort the rows lexicographically and
compare adjacent ones, in place of ``np.unique(axis=0)``'s structured-row
sort and of a Python dict of tuples. Grid coordinates span few values per
column, so runs of adjacent columns pack into one int64 key each (mixed
radix, column 0 most significant) and ``np.lexsort`` sorts a few keys.
"""
from __future__ import annotations

import numpy as np

__all__ = ["unique_rows", "find_rows"]

_INT64_VALUES = 2**63  # non-negative int64 values: the room one packed key has


def _keys(rows: np.ndarray) -> list[np.ndarray]:
    """int64 key columns that order as ``rows`` does, lexicographically."""
    lo, hi = rows.min(axis=0).tolist(), rows.max(axis=0).tolist()
    keys, size = [], 0  # size: the number of values the last key can take
    for j, (a, b) in enumerate(zip(lo, hi)):
        span = b - a + 1
        if keys and size * span <= _INT64_VALUES:
            keys[-1] = keys[-1] * span + (rows[:, j] - a)
            size *= span
        else:  # a column too wide to offset keeps its own values
            keys.append(rows[:, j] - a if span <= _INT64_VALUES else rows[:, j])
            size = span
    return keys


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct rows of an (M, d) int array and each row's index into them.

    The same rows and inverse as ``np.unique(rows, axis=0,
    return_inverse=True)``: rows sort lexicographically, column 0 first.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if not len(rows):
        return rows.copy(), np.zeros(0, dtype=np.int64)
    keys = np.stack(_keys(rows))
    order = np.lexsort(keys[::-1])
    ordered = keys[:, order]
    first = np.r_[True, (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)]  # of a run of equal rows
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return rows[order[first]], inverse


def find_rows(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of each query row in ``table`` (distinct rows, any order), or -1."""
    _, inverse = unique_rows(np.concatenate([table, queries]))
    at = np.full(len(table) + len(queries), -1, dtype=np.int64)
    at[inverse[: len(table)]] = np.arange(len(table))
    return at[inverse[len(table):]]
