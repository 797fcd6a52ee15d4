"""Step 4 of AdaWave: connected components over surviving grid cells.

After threshold filtering the transformed grid set is small by
construction (M ≪ N — the paper's complexity argument rests on it), so
components are found on the driver: every cell shifted by every
neighbour offset is looked up among the cells in one sorted-row pass
(:func:`repro.core.cells.find_rows`), and ``label_components`` (a numpy
root-hooking kernel, shared with the DBSCAN baseline) merges the pairs
found. The dimension count picks the adjacency:

- d <= 3, Chebyshev: all 3^d - 1 neighbours (8-connectivity in 2-D, as
  WaveCluster uses);
- d > 3, face: cells sharing a (d-1)-face, i.e. coordinates differing by 1
  in exactly one dimension — M·d lookups, where 3^d would not scale.

``connected_components`` returns a label per input cell, 0..k-1.
"""
from __future__ import annotations

from itertools import product

import numpy as np

from repro.core.cells import find_rows, unique_rows

__all__ = ["label_components", "connected_components"]


def label_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each node's root, the smallest index in its component, for edges src--dst.

    Shiloach-Vishkin-style root hooking: each round hooks every edge's larger
    root onto its smaller one, then shortcuts ``lab = lab[lab]`` to a fixed
    point. Parents only point to smaller indices, so there are no cycles."""
    lab = np.arange(n, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    while True:
        a, b = lab[src], lab[dst]
        live = a != b
        if not live.any():
            return lab
        src, dst, a, b = src[live], dst[live], a[live], b[live]
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        while True:
            nxt = lab[lab]
            if np.array_equal(nxt, lab):
                break
            lab = nxt


def connected_components(cells: np.ndarray) -> np.ndarray:
    """Label connected components of a set of integer grid cells.

    ``cells`` is an (M, d) integer array of distinct cell coordinates.
    Returns an (M,) int array of component labels numbered 0..k-1 in order
    of first appearance (deterministic for a deterministic input order).
    """
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim != 2:
        raise ValueError("cells must be (M, d)")
    m, d = cells.shape
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    if len(unique_rows(cells)[0]) != m:
        raise ValueError("duplicate cells in input")

    if d <= 3:
        # Chebyshev, only the "positive" half of the offsets: each pair checked once
        offsets = np.array([o for o in product((-1, 0, 1), repeat=d) if o > (0,) * d], dtype=np.int64)
    else:
        offsets = np.eye(d, dtype=np.int64)  # face

    # cell i's neighbour at offset k is query row k·m + i
    dst = find_rows(cells, (offsets[:, None, :] + cells).reshape(-1, d))
    src = np.tile(np.arange(m), len(offsets))
    found = dst >= 0
    # roots are each component's smallest index, so their sorted order is
    # the order of first appearance
    return np.unique(label_components(m, src[found], dst[found]), return_inverse=True)[1]
