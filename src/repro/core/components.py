"""Step 4 of AdaWave: connected components over surviving grid cells.

After threshold filtering the transformed grid set is small by
construction (M ≪ N — the paper's complexity argument rests on it), so
components are found on the driver: neighbour pairs come from a hash set
of cells, and ``label_components`` (a numpy root-hooking kernel, shared
with the DBSCAN baseline) merges them. Two adjacency notions:

- ``"face"``: cells sharing a (d-1)-face, i.e. coordinates differing by 1
  in exactly one dimension — O(M·d) lookups, usable at any d.
- ``"chebyshev"``: all 3^d - 1 neighbours (8-connectivity in 2-D, as
  WaveCluster uses) — only sensible for small d.

``connected_components`` returns a label per input cell, 0..k-1.
"""
from __future__ import annotations

from itertools import product

import numpy as np

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


def connected_components(
    cells: np.ndarray, adjacency: str = "auto"
) -> np.ndarray:
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
    if adjacency == "auto":
        adjacency = "chebyshev" if d <= 3 else "face"
    index = {tuple(row): i for i, row in enumerate(cells.tolist())}
    if len(index) != m:
        raise ValueError("duplicate cells in input")

    if adjacency == "face":
        offsets = []
        for j in range(d):
            off = [0] * d
            off[j] = 1
            offsets.append(tuple(off))
    elif adjacency == "chebyshev":
        offsets = [o for o in product((-1, 0, 1), repeat=d) if any(o) and o > tuple([0] * d)]
        # only "positive" half of the offsets: each pair checked once
    else:
        raise ValueError(f"unknown adjacency {adjacency!r}")

    src, dst = [], []
    for cell, i in index.items():
        for off in offsets:
            j = index.get(tuple(c + o for c, o in zip(cell, off)))
            if j is not None:
                src.append(i)
                dst.append(j)
    # roots are each component's smallest index, so their sorted order is
    # the order of first appearance
    return np.unique(label_components(m, src, dst), return_inverse=True)[1]
