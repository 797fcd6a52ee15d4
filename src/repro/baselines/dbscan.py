"""DBSCAN baseline (density family), from scratch.

Classic Ester et al. 1996 semantics: core points have >= ``min_pts``
neighbours within ``eps`` (self included, sklearn convention); clusters
are the connected components of core points under the eps-neighbour
relation; border points attach to any neighbouring core's cluster; the
rest is noise (-1).

Neighbour search is grid-accelerated in up to three dimensions (cells of
side eps; only the 3^d adjacent cells are scanned) and chunked
brute-force otherwise — the paper's own automation protocol is a
20-value eps sweep, so per-run cost matters. ``dbscan_sweep`` is that
protocol, and the only place it is defined: each dimension mapped to
[0, 1], minPts = ``MIN_PTS``, eps over ``EPS_GRID`` widened with the
dimension count, best AMI wins.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.cells import find_rows, unique_rows
from repro.core.components import label_components
from repro.metrics.ami import ami

__all__ = ["MIN_PTS", "EPS_GRID", "dbscan", "dbscan_sweep"]

# the paper's automation protocol: minPts = 8, eps in {0.01, 0.02, ..., 0.2}
MIN_PTS = 8
EPS_GRID = np.arange(0.01, 0.201, 0.01)


# Neighbour lists are truncated to this many entries per point. Core
# status uses the *exact* count; the truncated list only feeds border
# attachment and core-core components, where overlapping neighbourhoods
# keep dense regions connected regardless (bounds memory to O(n * K)
# instead of O(sum of neighbourhood sizes), which explodes in dense blobs).
_MAX_NEIGHBORS = 64

# The sweep asks for the lists of as many eps values at once as fit this
# many list entries at _MAX_NEIGHBORS per point (64 MB of src/dst): the
# whole 20-value grid up to n = 3276, one eps from n = 32 769. The brute
# path builds a batch from one pass of distances. Lists built past the
# sweep's early stop are wasted, and at large eps they cost more than a
# distance pass, so a batch is not the whole grid at any n.
_SWEEP_ENTRIES = 1 << 22

# rows of the brute path's distance block
_CHUNK = 2048

# (src, dst, exact counts): the truncated neighbour list of each point i,
# concatenated in order of i (``src`` is i, ``dst`` the neighbour)
_Lists = tuple[np.ndarray, np.ndarray, np.ndarray]


def _neighbor_lists_grid(X: np.ndarray, eps_values: Sequence[float]) -> Iterator[_Lists]:
    """The lists for each of ``eps_values``, via an eps-sized grid. They
    share no work, so each is built only when the caller asks for it: a
    sweep that stops early builds no list past its stop."""
    n, d = X.shape
    offsets = np.stack(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij"), -1).reshape(-1, d)
    for eps in eps_values:
        occupied, inverse = unique_rows(np.floor(X / eps).astype(np.int64))
        # each occupied cell's points, in increasing index order
        runs = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
        # run index of each occupied cell's 3^d neighbour cells, -1 if empty
        adjacent = find_rows(occupied, (occupied[:, None, :] + offsets).reshape(-1, d))
        eps2 = eps * eps
        out: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        counts = np.zeros(n, dtype=np.int64)
        for members, nb_runs in zip(runs, adjacent.reshape(len(runs), -1).tolist()):
            cand = np.concatenate([runs[r] for r in nb_runs if r >= 0])
            C = X[cand]
            for i in members:
                d2 = ((C - X[i]) ** 2).sum(axis=1)
                nb = cand[d2 <= eps2]
                counts[i] = nb.size
                out[i] = nb[:_MAX_NEIGHBORS]
        yield np.repeat(np.arange(n), [a.size for a in out]), np.concatenate(out), counts


def _neighbor_lists_brute(X: np.ndarray, eps_values: Sequence[float]) -> list[_Lists]:
    """The lists for each of ``eps_values``, by chunked brute force from one
    pass of distances; each point's list is in increasing index order."""
    n = len(X)
    xx = (X * X).sum(axis=1)
    parts = [([], [], []) for _ in eps_values]
    # one set of chunk-sized buffers for the whole pass: fresh ones would be
    # page-faulted in again for every chunk and every eps
    rows = min(_CHUNK, n)
    prod, dist, near_buf = np.empty((rows, n)), np.empty((rows, n)), np.empty((rows, n), dtype=bool)
    for s in range(0, n, _CHUNK):
        block = X[s : s + _CHUNK]
        r = len(block)
        # xx_s + xx - 2 (block @ X.T), evaluated in that order
        twice = np.matmul(block, X.T, out=prod[:r])
        twice *= 2.0
        d2 = np.add(xx[s : s + _CHUNK, None], xx[None, :], out=dist[:r])
        d2 -= twice
        for eps, (src, dst, counts) in zip(eps_values, parts):
            near = np.less_equal(d2, eps * eps, out=near_buf[:r])
            cnt = np.count_nonzero(near, axis=1)
            counts.append(cnt)
            # row-major positions: np.nonzero(near)'s order, without its 2-D cost
            pos = np.flatnonzero(near)
            big = cnt > _MAX_NEIGHBORS
            if big.any():
                # a big row's positions past its first _MAX_NEIGHBORS are
                # [end - cnt + _MAX_NEIGHBORS, end): mark each range's two
                # edges, and the running sum is 1 inside a range
                end = np.cumsum(cnt)[big]
                edge = np.zeros(pos.size + 1, dtype=np.int8)
                edge[end - cnt[big] + _MAX_NEIGHBORS] = 1
                edge[end] = -1
                pos = pos[np.cumsum(edge[:-1], dtype=np.int8) == 0]
            i, j = np.divmod(pos, n)
            src.append(i + s)
            dst.append(j)
    return [
        (np.concatenate(src), np.concatenate(dst), np.concatenate(counts).astype(np.int64))
        for src, dst, counts in parts
    ]


def _label(
    n: int, src: np.ndarray, dst: np.ndarray, counts: np.ndarray, min_pts: int
) -> np.ndarray:
    """DBSCAN labels from the neighbour lists and exact neighbour counts."""
    core = counts >= min_pts
    to_core = core[dst]

    # clusters numbered by their first core point
    both = core[src] & to_core
    root = label_components(n, src[both], dst[both])
    labels = np.full(n, -1, dtype=np.int64)
    labels[core] = np.unique(root[core], return_inverse=True)[1]
    # border points: attach to the first core neighbour's cluster
    border = ~core[src] & to_core
    bsrc, bdst = src[border], dst[border]
    first = np.unique(bsrc, return_index=True)[1]
    labels[bsrc[first]] = labels[bdst[first]]
    return labels


def _sweep_lists(X: np.ndarray, eps_values: list[float]) -> Iterator[_Lists]:
    """The neighbour lists of non-empty X for each of ``eps_values`` in turn.
    A batch of eps values is asked for only when the caller asks for its
    first lists."""
    n, d = X.shape
    neighbor_lists = _neighbor_lists_grid if d <= 3 else _neighbor_lists_brute
    step = max(1, _SWEEP_ENTRIES // (n * _MAX_NEIGHBORS))
    for b in range(0, len(eps_values), step):
        yield from neighbor_lists(X, eps_values[b : b + step])


def dbscan(X: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Labels in 0..k-1, noise = -1. Deterministic."""
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    return _label(n, *next(_sweep_lists(X, [eps])), min_pts)


def dbscan_sweep(
    X: np.ndarray, labels_true: np.ndarray, *, eval_mask: np.ndarray | None = None
) -> tuple[np.ndarray, float, float]:
    """The paper's automation: minPts = ``MIN_PTS``, sweep eps, keep the best AMI.

    Returns (best_labels, best_eps, best_ami), ``best_eps`` in units of the
    [0, 1]-scaled data. ``eval_mask`` restricts the AMI computation (the
    synthetic experiment scores non-noise points only).
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if eval_mask is None:
        eval_mask = np.ones(n, dtype=bool)
    # EPS_GRID presumes unit-scaled data: map each dimension to [0, 1] and
    # widen the grid with d (unit-cube diameters grow as sqrt(d))
    lo, hi = X.min(axis=0), X.max(axis=0)
    X = (X - lo) / np.where(hi > lo, hi - lo, 1.0)
    eps_values = (EPS_GRID * np.sqrt(max(1.0, d / 2.0))).tolist()
    best: tuple[np.ndarray, float, float] | None = None
    last = None
    for eps, lists in zip(eps_values, _sweep_lists(X, eps_values)):
        lab = _label(n, *lists, MIN_PTS)
        # the AMI is a function of the labels and an equal score never
        # replaces the best, so the labels of the last eps again change nothing
        if last is not None and np.array_equal(lab, last):
            continue
        last = lab
        score = ami(labels_true[eval_mask], lab[eval_mask])
        if best is None or score > best[2]:
            best = (lab, eps, score)
        # DBSCAN is monotone in eps towards one giant component: once a
        # single cluster swallows nearly everything, larger eps can only
        # make it worse (and each run gets drastically more expensive, as
        # neighbourhood sizes grow with eps^d)
        clustered = lab >= 0
        if clustered.any():
            top = np.bincount(lab[clustered]).max()
            if top >= 0.95 * n:
                break
    return best
