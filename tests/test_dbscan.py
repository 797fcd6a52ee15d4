"""Tests for the from-scratch DBSCAN (grid and brute-force paths)."""
from __future__ import annotations

import numpy as np
import pytest

import repro.baselines.dbscan as dbscan_mod
from repro.baselines.dbscan import (
    _MAX_NEIGHBORS,
    EPS_GRID,
    MIN_PTS,
    _neighbor_lists_brute,
    _neighbor_lists_grid,
    dbscan,
    dbscan_sweep,
)
from repro.datasets import uci_like
from repro.metrics.ami import ami


@pytest.fixture(scope="module")
def blobs():
    g = np.random.default_rng(0)
    X = np.vstack([g.normal(c, 0.03, (150, 2)) for c in [(0.2, 0.2), (0.8, 0.8)]])
    y = np.repeat([0, 1], 150)
    return X, y


def _pairs(src: np.ndarray, dst: np.ndarray) -> set[tuple[int, int]]:
    return set(zip(src.tolist(), dst.tolist()))


def _grid_oracle(X: np.ndarray, eps: float):
    """The grid path as it was with a dict of tuple-keyed cell buckets."""
    n, d = X.shape
    cells = np.floor(X / eps).astype(np.int64)
    buckets: dict[tuple, np.ndarray] = {}
    order = np.lexsort(cells.T[::-1])
    sorted_cells = cells[order]
    change = np.flatnonzero((np.diff(sorted_cells, axis=0) != 0).any(axis=1)) + 1
    for run in np.split(order, change):
        buckets[tuple(cells[run[0]])] = run
    offsets = np.stack(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij"), -1).reshape(-1, d)
    out: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    counts = np.zeros(n, dtype=np.int64)
    for cell, members in buckets.items():
        cand_list = []
        for off in offsets:
            b = buckets.get(tuple(np.asarray(cell) + off))
            if b is not None:
                cand_list.append(b)
        cand = np.concatenate(cand_list)
        C = X[cand]
        for i in members:
            nb = cand[((C - X[i]) ** 2).sum(axis=1) <= eps * eps]
            counts[i] = nb.size
            out[i] = nb[:_MAX_NEIGHBORS]
    return np.repeat(np.arange(n), [a.size for a in out]), np.concatenate(out), counts


def _brute_oracle(X: np.ndarray, eps: float, chunk: int = 2048):
    """The brute path as it was, with the rank mask applied to every chunk."""
    n = len(X)
    xx = (X * X).sum(axis=1)
    src, dst, counts = [], [], []
    for s in range(0, n, chunk):
        block = X[s : s + chunk]
        near = xx[s : s + chunk, None] + xx[None, :] - 2.0 * (block @ X.T) <= eps * eps
        rank = np.cumsum(near, axis=1, dtype=np.int32)
        counts.append(rank[:, -1])
        i, j = np.nonzero(near & (rank <= _MAX_NEIGHBORS))
        src.append(i + s)
        dst.append(j)
    return np.concatenate(src), np.concatenate(dst), np.concatenate(counts).astype(np.int64)


def _assert_same_lists(got, want):
    for g_, w in zip(got, want):
        assert g_.dtype == w.dtype and np.array_equal(g_, w)


def _grid_cases():
    """(kind, X, eps): random, tied, on cell edges and truncated, at d = 1, 2, 3."""
    g = np.random.default_rng(11)
    for d in (1, 2, 3):
        cases = [
            ("random", g.random((300, d)), 0.1),
            ("tied", g.integers(0, 5, (300, d)) * 0.05, 0.05),
            # coordinates that are exact multiples of eps sit on cell edges
            ("edges", g.integers(-6, 6, (250, d)) * 0.25, 0.25),
            ("truncated", np.vstack([g.normal(0.5, 0.02, (200, d)), g.random((100, d))]), 0.1),
        ]
        for kind, X, eps in cases:
            yield pytest.param(kind, X, eps, id=f"{kind}-{d}d")


class TestNeighborLists:
    def test_grid_equals_brute(self):
        g = np.random.default_rng(1)
        X = g.random((300, 2))
        eps = 0.07  # sparse enough that no list hits the truncation cap
        *grid, gc = next(_neighbor_lists_grid(X, [eps]))
        *brute, bc = _neighbor_lists_brute(X, [eps])[0]
        assert np.array_equal(gc, bc)
        assert _pairs(*grid) == _pairs(*brute)

    def test_grid_equals_brute_3d(self):
        g = np.random.default_rng(2)
        X = g.random((200, 3))
        eps = 0.15
        *grid, gc = next(_neighbor_lists_grid(X, [eps]))
        *brute, bc = _neighbor_lists_brute(X, [eps])[0]
        assert np.array_equal(gc, bc)
        assert _pairs(*grid) == _pairs(*brute)

    def test_self_always_neighbor(self):
        g = np.random.default_rng(3)
        X = g.random((50, 2))
        src, dst, counts = next(_neighbor_lists_grid(X, [0.05]))
        assert np.array_equal(src[src == dst], np.arange(50))
        assert np.array_equal(np.bincount(src), counts)  # no truncation at this density

    def test_counts_exact_when_lists_truncated(self):
        # a dense clump: exact counts must exceed the truncated list length
        g = np.random.default_rng(4)
        X = g.normal(0.5, 0.01, (300, 2))
        src, _, counts = next(_neighbor_lists_grid(X, [0.2]))
        assert counts.max() == 300
        assert np.bincount(src).max() <= 64
        # and the clump still comes out as ONE cluster despite truncation
        labels = dbscan(X, 0.2, 8)
        assert (labels == 0).all()


class TestNeighborListsExact:
    """Both paths give the old (src, dst, counts) arrays exactly, order included."""

    @pytest.mark.parametrize("kind,X,eps", list(_grid_cases()))
    def test_grid_matches_dict_oracle(self, kind, X, eps):
        want = _grid_oracle(X, eps)
        if kind == "truncated":
            assert want[2].max() > _MAX_NEIGHBORS
        _assert_same_lists(next(_neighbor_lists_grid(X, [eps])), want)

    def test_grid_lists_per_eps(self):
        # one call for several eps: each eps's lists equal those of its own call
        X = np.random.default_rng(14).random((300, 2))
        eps_values = [0.02, 0.05, 0.1]
        for eps, lists in zip(eps_values, _neighbor_lists_grid(X, eps_values)):
            _assert_same_lists(lists, _grid_oracle(X, eps))

    @pytest.mark.parametrize("d", [2, 5])
    def test_brute_matches_rank_oracle(self, d, monkeypatch):
        g = np.random.default_rng(12)
        # chunks of 100 rows: a dense clump only (every list truncated at
        # 64), clump and sparse rows, sparse rows only (none above 64)
        X = np.vstack([g.normal(0.0, 0.01, (150, d)), 10.0 + 5.0 * g.random((150, d))])
        want = _brute_oracle(X, 0.5, chunk=100)
        big = want[2] > _MAX_NEIGHBORS
        assert big[:150].all() and not big[150:].any()
        monkeypatch.setattr(dbscan_mod, "_CHUNK", 100)
        _assert_same_lists(_neighbor_lists_brute(X, [0.5])[0], want)


class TestDBSCAN:
    def test_two_blobs(self, blobs):
        X, y = blobs
        labels = dbscan(X, 0.05, 5)
        assert ami(y, labels) > 0.95

    def test_noise_detected(self, blobs):
        X, y = blobs
        g = np.random.default_rng(4)
        lonely = np.array([[0.5, 0.5]])  # isolated point
        labels = dbscan(np.vstack([X, lonely]), 0.05, 5)
        assert labels[-1] == -1

    @pytest.mark.parametrize("d", [2, 5], ids=["grid", "brute"])
    def test_empty_input(self, d):
        assert dbscan(np.zeros((0, d)), 0.1, 2).size == 0

    def test_all_noise_when_eps_tiny(self, blobs):
        X, _ = blobs
        labels = dbscan(X, 1e-9, 5)
        assert (labels == -1).all()

    def test_one_cluster_when_eps_huge(self, blobs):
        X, _ = blobs
        labels = dbscan(X, 10.0, 5)
        assert (labels == 0).all()

    def test_min_pts_matters(self):
        # a chain of 4 points, each within eps of the next
        X = np.array([[0.0, 0], [0.1, 0], [0.2, 0], [0.3, 0]])
        lab_loose = dbscan(X, 0.15, 2)
        lab_strict = dbscan(X, 0.15, 4)
        assert set(lab_loose) == {0}
        assert (lab_strict == -1).all()

    def test_deterministic(self, blobs):
        X, _ = blobs
        assert np.array_equal(dbscan(X, 0.05, 5), dbscan(X, 0.05, 5))

    def test_high_dim_brute_path(self):
        g = np.random.default_rng(5)
        X = np.vstack([g.normal(c, 0.1, (60, 5)) for c in [np.zeros(5), np.ones(5) * 3]])
        y = np.repeat([0, 1], 60)
        labels = dbscan(X, 0.8, 5)
        assert ami(y, labels) > 0.9

    def test_rings_where_kmeans_fails(self):
        # DBSCAN's signature capability: concentric rings
        g = np.random.default_rng(6)
        t1, t2 = g.uniform(0, 2 * np.pi, 400), g.uniform(0, 2 * np.pi, 400)
        inner = 0.2 * np.column_stack([np.cos(t1), np.sin(t1)])
        outer = 0.8 * np.column_stack([np.cos(t2), np.sin(t2)])
        X = np.vstack([inner, outer]) + g.normal(0, 0.01, (800, 2))
        y = np.repeat([0, 1], 400)
        labels = dbscan(X, 0.1, 5)
        assert ami(y, labels) > 0.95
        from repro.baselines.api import kmeans_np

        km, _ = kmeans_np(X, 2, seed=0)
        assert ami(y, km) < 0.2


class TestSweep:
    def test_returns_best(self, blobs):
        X, y = blobs
        labels, eps, score = dbscan_sweep(X, y)
        assert score > 0.9
        assert 0.01 <= eps <= 0.2

    def test_eval_mask_restricts_scoring(self, blobs):
        X, y = blobs
        mask = np.zeros(len(X), dtype=bool)
        mask[:200] = True
        _, _, score = dbscan_sweep(X, y, eval_mask=mask)
        assert -1e-9 <= score <= 1.0 + 1e-9  # fp slack on exact matches

    @pytest.mark.parametrize("d", [2, 5], ids=["grid", "brute"])
    def test_empty_input_raises(self, d):
        with pytest.raises(ValueError):
            dbscan_sweep(np.zeros((0, d)), np.zeros(0, dtype=np.int64))


def _sweep_oracle(X, labels_true):
    """The paper's protocol written out: each column mapped to [0, 1] on its
    own (a constant one divided by 1), ``EPS_GRID`` widened by sqrt(d / 2)
    past d = 2, then one ``dbscan`` call per eps in order with the early
    stop. Returns the best (labels, eps, AMI) and the labellings it ran."""
    n, d = X.shape
    Xn = np.empty_like(X)
    for j in range(d):
        lo, hi = X[:, j].min(), X[:, j].max()
        Xn[:, j] = (X[:, j] - lo) / (hi - lo if hi > lo else 1.0)
    best, ran = None, []
    for eps in (dbscan_mod.EPS_GRID * np.sqrt(max(1.0, d / 2.0))).tolist():
        lab = dbscan(Xn, eps, MIN_PTS)
        ran.append(lab)
        score = ami(labels_true, lab)
        if best is None or score > best[2]:
            best = (lab, eps, score)
        clustered = lab >= 0
        if clustered.any() and np.bincount(lab[clustered]).max() >= 0.95 * n:
            break
    return best, ran


def _assert_same_sweep(got, want):
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def _protocol_cases():
    """(path, X, y) in raw units: motor on the grid path, and on the brute
    path five dimensions of mixed spans, one of them constant."""
    yield pytest.param("grid", *uci_like.make("motor"), id="grid-motor")
    g = np.random.default_rng(15)
    X = np.vstack([g.normal(c, 0.05, (120, 5)) for c in (0.2, 0.5, 0.8)] + [g.random((80, 5))])
    X = X * [1.0, 10.0, 1e3, 1e-2, 0.0] + [0.0, -5.0, 40.0, 1.0, 7.0]
    yield pytest.param("brute", X, np.repeat([0, 1, 2, 3], [120, 120, 120, 80]), id="brute-5d")


class TestSweepProtocol:
    """``dbscan_sweep`` applies the whole protocol to raw data."""

    @pytest.mark.parametrize("path,X,y", list(_protocol_cases()))
    def test_raw_data_matches_protocol_oracle(self, path, X, y):
        assert (X.shape[1] <= 3) == (path == "grid")
        want, _ = _sweep_oracle(X, y)
        _assert_same_sweep(dbscan_sweep(X, y), want)
        assert want[1] in (EPS_GRID * np.sqrt(max(1.0, X.shape[1] / 2.0))).tolist()


class TestSweepScoresOncePerLabelling:
    """The sweep scores a labelling equal to the last eps's once; the result
    is that of scoring every eps."""

    @pytest.mark.parametrize("name", ["motor", "iris"])
    def test_matches_scoring_every_eps(self, name, monkeypatch):
        X, y = uci_like.make(name)
        want, labellings = _sweep_oracle(X, y)
        distinct = 1 + sum(not np.array_equal(a, b) for a, b in zip(labellings, labellings[1:]))
        scored = []
        monkeypatch.setattr(dbscan_mod, "ami", lambda t, p: scored.append(p) or ami(t, p))
        _assert_same_sweep(dbscan_sweep(X, y), want)
        assert len(scored) == distinct < len(labellings)


def _brute_sweep_cases():
    """(name, X, y, the ``EPS_GRID`` swept) on the brute path (d > 3)."""
    g = np.random.default_rng(13)
    d = 5
    # three blobs in noise: the sweep runs to the end of the grid
    X = np.vstack([g.normal(c, 0.03, (100, d)) for c in (0.2, 0.5, 0.8)] + [g.random((60, d))])
    y = np.repeat([0, 1, 2, 3], [100, 100, 100, 60])
    yield "blobs", X, y, EPS_GRID[:8]
    # one blob that swallows nearly every point part-way through the grid
    X = np.vstack([g.normal(0.5, 0.05, (290, d)), g.random((10, d))])
    yield "stops-early", X, np.repeat([0, 1], [290, 10]), EPS_GRID


class TestSweepBatched:
    """The brute path's batched sweep against one ``dbscan`` call per eps."""

    @pytest.mark.parametrize("per_batch", [1, 3, 20])
    @pytest.mark.parametrize("name,X,y,grid", list(_brute_sweep_cases()))
    def test_matches_per_eps_loop(self, name, X, y, grid, per_batch, monkeypatch):
        monkeypatch.setattr(dbscan_mod, "EPS_GRID", grid)
        monkeypatch.setattr(dbscan_mod, "_SWEEP_ENTRIES", per_batch * len(X) * _MAX_NEIGHBORS)
        real = dbscan_mod._neighbor_lists_brute
        passes = []

        def spy(X_, eps_values):
            passes.append(len(eps_values))
            return real(X_, eps_values)

        monkeypatch.setattr(dbscan_mod, "_neighbor_lists_brute", spy)
        want, labellings = _sweep_oracle(X, y)
        ran = len(labellings)
        assert (ran < len(grid)) == (name == "stops-early")
        passes.clear()
        _assert_same_sweep(dbscan_sweep(X, y), want)
        # one distance pass per batch, and no batch past the early stop
        assert passes == [min(per_batch, len(grid) - b) for b in range(0, ran, per_batch)]

    def test_grid_builds_no_list_past_the_stop(self, monkeypatch):
        # the whole grid is one batch at n = 300, but the grid path has no
        # pass to share and builds each eps's lists when the sweep asks
        g = np.random.default_rng(16)
        X = np.vstack([g.normal(0.5, 0.05, (290, 2)), g.random((10, 2))])
        y = np.repeat([0, 1], [290, 10])
        want, labellings = _sweep_oracle(X, y)
        assert len(labellings) < len(EPS_GRID)
        # the grid path grids the points once per eps it builds
        real, built = dbscan_mod.unique_rows, []
        monkeypatch.setattr(dbscan_mod, "unique_rows", lambda a: built.append(1) or real(a))
        _assert_same_sweep(dbscan_sweep(X, y), want)
        assert len(built) == len(labellings)

    @pytest.mark.parametrize("name,X,y,grid", list(_brute_sweep_cases()))
    def test_lists_span_chunks(self, name, X, y, grid, monkeypatch):
        # several chunks: each eps's lists equal those of its own pass
        monkeypatch.setattr(dbscan_mod, "_CHUNK", 64)
        eps_values = (grid * np.sqrt(X.shape[1] / 2.0)).tolist()
        for eps, lists in zip(eps_values, _neighbor_lists_brute(X, eps_values)):
            _assert_same_lists(lists, _brute_oracle(X, eps, chunk=64))
