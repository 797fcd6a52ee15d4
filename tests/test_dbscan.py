"""Tests for the from-scratch DBSCAN (grid and brute-force paths)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dbscan import _neighbor_lists_brute, _neighbor_lists_grid, dbscan, dbscan_sweep
from repro.metrics.ami import ami


@pytest.fixture(scope="module")
def blobs():
    g = np.random.default_rng(0)
    X = np.vstack([g.normal(c, 0.03, (150, 2)) for c in [(0.2, 0.2), (0.8, 0.8)]])
    y = np.repeat([0, 1], 150)
    return X, y


def _pairs(src: np.ndarray, dst: np.ndarray) -> set[tuple[int, int]]:
    return set(zip(src.tolist(), dst.tolist()))


class TestNeighborLists:
    def test_grid_equals_brute(self):
        g = np.random.default_rng(1)
        X = g.random((300, 2))
        eps = 0.07  # sparse enough that no list hits the truncation cap
        *grid, gc = _neighbor_lists_grid(X, eps)
        *brute, bc = _neighbor_lists_brute(X, eps)
        assert np.array_equal(gc, bc)
        assert _pairs(*grid) == _pairs(*brute)

    def test_grid_equals_brute_3d(self):
        g = np.random.default_rng(2)
        X = g.random((200, 3))
        eps = 0.15
        *grid, gc = _neighbor_lists_grid(X, eps)
        *brute, bc = _neighbor_lists_brute(X, eps)
        assert np.array_equal(gc, bc)
        assert _pairs(*grid) == _pairs(*brute)

    def test_self_always_neighbor(self):
        g = np.random.default_rng(3)
        X = g.random((50, 2))
        src, dst, counts = _neighbor_lists_grid(X, 0.05)
        assert np.array_equal(src[src == dst], np.arange(50))
        assert np.array_equal(np.bincount(src), counts)  # no truncation at this density

    def test_counts_exact_when_lists_truncated(self):
        # a dense clump: exact counts must exceed the truncated list length
        g = np.random.default_rng(4)
        X = g.normal(0.5, 0.01, (300, 2))
        src, _, counts = _neighbor_lists_grid(X, 0.2)
        assert counts.max() == 300
        assert np.bincount(src).max() <= 64
        # and the clump still comes out as ONE cluster despite truncation
        labels = dbscan(X, 0.2, 8)
        assert (labels == 0).all()


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
        labels, eps, score = dbscan_sweep(X, y, min_pts=5)
        assert score > 0.9
        assert 0.01 <= eps <= 0.2

    def test_eval_mask_restricts_scoring(self, blobs):
        X, y = blobs
        mask = np.zeros(len(X), dtype=bool)
        mask[:200] = True
        _, _, score = dbscan_sweep(X, y, min_pts=5, eval_mask=mask)
        assert -1e-9 <= score <= 1.0 + 1e-9  # fp slack on exact matches

    def test_custom_grid(self, blobs):
        X, y = blobs
        _, eps, _ = dbscan_sweep(X, y, eps_grid=np.array([0.05]))
        assert eps == 0.05
