"""Tests for the remaining from-scratch baselines: STSC, DipMeans, RIC."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.baselines.dipmeans as dipmeans_mod
from repro.baselines.api import kmeans_np, pairwise_sq_dists
from repro.baselines.dipmeans import dipmeans
from repro.baselines.ric import ric
from repro.baselines.stsc import stsc
from repro.datasets import uci_like
from repro.metrics.ami import ami
from repro.stats.dip import dip


@pytest.fixture(scope="module")
def blobs3():
    g = np.random.default_rng(0)
    X = np.vstack([g.normal(c, 0.05, (150, 2)) for c in [(0, 0), (1, 0), (0, 1)]])
    y = np.repeat([0, 1, 2], 150)
    return X, y


class TestSTSC:
    def test_given_k(self, blobs3):
        X, y = blobs3
        assert ami(y, stsc(X, 3)) > 0.95

    def test_rings(self):
        # spectral clustering's signature: concentric rings with local sigma
        g = np.random.default_rng(1)
        t = g.uniform(0, 2 * np.pi, (2, 400))
        inner = 0.3 * np.column_stack([np.cos(t[0]), np.sin(t[0])])
        outer = 1.0 * np.column_stack([np.cos(t[1]), np.sin(t[1])])
        X = np.vstack([inner, outer]) + g.normal(0, 0.01, (800, 2))
        y = np.repeat([0, 1], 400)
        assert ami(y, stsc(X, 2)) > 0.9

    def test_deterministic(self, blobs3):
        X, _ = blobs3
        assert np.array_equal(stsc(X, 3), stsc(X, 3))


class TestDipMeans:
    def test_finds_three_blobs(self, blobs3):
        X, y = blobs3
        labels = dipmeans(X)
        assert len(np.unique(labels)) == 3
        assert ami(y, labels) > 0.95

    def test_single_blob_no_split(self):
        g = np.random.default_rng(2)
        X = g.normal(0, 1, (300, 2))
        labels = dipmeans(X)
        assert len(np.unique(labels)) == 1

    def test_no_noise_labels(self, blobs3):
        X, _ = blobs3
        assert (dipmeans(X) >= 0).all()

    def test_max_k_respected(self, blobs3, monkeypatch):
        X, _ = blobs3
        monkeypatch.setattr(dipmeans_mod, "_MAX_K", 2)
        labels = dipmeans(X)
        assert len(np.unique(labels)) <= 2


# sha256 prefix of dipmeans' labels (as little-endian int64) and the cluster
# sizes, as computed when every viewer of every cluster was dip-tested
_DIPMEANS_PINNED = {
    "wholesale": ("3e3ba5c72632e3cc", [225, 98, 117]),
    "dermatology": ("3f6b7c8b6a4066e6", [20, 49, 112, 61, 52, 72]),
    "iris": ("bc5509eebe041125", [100, 50]),
    "motor": ("4c27ad029724c01b", [31, 31, 32]),
    "blobs3": ("c8a0d42e83475648", [150, 150, 150]),
}


def _digest(labels: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(labels, dtype="<i8").tobytes()).hexdigest()[:16]


class TestDipMeansExact:
    @pytest.mark.parametrize("name", list(_DIPMEANS_PINNED))
    def test_labels_pinned(self, name, blobs3):
        if name == "blobs3":
            labels = dipmeans(blobs3[0])
        else:  # as the Table I runner calls it
            labels = dipmeans(uci_like.make(name)[0])
        assert (_digest(labels), np.bincount(labels).tolist()) == _DIPMEANS_PINNED[name]

    def test_draws_before_tests(self, monkeypatch):
        # with a split or without, g ends where drawing every cluster's
        # viewers and then its targets, in label order, leaves it
        g = np.random.default_rng(5)
        sizes = [150, 700, 5]
        X = np.vstack([g.normal(c, 1, (m, 2)) for c, m in zip([0, 3, 9], sizes)])
        labels = np.repeat([0, 1, 2], sizes)
        for frac in (0.01, 0.99):  # a winner, or none
            monkeypatch.setattr(dipmeans_mod, "_VIEWER_FRAC", frac)
            rng = np.random.default_rng(9)
            dipmeans_mod._split_candidate(X, labels, 3, rng)
            want = np.random.default_rng(9)
            want.choice(150, 100, replace=False)  # cluster 0: viewers only
            want.choice(700, 100, replace=False)  # cluster 1: viewers, targets
            want.choice(700, 500, replace=False)  # cluster 2 has < 8 members
            assert rng.random() == want.random()

    def test_tie_splits_first_cluster(self, monkeypatch):
        # equal shares: the lowest label is split, as np.argmax would pick
        g = np.random.default_rng(6)
        X = np.vstack([g.normal(0, 0.1, (40, 2)), g.normal(5, 0.1, (60, 2))])
        # every viewer hits
        monkeypatch.setattr(dipmeans_mod, "dip_pvalue", lambda d, *a, **kw: np.zeros_like(d))
        calls = []
        real = dipmeans_mod.kmeans_np

        def spy(Xs, k, seed):
            out = real(Xs, k, seed=seed)
            calls.append((seed, len(Xs), out[0].copy()))  # dipmeans relabels in place
            return out

        monkeypatch.setattr(dipmeans_mod, "kmeans_np", spy)
        monkeypatch.setattr(dipmeans_mod, "_MAX_K", 3)
        dipmeans(X)
        refined = [lab for seed, n, lab in calls if seed == 23 and n == len(X)][0]
        split_sizes = [n for seed, n, _ in calls if seed == 23 + 2]
        assert split_sizes == [int((refined == 0).sum())] != [int((refined == 1).sum())]

    @pytest.mark.parametrize("name", ["blobs3", "wholesale", "dermatology"])
    def test_race_equals_full_scoring(self, name, blobs3, monkeypatch):
        # one dip call per tested cluster, on all its viewers' rows at once,
        # gives the labels of one dip call per viewer
        X = blobs3[0] if name == "blobs3" else uci_like.make(name)[0]
        calls = []
        monkeypatch.setattr(
            dipmeans_mod, "dip", lambda rows, **kw: calls.append(np.shape(rows)) or dip(rows, **kw)
        )
        labels = dipmeans(X)
        per_cluster = list(calls)
        calls.clear()
        tested = []
        want = _dipmeans_full(X, tested=tested)
        assert np.array_equal(labels, want)
        assert per_cluster == tested
        assert sum(nv for nv, _ in per_cluster) == len(calls)


def _dipmeans_full(X, *, alpha=0.01, viewer_frac=0.01, max_k=20, seed=23, tested=None):
    """DipMeans scoring every viewer of every cluster, first argmax wins,
    with one dip call per viewer; appends each tested cluster's (viewers,
    targets) to ``tested``."""
    g = np.random.default_rng(seed)
    labels = np.zeros(len(X), dtype=np.int64)
    k = 1
    while k < max_k:
        shares = []
        for j in range(k):
            members = X[labels == j]
            m = len(members)
            if m < 8:
                shares.append(0.0)
                continue
            viewers = members if m <= 100 else members[g.choice(m, 100, replace=False)]
            targets = members if m <= 500 else members[g.choice(m, 500, replace=False)]
            rows = np.sqrt(pairwise_sq_dists(viewers, targets))
            if tested is not None:
                tested.append(rows.shape)
            p = [dipmeans_mod.dip_pvalue(dipmeans_mod.dip(r), r.size, n_boot=500) for r in rows]
            hits = sum(pj <= alpha for pj in p)
            shares.append(hits / len(viewers))
        j_best = int(np.argmax(shares))
        if shares[j_best] <= viewer_frac:
            break
        idx = np.flatnonzero(labels == j_best)
        sub, _ = kmeans_np(X[idx], 2, seed=seed + k)
        labels[idx[sub == 1]] = k
        k += 1
        labels, _ = kmeans_np(X, k, seed=seed)
    return labels


class TestRIC:
    def test_runs_and_labels_valid(self, blobs3):
        X, _ = blobs3
        labels = ric(X)
        assert len(labels) == len(X)
        assert labels.min() >= -1

    def test_separable_blobs_reasonable(self, blobs3):
        X, y = blobs3
        labels = ric(X)
        assert ami(y, labels) > 0.5

    def test_struggles_on_non_gaussian_shapes(self):
        # RIC codes clusters as Gaussians; ring-shaped clusters in noise
        # defeat it (the paper reports RIC near-zero on such data)
        g = np.random.default_rng(3)
        t = g.uniform(0, 2 * np.pi, 500)
        ring = 0.35 * np.column_stack([np.cos(t), np.sin(t)]) + 0.5
        X = np.vstack([ring + g.normal(0, 0.01, (500, 2)), g.uniform(0, 1, (500, 2))])
        y = np.r_[np.zeros(500, int), -np.ones(500, int)]
        labels = ric(X)
        mask = y >= 0
        assert ami(y[mask], labels[mask]) < 0.6

    def test_noise_points_get_minus_one(self):
        g = np.random.default_rng(4)
        X = np.vstack(
            [g.normal((0.5, 0.5), 0.02, (150, 2)), g.uniform(-3, 4, (300, 2))]
        )
        labels = ric(X)
        assert (labels == -1).any()

    def test_deterministic(self, blobs3):
        X, _ = blobs3
        assert np.array_equal(ric(X), ric(X))

    @pytest.mark.parametrize("d", [2, 8])
    def test_separated_blobs_keep_the_kmeans_start(self, d):
        # DESIGN.md § 5.6: no merge fires on separated clusters, so RIC ends
        # at its k-means start k0 = 10 (2 000 rows) with every cluster inside
        # one blob: an over-split, not the paper's collapse to one cluster
        g = np.random.default_rng(0)
        X = np.vstack([g.normal(0, 1, (1000, d)), g.normal(10, 1, (1000, d))])
        y = np.repeat([0, 1], 1000)
        labels = ric(X)
        ks = np.unique(labels[labels >= 0])
        assert len(ks) == 10
        assert all(len(np.unique(y[labels == j])) == 1 for j in ks)
