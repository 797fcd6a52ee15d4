"""Tests for the synthetic benchmark and UCI-like dataset generators."""
from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import uci_like
from repro.datasets.synthetic import (
    add_uniform_noise,
    five_clusters,
    paper_synthetic,
    to_spark,
)


class TestFiveClusters:
    def test_shapes(self):
        X, y = five_clusters(100)
        assert X.shape == (500, 2)
        assert y.shape == (500,)
        assert set(y) == set(range(5))

    def test_deterministic(self):
        X1, y1 = five_clusters(50, seed=3)
        X2, y2 = five_clusters(50, seed=3)
        assert np.array_equal(X1, X2) and np.array_equal(y1, y2)

    def test_seed_changes_data(self):
        X1, _ = five_clusters(50, seed=1)
        X2, _ = five_clusters(50, seed=2)
        assert not np.array_equal(X1, X2)

    def test_rings_disjoint_but_projections_overlap(self):
        X, y = five_clusters(2000)
        r3, r4 = X[y == 3], X[y == 4]
        # y-projections overlap (a per-dimension method cannot split) ...
        assert r3[:, 1].min() < r4[:, 1].max()
        assert r4[:, 1].min() < r3[:, 1].max()
        # ... but the rings are separated in 2-D (grid methods can split)
        from repro.baselines.api import pairwise_sq_dists

        d2 = pairwise_sq_dists(r3[:500], r4[:500])
        assert np.sqrt(d2.min()) > 0.02

    def test_parallel_bars_close_but_disjoint(self):
        X, y = five_clusters(2000)
        b0, b1 = X[y == 0], X[y == 1]
        # same x extent (Voronoi cells cut across both bars) ...
        assert abs(b0[:, 0].mean() - b1[:, 0].mean()) < 0.02
        # ... separated by a thin clean gap in y
        assert b1[:, 1].min() - b0[:, 1].max() > 0.01

    def test_nested_clusters_share_center(self):
        X, y = five_clusters(2000)
        inner, outer = X[y == 2], X[y == 4]
        assert np.allclose(inner.mean(axis=0), outer.mean(axis=0), atol=0.02)
        # the outer ring's radius exceeds the inner's
        c = inner.mean(axis=0)
        assert np.linalg.norm(outer - c, axis=1).mean() > np.linalg.norm(
            inner - c, axis=1
        ).mean() + 0.05


class TestNoise:
    @pytest.mark.parametrize("gamma", [0.0, 0.2, 0.5, 0.8, 0.9])
    def test_noise_fraction(self, gamma):
        X, y = five_clusters(200)
        Xn, yn = add_uniform_noise(X, y, gamma)
        frac = (yn == -1).mean()
        assert frac == pytest.approx(gamma, abs=0.01)

    def test_noise_in_unit_square(self):
        X, y = five_clusters(100)
        Xn, yn = add_uniform_noise(X, y, 0.5)
        noise = Xn[yn == -1]
        assert noise.min() >= 0.0 and noise.max() <= 1.0

    def test_bad_gamma_raises(self):
        X, y = five_clusters(10)
        with pytest.raises(ValueError, match="gamma"):
            add_uniform_noise(X, y, 1.0)

    def test_signal_preserved(self):
        X, y = five_clusters(100)
        Xn, yn = add_uniform_noise(X, y, 0.4)
        assert (yn >= 0).sum() == len(X)

    def test_rows_shuffled(self):
        X, y = five_clusters(500)
        _, yn = add_uniform_noise(X, y, 0.5)
        # labels must not be a contiguous block (order-insensitivity input)
        assert not np.array_equal(yn, np.sort(yn)[::-1])

    def test_paper_synthetic_composition(self):
        X, y = paper_synthetic(0.6, n_per_cluster=100)
        assert (y == -1).mean() == pytest.approx(0.6, abs=0.01)
        assert set(y[y >= 0]) == set(range(5))


class TestToSpark:
    def test_roundtrip(self, spark):
        X, y = five_clusters(20)
        df = to_spark(spark, X, y)
        assert df.columns == ["id", "x0", "x1", "label"]
        pdf = df.toPandas().sort_values("id")
        assert np.allclose(pdf[["x0", "x1"]].to_numpy(), X)
        assert np.array_equal(pdf["label"].to_numpy(), y)

    def test_without_labels(self, spark):
        X, _ = five_clusters(5)
        df = to_spark(spark, X)
        assert "label" not in df.columns

    def test_lineage_holds_no_rows(self, spark):
        # jobs over these frames read checkpointed blocks: no task is
        # shipped its rows from a driver-side collection
        from repro.baselines.kmeans import _features_df

        X, y = five_clusters(20)
        for df in (to_spark(spark, X, y), _features_df(spark, X)):
            lineage = df._jdf.queryExecution().toRdd().toDebugString()
            assert "ParallelCollectionRDD" not in lineage


class TestUciLike:
    @pytest.mark.parametrize("name", list(uci_like.DATASETS))
    def test_shape_matches_table1(self, name):
        gen, n, d = uci_like.DATASETS[name]
        kwargs = {"n_total": 8000} if name == "roadmap" else {}
        X, y = uci_like.make(name, **kwargs)
        expect_n = 8000 if name == "roadmap" else n
        assert X.shape == (expect_n, d)
        assert len(y) == expect_n

    @pytest.mark.parametrize("name", [n for n in uci_like.DATASETS if n != "roadmap"])
    def test_deterministic(self, name):
        X1, y1 = uci_like.make(name)
        X2, y2 = uci_like.make(name)
        assert np.array_equal(X1, X2) and np.array_equal(y1, y2)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            uci_like.make("mnist")

    def test_class_counts(self):
        assert len(np.unique(uci_like.make("iris")[1])) == 3
        assert len(np.unique(uci_like.make("glass")[1])) == 6
        assert len(np.unique(uci_like.make("htru2")[1])) == 2
        assert len(np.unique(uci_like.make("dermatology")[1])) == 6

    def test_glass_imbalance(self):
        _, y = uci_like.make("glass")
        counts = np.bincount(y)
        assert counts.max() > 4 * counts.min()

    def test_htru2_positive_rate(self):
        _, y = uci_like.make("htru2")
        assert (y == 1).mean() == pytest.approx(1639 / 17898, abs=1e-6)

    def test_roadmap_regional_ground_truth(self):
        X, y = uci_like.make("roadmap", n_total=5000)
        # regional labels: 6 regions, each with a dense city core plus the
        # road clutter geographically closest to it
        assert len(np.unique(y)) == 6
        # every region holds a meaningful share of the points
        assert np.bincount(y).min() > 100

    def test_motor_is_easy(self):
        # well-separated blobs: 1-NN to own centroid is perfect
        from repro.baselines.api import kmeans_np
        from repro.metrics.ami import ami

        X, y = uci_like.make("motor")
        labels, _ = kmeans_np(X, 3, seed=1)
        assert ami(y, labels) == pytest.approx(1.0)

    def test_glass_correlation_signs(self):
        X, y = uci_like.make("glass")
        # informative attributes reproduce the paper's Table II signs
        def corr(j):
            return np.corrcoef(X[:, j], y)[0, 1]

        assert corr(1) > 0.3   # Na
        assert corr(2) < -0.5  # Mg
        assert corr(3) > 0.3   # Al
        assert corr(7) > 0.3   # Ba

    def test_dataset_names(self):
        assert len(uci_like.dataset_names()) == 9
