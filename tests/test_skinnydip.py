"""Tests for UniDip / SkinnyDip."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.skinnydip import skinnydip, unidip
from repro.metrics.ami import ami


class TestUniDip:
    def test_single_gaussian_one_interval(self):
        g = np.random.default_rng(0)
        ivs = unidip(g.normal(0, 1, 400))
        assert len(ivs) == 1

    def test_trimodal_three_intervals(self):
        g = np.random.default_rng(1)
        x = np.concatenate(
            [g.normal(-6, 0.3, 300), g.normal(0, 0.3, 300), g.normal(6, 0.3, 300)]
        )
        ivs = unidip(x)
        assert len(ivs) == 3
        centers = [(lo + hi) / 2 for lo, hi in ivs]
        assert np.allclose(sorted(centers), [-6, 0, 6], atol=1.0)

    def test_modes_survive_noise(self):
        g = np.random.default_rng(2)
        x = np.concatenate(
            [g.normal(-5, 0.3, 250), g.normal(5, 0.3, 250), g.uniform(-10, 10, 500)]
        )
        ivs = unidip(x)
        # both true modes must be found; a random dense clump in 500
        # uniform points may legitimately add one extra interval
        assert 2 <= len(ivs) <= 4
        assert any(lo <= -5 <= hi for lo, hi in ivs)
        assert any(lo <= 5 <= hi for lo, hi in ivs)

    def test_intervals_cover_mode_width(self):
        # the widened interval must capture most of the mode's mass
        g = np.random.default_rng(3)
        mode = g.normal(0, 0.3, 200)
        x = np.concatenate([mode, g.uniform(-10, 10, 800)])
        ivs = unidip(x, is_modal=False)
        assert len(ivs) == 1
        lo, hi = ivs[0]
        assert ((mode >= lo) & (mode <= hi)).mean() > 0.6

    def test_intervals_sorted_and_disjoint(self):
        g = np.random.default_rng(4)
        x = np.concatenate([g.normal(-4, 0.2, 200), g.normal(4, 0.2, 200)])
        ivs = unidip(x)
        for (l1, h1), (l2, h2) in zip(ivs, ivs[1:]):
            assert h1 < l2

    def test_tiny_sample(self):
        assert unidip(np.array([1.0, 2.0])) == [(1.0, 2.0)]
        assert unidip(np.array([])) == []

    def test_constant_sample(self):
        ivs = unidip(np.full(50, 3.0))
        assert ivs == [(3.0, 3.0)]


class TestSkinnyDip:
    def test_blobs(self):
        g = np.random.default_rng(5)
        X = np.vstack([g.normal(c, 0.05, (200, 2)) for c in [(0, 0), (1, 0), (0, 1)]])
        y = np.repeat([0, 1, 2], 200)
        labels = skinnydip(X)
        assert ami(y, labels) > 0.7
        assert len(np.unique(labels[labels >= 0])) == 3

    def test_noise_labeled_minus_one(self):
        g = np.random.default_rng(6)
        X = np.vstack(
            [g.normal((0.5, 0.5), 0.02, (300, 2)), g.uniform(-2, 3, (700, 2))]
        )
        labels = skinnydip(X)
        assert (labels == -1).any()

    def test_fails_on_ring_projections(self):
        # a ring's 1-D projections are bimodal arcs; SkinnyDip carves it
        # into pieces instead of one cluster — the paper's core criticism
        g = np.random.default_rng(7)
        t = g.uniform(0, 2 * np.pi, 1500)
        ring = np.column_stack([np.cos(t), np.sin(t)]) + g.normal(0, 0.02, (1500, 2))
        blob = g.normal((4, 4), 0.1, (1500, 2))
        X = np.vstack([ring, blob])
        y = np.repeat([0, 1], 1500)
        labels = skinnydip(X)
        assert ami(y, labels) < 0.9  # cannot match a shape-aware method

    def test_deterministic(self):
        g = np.random.default_rng(8)
        X = g.normal(0, 1, (200, 2))
        assert np.array_equal(skinnydip(X), skinnydip(X))
