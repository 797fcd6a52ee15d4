"""Unit tests for the wavelet filter banks and sparse/dense DWT paths."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.wavelet import _CDF22, _HAAR, _filter, dwt_spark
from tests.oracles import _dwt_dense_1d, dwt_dense

FILTERS = pytest.mark.parametrize("w", [_CDF22, _HAAR], ids=["cdf2.2", "haar"])


class TestFilterBanks:
    @FILTERS
    def test_lowpass_sum_is_sqrt2(self, w):
        # every orthonormal/biorthogonal analysis low-pass sums to sqrt(2)
        assert sum(w[0]) == pytest.approx(np.sqrt(2.0), abs=1e-10)

    @pytest.mark.parametrize("w", [_HAAR], ids=["haar"])
    def test_orthonormal_filters_unit_energy(self, w):
        assert sum(h * h for h in w[0]) == pytest.approx(1.0, abs=1e-10)

    @FILTERS
    def test_center_in_range(self, w):
        taps, center = w
        assert 0 <= center < len(taps)

    def test_haar_fanout_one(self):
        # one input cell reaches one output cell per pass, at either parity
        for cell in range(4):
            cells, _ = dwt_spark(np.full((1, 3), cell), np.array([1.0]))
            assert cells.tolist() == [[cell // 2] * 3]

    @pytest.mark.parametrize("w,fanout", [(_CDF22, 3)], ids=["cdf2.2-3"])
    def test_fanouts(self, w, fanout):
        # the most output cells one 1-D input cell reaches in a pass: why d > 2 uses Haar
        assert _filter(1) is w
        reach = [len(dwt_spark(np.array([[c]]), np.array([1.0]))[0]) for c in range(4)]
        assert max(reach) == fanout


class TestDenseDWT:
    def test_haar_1d_pairs_average(self):
        # haar low-pass of [a, b] -> (a + b)/sqrt(2) at the paired index
        a = np.array([2.0, 4.0, 6.0, 8.0])
        out = _dwt_dense_1d(a, *_HAAR, axis=0)
        nz = out[out != 0]
        assert np.allclose(sorted(nz), sorted([(2 + 4) / np.sqrt(2), (6 + 8) / np.sqrt(2)]))

    def test_haar_mass_scaling(self):
        # each haar pass multiplies the total mass by 1/sqrt(2) per dim
        g = np.random.default_rng(0)
        a = g.random((8, 8))
        out = _dwt_dense_1d(_dwt_dense_1d(a, *_HAAR, axis=0), *_HAAR, axis=1)
        assert out.sum() == pytest.approx(a.sum() / 2.0)  # two dims

    @FILTERS
    def test_constant_signal_stays_flat_inside(self, w):
        # a constant region maps to a constant region (per pass scaled by
        # sum(taps at each parity) = sqrt(2)/... for haar exactly)
        a = np.ones(64)
        out = _dwt_dense_1d(a, *w, axis=0)
        interior = out[4:-4]
        assert np.allclose(interior, interior[0])

    def test_2d_peak_spreads(self):
        # a single spike spreads over the filter footprint; its largest
        # coefficient is spike * (center tap)^2 for an even-aligned spike
        a = np.zeros((16, 16))
        a[8, 8] = 100.0
        out = dwt_dense(a)
        assert out.max() == pytest.approx(100.0 * (0.75 * np.sqrt(2)) ** 2)
        assert (np.abs(out) > 1e-12).sum() > 1  # it did spread


def _grid(a):
    """The non-zero cells of a dense array in lexicographic order, and their values."""
    idx = np.nonzero(a)
    return np.stack(idx, axis=1).astype(np.int64), a[idx].astype(np.float64)


class TestSparseSparkDWT:
    # the (d, filter) pairs the program runs; each grid keeps the seed it
    # had when every filter ran at every d ("1-" is the one DWT level)
    @pytest.mark.parametrize(
        "d,w,seed",
        [pytest.param(2, _CDF22, 0, id="1-cdf2.2"), pytest.param(3, _HAAR, 3, id="1-haar-3d")],
    )
    def test_sparse_matches_dense_values(self, d, w, seed):
        assert _filter(d) is w
        g = np.random.default_rng([d, 1, seed])
        shape = (12,) * d if d == 2 else (8,) * d
        a = np.where(g.random(shape) < 0.3, g.random(shape) * 10, 0.0)
        if a.sum() == 0:
            a[(3,) * d] = 5.0
        dense = dwt_dense(a)
        cells, dens = dwt_spark(*_grid(a))
        assert np.array_equal(np.lexsort(cells.T[::-1]), np.arange(len(cells)))
        got = np.sort(dens[np.abs(dens) > 1e-9])
        want = np.sort(dense[np.abs(dense) > 1e-9].ravel())
        assert np.allclose(got, want, atol=1e-9), f"d{d}"

    def test_deterministic(self):
        # bit-identical, lexicographically sorted output however the
        # collected grid is laid out in memory, and the input is not touched
        g = np.random.default_rng(3)
        a = np.where(g.random((16, 16)) < 0.4, g.random((16, 16)), 0.0)
        cells, dens = _grid(a)
        cells_f, dens_s = np.asfortranarray(cells), np.repeat(dens, 2)[::2]
        c1, d1 = dwt_spark(cells, dens)
        c2, d2 = dwt_spark(cells_f, dens_s)
        assert np.array_equal(c1, c2) and np.array_equal(d1, d2)
        assert np.array_equal(np.lexsort(c1.T[::-1]), np.arange(len(c1)))
        assert np.array_equal(cells, _grid(a)[0]) and np.array_equal(dens, _grid(a)[1])

    def test_haar_output_count_never_grows(self):
        g = np.random.default_rng(1)
        a = np.where(g.random((8, 8, 8)) < 0.1, 1.0, 0.0)
        n_in = int((a != 0).sum())
        cells, _ = dwt_spark(*_grid(a))
        assert len(cells) <= n_in

    def test_1d_sparse(self):
        cells, dens = dwt_spark(np.array([[0], [1], [5]]), np.array([1.0, 1.0, 2.0]))
        # CDF(2,2) taps sqrt(2)·(-1/8, 1/4, 3/4, 1/4, -1/8): cell 0 lands on
        # -1, 0, 1 (center tap at 0), cell 1 on 0 and 1, odd cell 5 on 2 and 3
        assert cells[:, 0].tolist() == [-1, 0, 1, 2, 3]
        assert np.allclose(dens, np.sqrt(2) * np.array([-0.125, 1.0, 0.125, 0.5, 0.5]))

    def test_3d_haar(self):
        cells, dens = dwt_spark(np.array([[0, 0, 0], [1, 1, 1]]), np.array([4.0, 4.0]))
        # both cells map to transformed cell (0,0,0); mass 8 / sqrt(2)^3
        assert cells.tolist() == [[0, 0, 0]]
        assert dens[0] == pytest.approx(8.0 / 2 ** 1.5)
