"""Unit tests for the adaptive elbow threshold detector."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.threshold import elbow_threshold


def three_segment_curve(
    n_signal=30, n_middle=100, n_noise=400, top=100.0, knee1=20.0, knee2=2.0
) -> np.ndarray:
    """Idealized sorted-density curve from the paper's Fig. 6: a steep
    signal segment, a moderate middle slope and a flat noise tail."""
    sig = np.linspace(top, knee1, n_signal)
    mid = np.linspace(knee1, knee2, n_middle)
    noi = np.linspace(knee2, knee2 * 0.8, n_noise)
    return np.concatenate([sig, mid, noi])


class TestElbow:
    def test_two_segment_curve_finds_corner(self):
        # steep drop then flat: the elbow is at the junction
        y = np.concatenate([np.linspace(100, 10, 20), np.full(200, 9.0)])
        t = elbow_threshold(y, 2)
        assert 8.0 <= t <= 30.0

    def test_three_segment_stage2_below_stage1(self):
        y = three_segment_curve()
        t1 = elbow_threshold(y, 2)
        t2 = elbow_threshold(y, 3)
        assert t2 <= t1

    def test_stage2_finds_middle_noise_corner(self):
        y = three_segment_curve(knee1=20.0, knee2=2.0)
        t2 = elbow_threshold(y, 3)
        assert 1.0 <= t2 <= 6.0

    def test_stage_follows_d(self):
        # the first corner at d <= 2, the second, gentler one above
        y = three_segment_curve()
        assert elbow_threshold(y, 1) == elbow_threshold(y, 2)
        assert elbow_threshold(y, 2) > elbow_threshold(y, 3)
        assert elbow_threshold(y, 3) == elbow_threshold(y, 9)

    def test_flat_curve_keeps_everything(self):
        y = np.full(100, 5.0)
        t = elbow_threshold(y, 2)
        assert t < 5.0

    def test_short_curve_keeps_everything(self):
        y = np.array([3.0, 1.0])
        assert elbow_threshold(y, 2) < 1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_fewer_than_eight_cells_keep_everything(self, d):
        # the same sharp corner is cut at 8 cells, not at 7
        y = np.array([100.0, 50.0, 10.0, 2.0, 1.5, 1.2, 1.1, 1.0])
        assert elbow_threshold(y[1:], d) == 0.0  # y[-1] - 1: every cell kept
        assert 1.0 < elbow_threshold(y, d) < 100.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_top_at_most_four_times_bottom_keeps_everything(self, d):
        # a near-flat curve has no signal/noise split: the contrast bound
        # is inclusive at exactly 4x and cuts just above it
        y = np.array([4.0, 1.5, 1.3, 1.2, 1.1, 1.05, 1.02, 1.01, 1.0, 1.0])
        assert elbow_threshold(y, d) == 0.0
        y[0] = np.nextafter(4.0, np.inf)
        assert 1.0 < elbow_threshold(y, d) < y[0]

    def test_empty(self):
        assert elbow_threshold(np.array([]), 2) == 0.0

    def test_monotone_input_assumed_desc(self):
        # works when strictly decreasing convex curve: picks the bend
        x = np.arange(1, 300, dtype=float)
        y = 1000.0 / x  # strong elbow near the head
        t = elbow_threshold(y, 2)
        assert t > np.median(y)

    def test_threshold_is_a_curve_value_or_below_min(self):
        y = three_segment_curve()
        for d in (2, 3):
            t = elbow_threshold(y, d)
            assert t in y or t < y.min()

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64, st.integers(1, 64), fill=st.nothing(),  # every value drawn
            elements=st.one_of(st.floats(1e-6, 1e9), st.sampled_from([1.0, 2.0, 1e3])),  # ties
        ),
        st.sampled_from([2, 3]),
    )
    def test_some_cell_is_always_kept(self, values, d):
        # the threshold is below the top density of any positive curve, so
        # the pipeline needs no fallback for an emptied grid
        y = np.sort(values)[::-1]
        assert (y > elbow_threshold(y, d)).any()
