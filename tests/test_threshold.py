"""Unit tests for the adaptive elbow threshold detector."""
from __future__ import annotations

import numpy as np
import pytest

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
        t = elbow_threshold(y)
        assert 8.0 <= t <= 30.0

    def test_three_segment_stage2_below_stage1(self):
        y = three_segment_curve()
        t1 = elbow_threshold(y, stage=1)
        t2 = elbow_threshold(y, stage=2)
        assert t2 <= t1

    def test_stage2_finds_middle_noise_corner(self):
        y = three_segment_curve(knee1=20.0, knee2=2.0)
        t2 = elbow_threshold(y, stage=2)
        assert 1.0 <= t2 <= 6.0

    def test_flat_curve_keeps_everything(self):
        y = np.full(100, 5.0)
        t = elbow_threshold(y)
        assert t < 5.0

    def test_short_curve_keeps_everything(self):
        y = np.array([3.0, 1.0])
        assert elbow_threshold(y) < 1.0

    def test_empty(self):
        assert elbow_threshold(np.array([])) == 0.0

    def test_bad_stage_raises(self):
        with pytest.raises(ValueError, match="stage"):
            elbow_threshold(three_segment_curve(), stage=3)

    def test_monotone_input_assumed_desc(self):
        # works when strictly decreasing convex curve: picks the bend
        x = np.arange(1, 300, dtype=float)
        y = 1000.0 / x  # strong elbow near the head
        t = elbow_threshold(y)
        assert t > np.median(y)

    def test_threshold_is_a_curve_value_or_below_min(self):
        y = three_segment_curve()
        t = elbow_threshold(y)
        assert t in y or t < y.min()

