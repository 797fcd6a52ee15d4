"""Step 3 of AdaWave: adaptive noise threshold via "elbow theory".

After the low-pass DWT the sorted grid-density curve splits into three
roughly linear segments — signal, middle (cluster boundaries), noise —
and the best noise threshold sits at the middle/noise intersection
(paper Fig. 6, Algorithm 4).

Two detectors are provided:

- :func:`elbow_threshold` (default) — deterministic two-stage max
  chord-distance ("kneedle") elbow: the first stage finds the dominant
  signal/middle corner, the second stage re-runs on the tail to find the
  middle/noise corner. No free tolerance parameter.
- :func:`angle_threshold` — a faithful implementation of the paper's
  Algorithm 4: scan the (normalized, smoothed) curve and stop at the
  first triple whose turning angle drops sharply below its predecessor.
  The paper gives no tolerance for "curAngle << preAngle"; ours is
  explicit (``drop``, radians).

Both take the *descending-sorted* density array and return the density
value below which cells are noise (cells with density > threshold are
kept).
"""
from __future__ import annotations

import numpy as np

__all__ = ["elbow_threshold", "angle_threshold"]


def _chord_elbow(y: np.ndarray) -> tuple[int, float]:
    """Index of the max-distance-from-chord point and that distance.

    x/y are normalized to [0, 1] so the answer is scale-free. The distance
    returned is in normalized units (0 = curve is a straight line).
    """
    n = y.size
    if n < 3:
        return 0, 0.0
    x = np.linspace(0.0, 1.0, n)
    span = y[0] - y[-1]
    if span <= 0:
        return 0, 0.0
    yn = (y - y[-1]) / span
    # Signed distance to the chord from (0, yn[0]=1) to (1, yn[-1]=0):
    # the curve of a convex-decreasing profile lies below the chord.
    chord = 1.0 - x
    dist = (chord - yn) / np.sqrt(2.0)
    i = int(np.argmax(dist))
    return i, float(dist[i])


def elbow_threshold(
    densities_desc: np.ndarray, *, stage: int = 1, min_significance: float = 0.3
) -> float:
    """Kneedle elbow on the descending density curve.

    ``stage=1`` (default) returns the density at the dominant corner of the
    curve — empirically the signal/noise breakpoint on wavelet-smoothed
    grids (see EXPERIMENTS.md). ``stage=2`` re-runs the detector on the
    tail past the first corner to find a distinct middle/noise corner
    (the literal reading of the paper's three-segment Fig. 6), falling
    back to stage 1 when that second corner is not significant
    (normalized chord distance below ``min_significance``).

    If the curve is degenerate (flat or too short) a value below the
    minimum density is returned so no cell is filtered.
    """
    y = np.asarray(densities_desc, dtype=np.float64)
    if y.size == 0:
        return 0.0
    if y.size < 3 or y[0] == y[-1]:
        return float(y[-1]) - 1.0  # keep everything
    i1, s1 = _chord_elbow(y)
    if s1 <= 0:
        return float(y[-1]) - 1.0
    if stage == 1:
        return float(y[i1])
    if stage != 2:
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    tail = y[i1:]
    i2, s2 = _chord_elbow(tail)
    if s2 >= min_significance and i2 > 0:
        return float(tail[i2])
    return float(y[i1])


def angle_threshold(
    densities_desc: np.ndarray, *, drop: float = 0.30, window: int = 15
) -> float:
    """Paper's Algorithm 4: first sharp turn of the sorted-density curve.

    The curve is normalized to the unit square (and optionally smoothed
    with a moving average of ``window`` points) and scanned left to right;
    at each interior point the angle formed by its neighbours is compared
    to the previous angle, and the scan stops when the angle shrinks by
    more than ``drop`` radians — the "turning point". Returns that point's
    (unsmoothed) density.
    """
    y = np.asarray(densities_desc, dtype=np.float64)
    if y.size < 3 or y[0] == y[-1]:
        return float(y[-1]) - 1.0 if y.size else 0.0
    n = y.size
    ys = y
    window = min(window, max(0, n // 10))  # adapt to short curves
    if window and window > 1 and n > window:
        kernel = np.ones(window) / window
        ys = np.convolve(y, kernel, mode="valid")
        n = ys.size
    x = np.linspace(0.0, 1.0, n)
    span = ys[0] - ys[-1]
    yn = (ys - ys[-1]) / span

    def angle(i: int) -> float:
        a = np.array([x[i - 1] - x[i], yn[i - 1] - yn[i]])
        b = np.array([x[i + 1] - x[i], yn[i + 1] - yn[i]])
        cosang = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-300))
        return float(np.arccos(np.clip(cosang, -1.0, 1.0)))

    prev = np.pi
    for i in range(1, n - 1):
        cur = angle(i)
        if cur <= prev - drop:
            # map smoothed index back to an unsmoothed density
            j = min(y.size - 1, i + (window // 2 if window else 0))
            return float(y[j])
        prev = cur
    # no sharp turn found: keep everything
    return float(y[-1]) - 1.0
