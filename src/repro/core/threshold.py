"""Step 3 of AdaWave: adaptive noise threshold via "elbow theory".

After the low-pass DWT the sorted grid-density curve splits into three
roughly linear segments — signal, middle (cluster boundaries), noise —
and the best noise threshold sits at the middle/noise intersection
(paper Fig. 6, Algorithm 4).

:func:`elbow_threshold` is a deterministic two-stage max chord-distance
("kneedle", Satopää et al. 2011) elbow: the first stage finds the dominant
signal/middle corner, the second stage re-runs on the tail to find the
middle/noise corner. The paper's Algorithm 4 instead stops where the angle
of successive point triples drops sharply ("curAngle << preAngle") but
gives no tolerance for "sharply"; DESIGN.md § 5.2 says why that detector
is not implemented.

It takes the *descending-sorted* density array and the dimension count,
and returns the density value below which cells are noise (cells with
density > threshold are kept). Every rule for when there is no elbow to
find, so that every cell is kept, lives here too.
"""
from __future__ import annotations

import numpy as np

__all__ = ["elbow_threshold"]

# stage 2 keeps its second corner only at this normalized chord distance
_MIN_SIGNIFICANCE = 0.3
# fewer cells than this, or a top density at most _MIN_CONTRAST times the
# bottom one, is too short or too flat a curve to split signal from noise
_MIN_CELLS = 8
_MIN_CONTRAST = 4.0


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


def elbow_threshold(densities_desc: np.ndarray, d: int) -> float:
    """Kneedle elbow on the descending density curve of a d-dim grid.

    At d <= 2 (stage 1) it returns the density at the dominant corner of
    the curve — empirically the signal/noise breakpoint on
    wavelet-smoothed 2-D noisy grids (see EXPERIMENTS.md). Coarse high-d
    grids have no uniform-noise plateau, and that first corner would
    amputate minority clusters; so at d > 2 (stage 2) the detector re-runs
    on the tail past the first corner to find a distinct middle/noise
    corner (the literal reading of the paper's three-segment Fig. 6),
    falling back to the first corner when the second is not significant
    (normalized chord distance below ``_MIN_SIGNIFICANCE``).

    Empty input gives 0.0. When the curve has fewer than ``_MIN_CELLS``
    cells, is near flat (top ≤ ``_MIN_CONTRAST`` · bottom, typical of
    coarse high-d grids) or has no point below its chord, a value below
    the minimum density is returned, so no cell is filtered. Otherwise the
    threshold is a curve value strictly below the top one, so at least one
    cell is kept.
    """
    y = np.asarray(densities_desc, dtype=np.float64)
    if y.size == 0:
        return 0.0
    keep_all = float(y[-1]) - 1.0
    if y.size < _MIN_CELLS or y[0] <= _MIN_CONTRAST * y[-1]:
        return keep_all
    i1, s1 = _chord_elbow(y)
    if s1 <= 0:
        return keep_all
    if d <= 2:
        return float(y[i1])
    tail = y[i1:]
    i2, s2 = _chord_elbow(tail)
    if s2 >= _MIN_SIGNIFICANCE and i2 > 0:
        return float(tail[i2])
    return float(y[i1])
