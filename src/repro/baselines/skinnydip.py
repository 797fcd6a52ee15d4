"""SkinnyDip baseline (Maurus & Plant, KDD 2016), from scratch.

Two layers:

- :func:`unidip` — UniDip: recursively extract the modal intervals of a
  1-D sample with the Hartigan dip test. If the sample is multimodal,
  recurse inside the dip test's modal interval, then test the left/right
  flanks for further modes. Two standard refinements from the reference
  implementation are applied: flanks are *mirrored* about the nearest
  found mode before testing (a mode at a slice boundary looks unimodal
  otherwise), and a unimodal slice's modal interval is *widened* by
  mirroring about each end (the raw dip interval converges to a thin
  core of the mode).
- :func:`skinnydip` — apply UniDip dimension by dimension: each modal
  hyper-interval found on dimension j is refined on dimension j+1 using
  only the points inside it. Points outside every modal hyper-interval
  are noise (-1).

SkinnyDip's documented weakness — clusters must be unimodal in *every*
coordinate projection — is exactly what the paper's synthetic experiment
exploits; this implementation reproduces that behaviour.
"""
from __future__ import annotations

import numpy as np

from repro.stats.dip import diptest

__all__ = ["unidip", "skinnydip"]

_ALPHA = 0.05  # a sample is multimodal at dip p-value <= this


def _mirror(x: np.ndarray, about: float) -> np.ndarray:
    """Reflect x about a point and return the sorted union (2x size)."""
    return np.sort(np.concatenate([x, 2.0 * about - x]))


def _background(x: np.ndarray, li: int, ui: int) -> float | None:
    """Points per unit length of sorted x outside the dip core x[li..ui], or
    None when nothing lies outside it (no points, or no span)."""
    out_pts = li + (x.size - 1 - ui)
    span_out = (x[li] - x[0]) + (x[-1] - x[ui])
    if out_pts <= 0 or span_out <= 0:
        return None
    return out_pts / span_out


def _mode_significant(x: np.ndarray, li: int, ui: int) -> bool:
    """Is the dip core x[li..ui] a real mode rather than a noise clump?

    A real mode must clearly out-dense the background rate (estimated
    from the data outside the core) and carry non-trivial mass. Used to
    guard the *flank* recursions: a false-positive mirror test on a pure
    noise flank would otherwise mint a cluster out of a random clump.
    """
    n = x.size
    bg = _background(x, li, ui)
    if bg is None:
        return True  # no background to compare against: trust the mode
    core_span = x[ui] - x[li]
    core_pts = ui - li + 1
    core_dens = core_pts / core_span if core_span > 0 else np.inf
    return core_dens >= 2.5 * bg and core_pts >= max(6, int(0.02 * n))


def _widen(x: np.ndarray, li: int, ui: int) -> tuple[float, float]:
    """Full extent of the mode whose dip core is x[li..ui] (x sorted).

    The raw dip modal interval converges to a thin slice of the mode's
    peak, so it is grown outward while the local point density (over a
    sliding window) stays above the background rate estimated from the
    data outside the core.
    """
    n = x.size
    bg = _background(x, li, ui)
    if bg is None:
        return float(x[0]), float(x[-1])
    w = max(3, n // 50)
    lo_i = li
    while lo_i - w >= 0:
        width = x[lo_i] - x[lo_i - w]
        if width > 0 and w / width < 1.5 * bg:
            break
        lo_i -= w
    hi_i = ui
    while hi_i + w <= n - 1:
        width = x[hi_i + w] - x[hi_i]
        if width > 0 and w / width < 1.5 * bg:
            break
        hi_i += w
    return float(x[max(lo_i, 0)]), float(x[min(hi_i, n - 1)])


def unidip(x: np.ndarray, *, is_modal: bool = True, _depth: int = 0) -> list[tuple[float, float]]:
    """Modal intervals [(lo_value, hi_value), ...] of a 1-D sample.

    A recursion (``_depth > 0``) drops a unimodal slice whose mode is
    statistically indistinguishable from its background — right for the
    flank recursions (where the slice may be pure noise after a
    false-positive mirror test), wrong for the caller's own sample (in
    SkinnyDip a candidate-cluster slice).
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = x.size
    if n < 4 or x[0] == x[-1] or _depth > 16:
        return [(float(x[0]), float(x[-1]))] if n else []
    d, p, (li, ui) = diptest(x, sort=False)
    if p > _ALPHA:
        if is_modal:
            return [(float(x[0]), float(x[-1]))]
        if _depth and not _mode_significant(x, li, ui):
            return []
        return [_widen(x, li, ui)]

    # multimodal: recurse inside the modal interval
    inner = unidip(x[li : ui + 1], is_modal=True, _depth=_depth + 1)
    if not inner:
        inner = [(float(x[li]), float(x[ui]))]
    lo_edge = min(lo for lo, _ in inner)
    hi_edge = max(hi for _, hi in inner)

    out = list(inner)
    # Left flank: include the leftmost found mode, mirrored about its right
    # edge, so a boundary mode is interior to the tested sample.
    lwing = x[x <= hi_edge]
    if lwing.size >= 4 and float(lwing[0]) < lo_edge:
        _, pl, _ = diptest(_mirror(lwing, float(lwing[-1])), sort=False)
        if pl <= _ALPHA:
            out += unidip(x[x < lo_edge], is_modal=False, _depth=_depth + 1)
    rwing = x[x >= lo_edge]
    if rwing.size >= 4 and float(rwing[-1]) > hi_edge:
        _, pr, _ = diptest(_mirror(rwing, float(rwing[0])), sort=False)
        if pr <= _ALPHA:
            out += unidip(x[x > hi_edge], is_modal=False, _depth=_depth + 1)

    # merge overlapping intervals, sort by position
    out.sort()
    merged: list[tuple[float, float]] = []
    for lo, hi in out:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def skinnydip(X: np.ndarray) -> np.ndarray:
    """Cluster labels from per-dimension modal hyper-intervals; -1 = noise."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0

    def rec(idx: np.ndarray, dim: int) -> None:
        nonlocal next_label
        if len(idx) == 0:
            return
        if dim == d:
            labels[idx] = next_label
            next_label += 1
            return
        vals = X[idx, dim]
        # per-dimension call uses is_modal=False: a unimodal sample then
        # yields its *modal interval* (the cluster), not the full range —
        # this is where SkinnyDip's noise rejection comes from. A top-level
        # call keeps an insignificant mode: this slice is a candidate
        # cluster, not a suspect flank.
        for lo, hi in unidip(vals, is_modal=False):
            inside = idx[(vals >= lo) & (vals <= hi)]
            if len(inside):
                rec(inside, dim + 1)

    rec(np.arange(n), 0)
    return labels
