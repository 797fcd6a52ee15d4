"""Hartigan & Hartigan (1985) dip test of unimodality, from scratch.

The container has no scipy/diptest, so this is a 0-indexed Python port of
the classic Fortran/C algorithm (Hartigan's AS 217 as revised in Martin
Maechler's ``diptest`` package): the dip statistic is the maximum
difference between the empirical CDF and the closest unimodal CDF,
computed exactly via greatest-convex-minorant / least-concave-majorant
fits over a shrinking modal interval.

``dip(x)`` returns the statistic; ``diptest(x)`` also returns a p-value
against the uniform null (bootstrap, cached per sample size) and the
modal interval — both of which SkinnyDip and DipMeans need.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["dip", "diptest", "dip_pvalue"]

_N_BOOT = 1000  # bootstrap size of diptest's null table
_BOOT_SEED = 17  # the null table of reference size n is drawn from seed _BOOT_SEED + n


def dip(x: np.ndarray, *, sort: bool = True) -> float:
    """Dip statistic of a 1-D sample, in [1/(2n), 0.25]. NaN or ±inf raises ValueError."""
    d, _, _ = _dip_full(np.asarray(x, dtype=np.float64), sort=sort)
    return d


def diptest(x: np.ndarray, *, sort: bool = True) -> tuple[float, float, tuple[int, int]]:
    """Return ``(dip, p_value, (lo, hi))``.

    ``(lo, hi)`` are indices into the *sorted* sample delimiting the modal
    interval the algorithm converged to. The p-value is the fraction of
    same-size uniform samples whose dip is at least as large (bootstrap
    null, table cached per ``n``).
    """
    xs = np.asarray(x, dtype=np.float64)
    d, lo, hi = _dip_full(xs, sort=sort)
    p = dip_pvalue(d, xs.size)
    return d, p, (lo, hi)


_REF_SIZES = (50, 200, 1000, 4000)


def dip_pvalue(d: float, n: int, *, n_boot: int = _N_BOOT) -> float:
    """Bootstrap p-value of a dip value for sample size n under uniformity.

    Exact bootstrap tables are only built at a few reference sizes; other
    sizes use the asymptotic sqrt(n)-scaling of the dip distribution
    (dip * sqrt(n) converges in law — the same interpolation R's
    ``dip.test``/qDiptab relies on), so the expensive null simulation runs
    once per reference size, not once per distinct n.
    """
    if n < 4:
        return 1.0
    ref = _ref_size(n)
    table = _boot_table(ref, int(n_boot))
    scaled = d * np.sqrt(n / ref)
    idx = np.searchsorted(table, scaled, side="left")
    return float((table.size - idx) / table.size)


@lru_cache(maxsize=1024)
def _ref_size(n: int) -> int:  # nearest in log scale, first on a tie
    return min(_REF_SIZES, key=lambda r: abs(np.log(r) - np.log(n)))


@lru_cache(maxsize=16)
def _boot_table(n: int, n_boot: int) -> np.ndarray:
    g = np.random.default_rng(_BOOT_SEED + n)
    u = g.random((n_boot, n))
    u.sort(axis=1)
    return np.sort(np.array([_dip_full(row, sort=False)[0] for row in u]))


def _dip_full(x: np.ndarray, *, sort: bool = True) -> tuple[float, int, int]:
    """Core algorithm. Returns (dip, low, high) with low/high sorted-indices.

    Runs on Python lists, several times faster than numpy scalars, with the
    same IEEE operations in the same order."""
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    if n < 1:
        raise ValueError("dip of empty sample")
    if not np.isfinite(x).all():
        raise ValueError("dip of a sample with NaN or infinite values")
    if sort:
        x = np.sort(x, kind="mergesort")
    x = x.tolist()
    if n <= 3 or x[0] == x[n - 1]:
        # Degenerate: the lower bound of the statistic.
        return (0.0 if n == 1 else 1.0 / (2.0 * n)), 0, n - 1

    low, high = 0, n - 1
    dip_value = 1.0 / (2.0 * n)

    # mn[j]: rightmost index < j joined to j on the greatest convex minorant.
    mn = [0] * n
    for j in range(1, n):
        xj, mnj = x[j], j - 1
        while mnj != 0:
            mnmnj, xm = mn[mnj], x[mnj]
            if (xj - xm) * (mnj - mnmnj) < (xm - x[mnmnj]) * (j - mnj):
                break
            mnj = mnmnj
        mn[j] = mnj

    # mj[k]: leftmost index > k joined to k on the least concave majorant.
    mj = [0] * n
    mj[n - 1] = n - 1
    for k in range(n - 2, -1, -1):
        xk, mjk = x[k], k + 1
        while mjk != n - 1:
            mjmjk, xm = mj[mjk], x[mjk]
            if (xk - xm) * (mjk - mjmjk) < (xm - x[mjmjk]) * (k - mjk):
                break
            mjk = mjmjk
        mj[k] = mjk

    gcm = [0] * n
    lcm = [0] * n

    while True:
        # Change points of the GCM from high down to low.
        gcm[0] = high
        i = 0
        while gcm[i] > low:
            gcm[i + 1] = mn[gcm[i]]
            i += 1
        l_gcm = i + 1  # number of valid entries in gcm
        ig = l_gcm - 1
        ix = l_gcm - 2

        # Change points of the LCM from low up to high.
        lcm[0] = low
        i = 0
        while lcm[i] < high:
            lcm[i + 1] = mj[lcm[i]]
            i += 1
        l_lcm = i + 1
        ih = l_lcm - 1
        iv = 1

        # Largest distance between the GCM and the LCM within [low, high].
        d = 0.0
        if l_gcm != 2 or l_lcm != 2:
            while True:
                gcmix = gcm[ix]
                lcmiv = lcm[iv]
                if gcmix > lcmiv:
                    # next change point is on the LCM
                    gcmi1 = gcm[ix + 1]
                    dx = (lcmiv - gcmi1 + 1) - (x[lcmiv] - x[gcmi1]) * (gcmix - gcmi1) / (
                        x[gcmix] - x[gcmi1]
                    )
                    iv += 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv - 1
                else:
                    # next change point is on the GCM
                    lcmiv1 = lcm[iv - 1]
                    dx = (x[gcmix] - x[lcmiv1]) * (lcmiv - lcmiv1) / (x[lcmiv] - x[lcmiv1]) - (
                        gcmix - lcmiv1 - 1
                    )
                    ix -= 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv
                if ix < 0:
                    ix = 0
                if iv > l_lcm - 1:
                    iv = l_lcm - 1
                if gcm[ix] == lcm[iv]:
                    break
        else:
            d = 1.0

        if d < dip_value * 2.0 * n:
            break

        # Max deviation of the empirical CDF below the GCM chords in
        # [gcm[l_gcm-1] .. gcm[ig]] ...
        dip_l = 0.0
        for j in range(ig, l_gcm - 1):
            max_t = 1.0
            jb = gcm[j + 1]
            je = gcm[j]
            xb = x[jb]
            if je - jb > 1 and x[je] != xb:
                C = (je - jb) / (x[je] - xb)
                for k, xv in enumerate(x[jb : je + 1], 1):
                    t = k - (xv - xb) * C
                    if max_t < t:
                        max_t = t
            if dip_l < max_t:
                dip_l = max_t

        # ... and above the LCM chords in [lcm[ih] .. lcm[l_lcm-1]].
        dip_u = 0.0
        for j in range(ih, l_lcm - 1):
            max_t = 1.0
            jb = lcm[j]
            je = lcm[j + 1]
            xb = x[jb]
            if je - jb > 1 and x[je] != xb:
                C = (je - jb) / (x[je] - xb)
                for k, xv in enumerate(x[jb : je + 1], -1):
                    t = (xv - xb) * C - k
                    if max_t < t:
                        max_t = t
            if dip_u < max_t:
                dip_u = max_t

        dip_new = max(dip_l, dip_u) / (2.0 * n)
        if dip_value < dip_new:
            dip_value = dip_new

        new_low = gcm[ig]
        new_high = lcm[ih]
        if low == new_low and high == new_high:
            break
        low, high = new_low, new_high

    return dip_value, low, high
