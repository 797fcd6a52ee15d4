"""Hartigan & Hartigan (1985) dip test of unimodality, from scratch.

scipy and diptest are not dependencies, so this is a 0-indexed port of the
classic Fortran/C algorithm (Hartigan's AS 217 as revised in Martin
Maechler's ``diptest`` package): the dip statistic is the maximum
difference between the empirical CDF and the closest unimodal CDF,
computed exactly via greatest-convex-minorant / least-concave-majorant
fits over a shrinking modal interval.

``dip(x)`` returns the statistic; ``diptest(x)`` also returns a p-value
against the uniform null (bootstrap, one table cached per reference size
and ``n_boot``) and the modal interval — both of which SkinnyDip and
DipMeans need. Given a 2-D array, ``dip`` returns one statistic per row,
from one kernel call, and ``dip_pvalue`` takes an array of dips of one
sample size: DipMeans tests all of a cluster's viewers that way.

The algorithm runs in ``_dip.c``, a C port of ``_dip_full`` with the same
IEEE double operations in the same order, whose one entry ``dip_rows``
returns the dip and modal interval of each row of a matrix (a sample is a
one-row matrix). It is compiled with the system's C compiler at the first
dip computed (not at import) into the package's ``__pycache__``, under a
name made from the source's hash, and called through ctypes once it has
reproduced ``_dip_full`` exactly on a fixed probe set. Where there is no
compiler, or the library cannot be built, loaded or trusted, a warning
says why and ``_dip_full`` itself runs, several times slower; it is also
the reference the tests compare the C kernel against.
"""
from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from functools import cache, lru_cache
from pathlib import Path

import numpy as np

__all__ = ["dip", "diptest", "dip_pvalue"]

_N_BOOT = 1000  # bootstrap size of diptest's null table
_BOOT_SEED = 17  # the null table of reference size n is drawn from seed _BOOT_SEED + n

_log = logging.getLogger(__name__)


def dip(x: np.ndarray, *, sort: bool = True) -> float | np.ndarray:
    """Dip statistic of a 1-D sample, in [1/(2n), 0.25]; of a 2-D array, an
    array of the dips of its rows, each as ``dip(row)`` returns it. NaN or
    ±inf raises ValueError."""
    if np.ndim(x) == 2:
        return _dips(x, sort)[0]
    return _dips(np.asarray(x).reshape(1, -1), sort)[0].item()


def diptest(x: np.ndarray, *, sort: bool = True) -> tuple[float, float, tuple[int, int]]:
    """Return ``(dip, p_value, (lo, hi))``.

    ``(lo, hi)`` are indices into the *sorted* sample delimiting the modal
    interval the algorithm converged to. The p-value is the fraction of
    uniform samples whose dip, scaled to this sample size, is at least as
    large (bootstrap null, see ``dip_pvalue``).
    """
    dips, bounds = _dips(np.asarray(x).reshape(1, -1), sort)
    return dips.item(), dip_pvalue(dips.item(), np.size(x)), tuple(bounds[0].tolist())


_REF_SIZES = (50, 200, 1000, 4000)


def dip_pvalue(d: float | np.ndarray, n: int, *, n_boot: int = _N_BOOT) -> float | np.ndarray:
    """Bootstrap p-value of a dip value for sample size n under uniformity;
    of an array of dips, the array of their p-values.

    Exact bootstrap tables are only built at a few reference sizes; other
    sizes use the asymptotic sqrt(n)-scaling of the dip distribution
    (dip * sqrt(n) converges in law — the same interpolation R's
    ``dip.test``/qDiptab relies on), so the expensive null simulation runs
    once per reference size, not once per distinct n.
    """
    d = np.asarray(d, dtype=np.float64)
    if n < 4:
        p = np.ones_like(d)
    else:
        ref = _ref_size(n)
        table = _boot_table(ref, int(n_boot))
        idx = np.searchsorted(table, d * np.sqrt(n / ref), side="left")
        p = (table.size - idx) / table.size
    return float(p) if p.ndim == 0 else p


@lru_cache(maxsize=1024)
def _ref_size(n: int) -> int:  # nearest in log scale, first on a tie
    return min(_REF_SIZES, key=lambda r: abs(np.log(r) - np.log(n)))


@lru_cache(maxsize=16)
def _boot_table(n: int, n_boot: int) -> np.ndarray:
    # one kernel call; uniform draws hold no -0.0, so any sort gives the same bits
    g = np.random.default_rng(_BOOT_SEED + n)
    return np.sort(dip(np.sort(g.random((n_boot, n)), axis=1), sort=False))


_SRC = Path(__file__).with_name("_dip.c")
_CACHE = _SRC.parent / "__pycache__"
_CC = ("cc", "gcc", "clang")  # the first found on PATH builds the kernel
# no -ffast-math or -march=native: either may reorder or fuse the operations
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _dips(x: np.ndarray, sort: bool) -> tuple[np.ndarray, np.ndarray]:
    """``_dip_full`` of each row of a 2-D array, as an array of dips and one
    of ``(lo, hi)`` rows; from one kernel call where there is a kernel."""
    x = np.asarray(x, dtype=np.float64)
    x = np.ascontiguousarray(np.sort(x, axis=1, kind="mergesort") if sort else x)
    dips, bounds = np.full(len(x), np.nan), np.empty((len(x), 2), dtype=np.int64)
    if x.shape[1] and (kernel := _kernel()) is not None:
        kernel.dip_rows(x.ctypes.data, *x.shape, dips.ctypes.data, bounds.ctypes.data)
    for i in np.isnan(dips).nonzero()[0]:  # it raises, or takes a case the kernel leaves to it
        dips[i], bounds[i, 0], bounds[i, 1] = _dip_full(x[i], sort=False)
    return dips, bounds


@cache
def _kernel():
    """``_dip.c`` as a library, or None where it cannot be built, loaded or
    trusted; a warning then says why."""
    try:
        lib = ctypes.CDLL(str(_build()))
    except (OSError, subprocess.SubprocessError) as e:
        return _fallback(f"{type(e).__name__}: {e}")
    lib.dip_rows.argtypes = (
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p
    )
    lib.dip_rows.restype = None
    probes = list(_probes())
    for n in {x.size for x in probes}:  # the probes of each size as the rows of one matrix
        rows = np.stack([x for x in probes if x.size == n])
        dips, bounds = np.empty(len(rows)), np.empty((len(rows), 2), dtype=np.int64)
        lib.dip_rows(rows.ctypes.data, *rows.shape, dips.ctypes.data, bounds.ctypes.data)
        if [*zip(dips.tolist(), *bounds.T.tolist())] != [_dip_full(x, sort=False) for x in rows]:
            return _fallback(f"it differs from _dip_full on the probes of size {n}")
    return lib


def _fallback(reason: str) -> None:
    _log.warning("C dip kernel not used (%s): the Python dips run, several times slower", reason)


def _build() -> Path:
    """The compiled kernel's path; compiles it if it is not there yet."""
    tag = hashlib.sha256(_SRC.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    lib = _CACHE / f"_dip-{tag}.so"
    if lib.exists():
        return lib
    cc = next(filter(None, map(shutil.which, _CC)), None)
    if cc is None:
        raise FileNotFoundError("no C compiler on PATH")
    _CACHE.mkdir(exist_ok=True)
    # a private name, then an atomic rename: concurrent first uses are safe
    fd, tmp = tempfile.mkstemp(prefix=lib.stem, suffix=".tmp", dir=_CACHE)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_SRC)], check=True, capture_output=True, timeout=120
        )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for old in _CACHE.glob("_dip-*.so"):  # builds of an earlier source or flags
        if old != lib:
            old.unlink(missing_ok=True)
    return lib


def _probes():
    """Sorted samples the C kernel must reproduce ``_dip_full`` on exactly:
    the degenerate sizes, a constant sample, and uniform, tied and bimodal
    samples."""
    yield from (np.zeros(1), np.arange(2.0), np.arange(3.0), np.ones(6))
    g = np.random.default_rng(0)
    for n in (4, 5, 50, 1000):
        yield np.sort(g.random(n))
        yield np.sort(g.integers(0, 6, n).astype(np.float64))
        yield np.sort(np.concatenate([g.normal(-2.0, 0.5, n // 2), g.normal(2.0, 0.5, n - n // 2)]))


def _dip_full(x: np.ndarray, *, sort: bool = True) -> tuple[float, int, int]:
    """Core algorithm. Returns (dip, low, high) with low/high sorted-indices.

    The reference for ``_dip.c``, and the path taken where that cannot be
    built: it runs on Python lists, several times faster than numpy
    scalars, with the same IEEE operations in the same order."""
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
