"""The sparse d-dimensional low-pass DWT and its two filters.

AdaWave only ever keeps the *average* subband (the LL…L approximation), so
the transform reduces to: convolve with the low-pass analysis filter and
downsample by 2, once per dimension — one level of Mallat's algorithm
restricted to the scale space. The container has no PyWavelets, so the
analysis low-pass coefficients are hard-coded from the literature. There
are two filters, and the dimension count picks one (:func:`_filter`):
CDF(2,2) at d <= 2, Haar above.

:func:`dwt_spark` runs on the sparse ``{cell: density}`` grid that
:func:`repro.core.quantize.grid_densities` collected: each non-zero cell
is repeated over the filter taps, taps whose output index is non-integral
are dropped (the downsample-by-2 parity mask), and contributions to one
output cell are merged with :func:`repro.core.cells.unique_rows` +
``np.bincount``. It runs in numpy on the M ≪ N cells; the name is the
pipeline stage's, under which ``perfbench/tracing.py`` times it. The
tests check it against a dense numpy reference (``tests/oracles.py``).

A filter is its low-pass analysis taps and a center tap, aligned so that
the center tap maps original cell ``i`` to transformed cell ``floor(i / 2)``
— which is exactly the lookup table AdaWave needs to map objects back from
the transformed space. Tap ``m`` sends cell ``i`` to output
``(i + center - m) / 2`` when that is integral.
"""
from __future__ import annotations

import numpy as np

from repro.core.cells import unique_rows

__all__ = ["dwt_spark"]

_SQRT2 = float(np.sqrt(2.0))

# Haar: a cell reaches one output cell per pass (fanout 1), which high-d
# data needs: CDF(2,2) reaches up to 3, so 3^d per level on a sparse grid.
_HAAR = ((1.0 / _SQRT2, 1.0 / _SQRT2), 0)
# Cohen-Daubechies-Feauveau (2,2): the 5/3 LeGall analysis low-pass.
_CDF22 = ((-0.125 * _SQRT2, 0.25 * _SQRT2, 0.75 * _SQRT2, 0.25 * _SQRT2, -0.125 * _SQRT2), 2)


def _filter(d: int) -> tuple[tuple[float, ...], int]:
    """(taps, center) of the filter for ``d`` dimensions."""
    return _CDF22 if d <= 2 else _HAAR


def dwt_spark(cells: np.ndarray, dens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sparse approximation-subband DWT of a collected grid (one level).

    ``cells`` is an (M, d) int64 array of occupied cells in lexicographic
    order, as ``grid_densities`` returns them, and ``dens`` their
    densities; the order fixes the summation order, so the result is
    bit-reproducible. Returns the transformed cells, again in lexicographic
    order, and their densities. Transformed coordinates relate to originals
    by ``t_j = c_j >> 1`` for the center tap (the lookup-table mapping).
    """
    taps, center = _filter(cells.shape[1])
    taps = np.asarray(taps)
    offsets = center - np.arange(len(taps))
    for j in range(cells.shape[1]):
        num = cells[:, j, None] + offsets  # (M, taps): twice the output index
        src, tap = np.nonzero(num % 2 == 0)
        out = cells[src]
        out[:, j] = num[src, tap] // 2
        cells, inv = unique_rows(out)
        dens = np.bincount(inv, weights=dens[src] * taps[tap], minlength=len(cells))
    return cells, dens
