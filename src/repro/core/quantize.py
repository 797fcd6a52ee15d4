"""Step 1 of AdaWave: quantize the feature space into a sparse grid.

This is the "grid labeling" data structure of the paper (Section IV-A):
only cells with non-zero density are materialized, which is what lets the
algorithm scale past 2-3 dimensions. In Spark it is a pure Catalyst plan:
one aggregate for the row count and the min/max of every dimension, a
projection computing the integer cell coordinate per dimension, and a
``groupBy(cells).count()`` that ``grid_densities`` collects: the one place
the grid is aggregated, so everything after it is driver-side numpy.

The per-object cell coordinates are also returned (``assign_cells``) —
AdaWave's final step joins cluster labels back onto them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.wavelet import cell_cols

__all__ = ["GridSpec", "auto_params", "fit_grid", "assign_cells", "grid_densities"]


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension [min, max] bounds, the number of intervals, the row count."""

    features: tuple[str, ...]
    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    scale: int
    n_rows: int = 0

    @property
    def d(self) -> int:
        return len(self.features)

    def width(self, j: int) -> float:
        span = self.maxs[j] - self.mins[j]
        # A constant dimension still needs a non-zero cell width.
        return (span if span > 0 else 1.0) / self.scale


def auto_params(d: int, n: int | None = None) -> tuple[int, int, str]:
    """(scale, levels, wavelet) defaults by dimensionality and data size.

    2-D uses the paper's default scale=128 with a one-level CDF(2,2)
    transform — shrunk towards sqrt(n) when the dataset is small, so cell
    densities stay statistically meaningful (with the paper's ~30k-point
    benchmark this stays exactly 128). Higher dimensions use coarser grids
    (cell count would otherwise exceed the point count) and Haar, whose
    fanout of one keeps the sparse transform size bounded by the input.
    """
    if d <= 2:
        scale = 128
        if n is not None and n > 0:
            # round *up*: a too-fine grid degrades gracefully (sparser
            # cells), a too-coarse one merges adjacent clusters outright
            scale = int(min(128, max(16, 2 ** int(np.ceil(np.log2(max(4.0, np.sqrt(n))))))))
        return scale, 1, "cdf2.2"
    if d <= 4:
        return 16, 1, "haar"
    if d <= 10:
        # more data supports a finer grid: occupied-cell count is bounded
        # by n, and the finer grid resolves offsets the coarse one merges;
        # with only a few hundred points, cells must stay coarse or every
        # point becomes its own cell
        n_ = n or 0
        return (16 if n_ >= 5000 else 8 if n_ >= 500 else 4), 1, "haar"
    return 4, 1, "haar"


def fit_grid(df: DataFrame, features: list[str], scale: int | None) -> GridSpec:
    """Row count and per-dimension bounds in a single aggregate pass.

    ``scale=None`` picks the :func:`auto_params` scale for the dimension
    count and the row count. Bounds cover finite values only (0 if none).
    """
    if scale is not None and scale < 2:
        raise ValueError(f"scale must be >= 2, got {scale}")
    if not features:
        raise ValueError("no feature columns given")
    aggs = [F.count(F.lit(1)).alias("n_rows")]
    for f in features:
        c = F.col(f)  # Spark orders NaN above +inf: "< inf" drops both
        aggs += [F.min(F.when(c > -np.inf, c)).alias(f"min_{f}"),
                 F.max(F.when(c < np.inf, c)).alias(f"max_{f}")]
    row = df.agg(*aggs).first()
    mins = tuple(float(row[f"min_{f}"] or 0.0) for f in features)
    maxs = tuple(float(row[f"max_{f}"] or 0.0) for f in features)
    n = int(row["n_rows"])
    if scale is None:
        scale = auto_params(len(features), n)[0]
    return GridSpec(tuple(features), mins, maxs, scale, n)


def assign_cells(df: DataFrame, spec: GridSpec) -> DataFrame:
    """Add integer cell-coordinate columns ``c0..c{d-1}`` to ``df``.

    The right-open interval convention of the paper means the maximum value
    of a dimension would land in cell ``scale``; it is clamped into the last
    cell, matching WaveCluster. A value outside ``[min, max]`` (null, NaN,
    ±inf) gets a null cell, which AdaWave labels noise.
    """
    out = df
    for j, f in enumerate(spec.features):
        cell = F.floor((F.col(f) - F.lit(spec.mins[j])) / F.lit(spec.width(j)))
        cell = F.least(cell, F.lit(spec.scale - 1)).cast("long")
        out = out.withColumn(f"c{j}", F.when(F.col(f).between(spec.mins[j], spec.maxs[j]), cell))
    return out


def grid_densities(cells: DataFrame, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate and collect the sparse grid (null cells dropped).

    Returns the occupied cells as an (M, d) int64 array in lexicographic
    order and their object counts as float64 densities. The sort makes the
    result, and every float computed from it, independent of how Spark
    partitioned the grid.
    """
    cols = cell_cols(d)
    pdf = cells.dropna(subset=cols).groupBy(*cols).agg(F.count(F.lit(1)).alias("n")).toPandas()
    grid = pdf[cols].to_numpy(dtype=np.int64).reshape(len(pdf), d)
    order = np.lexsort(grid.T[::-1])
    return grid[order], pdf["n"].to_numpy(dtype=np.float64)[order]
