"""Step 1 of AdaWave: quantize the feature space into a sparse grid.

This is the "grid labeling" data structure of the paper (Section IV-A):
only cells with non-zero density are materialized, which is what lets the
algorithm scale past 2-3 dimensions. In Spark it is a pure Catalyst plan:
one aggregate for the row count and the min/max of every dimension, a
projection computing the integer cell coordinate per dimension, and a
``groupBy(cells).count()`` that ``grid_densities`` collects: the one place
the grid is aggregated, so everything after it is driver-side numpy.

Each plan step's expressions are written as Spark SQL text, so that Spark
parses a whole step in one JVM call rather than one call per expression
node: column names go in backticks (:func:`quote`), and every double is
an exact literal (:func:`double_literal`), so the SQL cell formula is
bit for bit the float64 one.

The per-object cell coordinates are also returned (``assign_cells``) —
AdaWave's final step joins cluster labels back onto them.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

__all__ = [
    "GridSpec", "auto_scale", "cell_cols", "quote", "double_literal",
    "fit_grid", "assign_cells", "grid_densities",
]


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
        # A constant dimension still needs a non-zero cell width, and so does
        # a span of fewer than ``scale`` subnormal ulps, whose quotient
        # rounds to 0.0: it gets the smallest positive double.
        return max((span if span > 0 else 1.0) / self.scale, math.ulp(0.0))


def auto_scale(d: int, n: int) -> int:
    """The default grid scale by dimensionality and data size.

    2-D uses the paper's default scale=128 — shrunk towards sqrt(n) when
    the dataset is small, so cell densities stay statistically meaningful
    (with the paper's ~30k-point benchmark this stays exactly 128). Higher
    dimensions use coarser grids: the cell count would otherwise exceed
    the point count.
    """
    if d <= 2:
        if n > 0:
            # round *up*: a too-fine grid degrades gracefully (sparser
            # cells), a too-coarse one merges adjacent clusters outright
            return int(min(128, max(16, 2 ** int(np.ceil(np.log2(max(4.0, np.sqrt(n))))))))
        return 128
    if d <= 4:
        return 16
    if d <= 10:
        # more data supports a finer grid: occupied-cell count is bounded
        # by n, and the finer grid resolves offsets the coarse one merges;
        # with only a few hundred points, cells must stay coarse or every
        # point becomes its own cell
        return 16 if n >= 5000 else 8 if n >= 500 else 4
    return 4


def cell_cols(d: int, taken: Iterable[str] = ()) -> list[str]:
    """Names of the grid-coordinate columns for d dimensions: ``c0..c{d-1}``,
    with underscores in front until none is a name in ``taken``. Spark
    resolves column names case-insensitively by default; so does the check.
    """
    taken = {t.lower() for t in taken}
    prefix = "c"
    while any(f"{prefix}{j}" in taken for j in range(d)):
        prefix = "_" + prefix
    return [f"{prefix}{j}" for j in range(d)]


def quote(name: str) -> str:
    """A column name as a Spark SQL identifier: in backticks, backticks doubled."""
    return "`" + name.replace("`", "``") + "`"


def double_literal(x: float) -> str:
    """An exact Spark SQL literal for the double ``x``.

    ``repr`` round-trips every finite double (subnormals and ``-0.0``
    included) and Spark parses a ``D``-suffixed literal exactly; ``inf``,
    ``-inf`` and ``nan`` have no literal syntax and are cast from strings.
    """
    x = float(x)
    return f"{x!r}D" if np.isfinite(x) else f"CAST('{x!r}' AS DOUBLE)"


def fit_grid(df: DataFrame, features: list[str], scale: int | None) -> GridSpec:
    """Row count and per-dimension bounds in a single aggregate pass.

    ``scale=None`` picks the :func:`auto_scale` scale for the dimension
    count and the row count. Bounds cover finite values only (0 if none).
    """
    if scale is not None and scale < 2:
        raise ValueError(f"scale must be >= 2, got {scale}")
    if not features:
        raise ValueError("no feature columns given")
    aggs = ["count(1) AS n_rows"]
    for f in map(quote, features):  # Spark orders NaN above +inf: "< inf" drops both
        aggs += [f"min(CASE WHEN {f} > {double_literal(-np.inf)} THEN {f} END)",
                 f"max(CASE WHEN {f} < {double_literal(np.inf)} THEN {f} END)"]
    row = df.selectExpr(*aggs).collect()[0]  # one row: first() would plan a limit on top
    mins = tuple(float(v or 0.0) for v in row[1::2])
    maxs = tuple(float(v or 0.0) for v in row[2::2])
    n = int(row[0])
    if scale is None:
        scale = auto_scale(len(features), n)
    return GridSpec(tuple(features), mins, maxs, scale, n)


def assign_cells(df: DataFrame, spec: GridSpec) -> DataFrame:
    """Append integer cell-coordinate columns ``c0..c{d-1}`` to ``df``.

    The right-open interval convention of the paper means the maximum value
    of a dimension would land in cell ``scale``; it is clamped into the last
    cell, matching WaveCluster. A value outside ``[min, max]`` (null, NaN,
    ±inf) gets a null cell, which AdaWave labels noise. The cell columns
    take underscores in front (``_c0``, ...) while a name is already in
    ``df`` (:func:`cell_cols`).
    """
    cells = {}
    for j, (f, c) in enumerate(zip(spec.features, cell_cols(spec.d, df.columns))):
        x, lo, hi = quote(f), double_literal(spec.mins[j]), double_literal(spec.maxs[j])
        w = double_literal(spec.width(j))
        cell = f"CAST(least(floor(({x} - {lo}) / {w}), {spec.scale - 1}) AS BIGINT)"
        cells[c] = F.expr(f"CASE WHEN {x} >= {lo} AND {x} <= {hi} THEN {cell} END")
    return df.withColumns(cells)


def grid_densities(cells: DataFrame, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate and collect the sparse grid (null cells dropped).

    ``cells`` is an :func:`assign_cells` frame, whose last ``d`` columns
    are the cells. Returns the occupied cells as an (M, d) int64 array in
    lexicographic order and their object counts as float64 densities. The
    sort makes the result, and every float computed from it, independent of
    how Spark partitioned the grid.
    """
    cols = cells.columns[-d:]
    pdf = cells.dropna(subset=cols).groupBy(*cols).count().toPandas()
    grid = pdf[cols].to_numpy(dtype=np.int64).reshape(len(pdf), d)
    order = np.lexsort(grid.T[::-1])
    return grid[order], pdf["count"].to_numpy(dtype=np.float64)[order]
