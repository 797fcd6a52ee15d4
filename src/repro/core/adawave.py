"""AdaWave: adaptive wavelet clustering (the paper's core contribution).

Pipeline (paper Algorithm 1). The N objects are read three times by
Spark; everything in between works on the M ≪ N grid cells on the driver:

1. quantize the feature space into a sparse grid  (`core.quantize`, Spark:
   one bounds + row-count aggregate, then one ``groupBy`` over the cells,
   collected once)
2. low-pass DWT of the sparse grid                (`core.wavelet`, numpy)
3. drop near-zero coefficients, then adaptively threshold the sorted
   density curve ("elbow theory")                 (`core.threshold`)
4. connected components over surviving cells      (`core.components`)
5. lookup table: transformed cell -> label, original cell -> transformed
   cell is ``c >> 1`` (one DWT level); labels join back onto the objects
   through a broadcast hash join                  (Spark)

Steps 2 and 4 (and the coarsening below) keep grid cells as sorted
integer rows (`core.cells`). Every Spark step is written as SQL text, one
JVM call each, with quoted column names, so any input column name works;
the cell columns take names no input column has.

Every choice but the grid scale follows from the data (the paper's notion
of "parameter-free"), and the module that applies a choice makes it from
d: one DWT level, with CDF(2,2) at d <= 2 and the fanout-1 Haar filter
above (`core.wavelet`); the elbow's stage and when there is no elbow to
cut at (`core.threshold`); the components' adjacency (`core.components`).
The scale defaults to `scale=128` for the 2-D experiments and coarser
grids for higher d (`core.quantize.auto_scale`). An unset scale at d > 4
runs steps 2-4 at two scales, the auto scale and twice it (most clusters
wins), both from the one grid collected at twice it, so the N objects are
still read three times.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cells import unique_rows
from repro.core.components import connected_components
from repro.core.quantize import GridSpec, assign_cells, fit_grid, grid_densities, quote
from repro.core.threshold import elbow_threshold
from repro.core.wavelet import dwt_spark

__all__ = ["AdaWaveModel", "adawave"]

_EPS_COEF = 1e-9  # "wavelet coefficients close to zero" cutoff (paper step 2)
# components below this share of the kept density mass become noise: the
# paper's "further eliminate the noise grids" (dense noise always leaves a
# few isolated above-threshold cells, yet the paper reports 5+noise clusters)
_MIN_COMPONENT_FRAC = 0.02


@dataclass
class AdaWaveModel:
    """Everything AdaWave derived from the data, for inspection/tests."""

    spec: GridSpec
    threshold: float
    n_clusters: int
    n_grid_cells: int
    n_transformed_cells: int
    n_kept_cells: int
    densities_sorted: np.ndarray = field(repr=False)
    labeled_cells: DataFrame | None = field(repr=False)  # transformed c0..c{d-1}, cluster


def adawave(
    df: DataFrame,
    features: list[str],
    *,
    scale: int | None = None,
    keep_model: bool = False,
) -> DataFrame | tuple[DataFrame, AdaWaveModel]:
    """Cluster ``df`` on ``features``; returns ``df`` + ``cluster`` column.

    Noise objects, and rows with a null, NaN or infinite feature, get
    cluster ``-1``; clusters are labeled ``0..k-1`` in first-appearance
    order of their cells in the lexicographically sorted grid collection
    (deterministic). ``scale=None`` picks the scale from the data; at d > 4
    that is the :func:`~repro.core.quantize.auto_scale` scale or twice it,
    whichever finds the most clusters. Every other choice follows from d
    (see the module docstring). With ``keep_model=True``
    also returns the :class:`AdaWaveModel`.
    """
    d = len(features)
    spec = fit_grid(df, features, scale)  # scale-free bounds: one pass for all scales
    # d > 4: granularity depends on the unknown class spread. Keep the auto
    # scale or twice it, whichever finds the most clusters (WaveCluster's
    # multi-resolution choice: too coarse merges classes, too fine shatters
    # them into pruned dust; auto/2 found one cluster on every Table I input).
    # Both come from one grid at 2·auto: halving a cell width is exact in
    # floating point, so the cells at scale s are those at 2s shifted right
    # by one bit, last-cell clamp included. Coarser first: max() breaks ties
    # to the coarser grid
    shifts = (0,)
    if scale is None and d > 4:
        spec, shifts = replace(spec, scale=2 * spec.scale), (1, 0)

    cells = assign_cells(df, spec)
    grid, counts = grid_densities(cells, d)  # the one grid collect
    fits = [(k, *_cluster_grid(grid, counts, k, spec)) for k in shifts]
    k, model, lut = max(fits, key=lambda fit: fit[1].n_clusters)
    tcols = cells.columns[-d:]  # assign_cells appends the cell columns
    names = [*tcols, "cluster"]
    schema = ", ".join(f"{c} long" for c in names)  # typed even when empty
    model.labeled_cells = df.sparkSession.createDataFrame(pd.DataFrame(lut, columns=names), schema)

    # -- step 5: broadcast label join (Spark) -------------------------------
    # an input "cluster" is replaced, in any case: Spark resolves names case-insensitively
    keep = [quote(c) for c in df.columns if c.lower() != "cluster"]
    # one DWT level: grid cell c is transformed cell c >> 1, so c >> (1 + k)
    # on the grid coarsened by k bits
    keyed = cells.selectExpr(*keep, *[f"shiftright({c}, {1 + k}) AS {c}" for c in tcols])
    out = keyed.join(F.broadcast(model.labeled_cells), tcols, "left").selectExpr(
        *keep, "coalesce(cluster, -1L) AS cluster"
    )
    return (out, model) if keep_model else out


def _cluster_grid(
    grid: np.ndarray, counts: np.ndarray, k: int, spec: GridSpec
) -> tuple[AdaWaveModel, np.ndarray]:
    """Steps 2-4 on the collected grid coarsened by ``k`` bits: the model, and
    its lookup table (rows of transformed cell, cluster) for ``adawave`` to
    join on."""
    d, spec = spec.d, replace(spec, scale=spec.scale >> k)
    # -- step 2: coarsen and transform the grid (numpy) --------------------
    grid, inv = unique_rows(grid >> k)
    counts = np.bincount(inv, weights=counts, minlength=len(grid))
    tcells, tdens = dwt_spark(grid, counts)

    # -- step 2b/3: coefficient denoising + adaptive threshold -------------
    n_transformed = len(tdens)
    nonzero = tdens > _EPS_COEF
    tcells, tdens = tcells[nonzero], tdens[nonzero]
    dens = np.sort(tdens)[::-1]
    t = elbow_threshold(dens, d)
    kept = tdens > t
    kcells, kdens = tcells[kept], tdens[kept]

    # -- step 4: connected components over surviving cells -----------------
    # cells arrive in lexicographic order, so label numbering is deterministic
    labels = connected_components(kcells)
    if len(labels):
        # prune spurious micro-components back into noise, by density mass
        # (not cell count: a legitimate cluster may occupy one cell when the
        # grid is coarse, but it carries a large share of the total mass)
        mass = np.bincount(labels, weights=kdens)
        ok = mass[labels] >= _MIN_COMPONENT_FRAC * mass.sum()
        kcells = kcells[ok]
        _, labels = np.unique(labels[ok], return_inverse=True)

    model = AdaWaveModel(
        spec=spec,
        threshold=float(t),
        n_clusters=int(labels.max()) + 1 if len(labels) else 0,
        n_grid_cells=len(grid),
        n_transformed_cells=n_transformed,
        n_kept_cells=len(kcells),
        densities_sorted=dens,
        labeled_cells=None,  # the winning scale's lookup table, set by adawave()
    )
    return model, np.column_stack([kcells, labels])
