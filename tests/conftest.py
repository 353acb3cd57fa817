"""Shared test oracles."""

import numpy as np
from hypothesis import settings

from sdecub import PiecewisePath, leaf_derivatives

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def grid_iterated_integral(path, word, resolution=2**16):
    """Iterated integral by cumulative trapezoid quadrature on a fine grid.

    Independent of the per-segment composition rule used by the library:
    each letter adds one cumulative integration against the interpolated
    path component, so agreement checks the algebra, not the arithmetic.
    """
    grid = np.union1d(
        np.linspace(path.breakpoints[0], path.breakpoints[-1], resolution + 1),
        path.breakpoints,
    )
    comps = np.empty((grid.shape[0], path.values.shape[1]))
    for c in range(path.values.shape[1]):
        comps[:, c] = np.interp(grid, path.breakpoints, path.values[:, c])
    level = np.ones(grid.shape[0])
    for letter in word:
        increments = np.diff(comps[:, letter])
        midpoints = 0.5 * (level[1:] + level[:-1])
        level = np.concatenate([[0.0], np.cumsum(midpoints * increments)])
    return level[-1]


def leaf_path(formula, partition, iv):
    """One tree leaf as a path, integrated from the slopes of ``leaf_derivatives``.

    The time component is the segment grid itself; the Brownian components
    accumulate slope times segment length from the origin.
    """
    seg_times, derivs = leaf_derivatives(formula, partition, [iv])
    values = np.zeros((seg_times.shape[0], formula.dim + 1))
    values[:, 0] = seg_times
    values[1:, 1:] = np.cumsum(derivs[0] * np.diff(seg_times)[:, None], axis=0)
    return PiecewisePath(seg_times, values)
