"""Time partitions and the concatenated cubature path tree.

The horizon [0, T] is divided by the power schedule
``t_i = T * (1 - (1 - i/k)**gamma)``; unit-interval formula paths are
Brownian-scaled onto each subinterval (space by sqrt(s), time by s) and
concatenated according to an index vector, one formula path per subinterval.
The full tree has q**k leaves with product weights.  Solvers see tree paths
only through :func:`interval_slopes`, each formula path's slope on each
linear segment of each subinterval.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from .errors import InvalidParameter, TreeTooLarge
from .formulas import CubatureFormula

IndexVector = tuple[int, ...]

MAX_LEAVES = 2**40


@dataclass(frozen=True)
class TimePartition:
    """Non-uniform grid 0 = t_0 < ... < t_k = T from the gamma-power schedule."""

    horizon: float
    k: int
    gamma: float
    knots: np.ndarray

    @property
    def lengths(self) -> np.ndarray:
        """Subinterval lengths s_i = t_i - t_{i-1}, shape (k,)."""
        return np.diff(self.knots)


def make_partition(T: float, k: int, gamma: float) -> TimePartition:
    if T <= 0:
        raise InvalidParameter(f"horizon must be positive, got {T}")
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {k}")
    if gamma <= 0:
        raise InvalidParameter(f"gamma must be positive, got {gamma}")
    i = np.arange(k + 1, dtype=float)
    knots = T * (1.0 - (1.0 - i / k) ** gamma)
    knots[0] = 0.0
    knots[-1] = T
    if np.any(np.diff(knots) <= 0):
        raise InvalidParameter("partition knots are not strictly increasing")
    return TimePartition(horizon=float(T), k=k, gamma=float(gamma), knots=knots)


def interval_slopes(
    formula: CubatureFormula, partition: TimePartition
) -> tuple[np.ndarray, np.ndarray]:
    """Shared segment grid and every formula path's slopes on every subinterval.

    Every tree path is linear between the returned grid times ``seg_times``
    (S+1,), with S = k * n_seg and subinterval i covering
    ``seg_times[i*n_seg : (i+1)*n_seg + 1]``.  ``slopes[i, j]`` (shape
    (k, q, n_seg, d_b)) holds the Brownian slopes of formula path j on
    subinterval i: its increments scaled by sqrt(s) over segments stretched
    by s.  This is the one place tree paths are formed.
    """
    aligned = formula.aligned_paths()
    unit = aligned[0].breakpoints
    du = np.diff(unit)
    lengths = partition.lengths
    seg_times = partition.knots[:-1, None] + lengths[:, None] * unit[None, 1:]
    seg_times[:, -1] = partition.knots[1:]
    seg_times = np.concatenate([[0.0], seg_times.ravel()])
    increments = np.array([np.diff(path.values[:, 1:], axis=0) for path in aligned])
    scale = np.sqrt(lengths)[:, None, None, None] * du[None, None, :, None]
    return seg_times, increments[None] / scale


def enumerate_leaves(
    formula: CubatureFormula, partition: TimePartition
) -> Iterator[tuple[IndexVector, float]]:
    """Stream all q**k ``(iv, weight)`` leaves in lexicographic index order.

    Each weight is the product of its formula weights taken left to right,
    bit for bit ``math.prod`` over the index vector.
    """
    n = formula.q**partition.k
    if n > MAX_LEAVES:
        raise TreeTooLarge(f"{formula.q}**{partition.k} = {n} leaves exceeds 2**40")
    w = np.asarray(formula.weights)
    weights = np.ones(1)
    for _ in range(partition.k):
        weights = np.multiply.outer(weights, w).ravel()
    yield from zip(product(range(1, formula.q + 1), repeat=partition.k), weights.tolist())
