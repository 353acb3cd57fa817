"""Time partitions and the concatenated cubature path tree.

The horizon [0, T] is divided by the power schedule
``t_i = T * (1 - (1 - i/k)**gamma)``; unit-interval formula paths are
Brownian-scaled onto each subinterval (space by sqrt(s), time by s) and
concatenated according to an index vector, one formula path per subinterval.
The full tree has q**k leaves with product weights.  Solvers see a leaf only
through :func:`leaf_derivatives`, its path's slope on each linear segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .errors import IndexOutOfRange, InvalidParameter, TreeTooLarge
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


def leaf_derivatives(
    formula: CubatureFormula, partition: TimePartition, ivs: Sequence[IndexVector]
) -> tuple[np.ndarray, np.ndarray]:
    """Shared segment grid and per-leaf path slopes for a batch of tree leaves.

    ``ivs`` holds one index vector per leaf, each with one 1-based formula
    path index per subinterval.  Every leaf path is linear between the
    returned grid times ``seg_times`` (S+1,), so a solve needs only its
    Brownian slopes ``derivs`` (n_leaves, S, d_b): formula path increments
    scaled by sqrt(s) over segments stretched by s.
    """
    k = partition.k
    for iv in ivs:
        if len(iv) != k:
            raise IndexOutOfRange(f"index vector {tuple(iv)} has {len(iv)} entries, not {k}")
    idx = np.asarray(ivs, dtype=int).reshape(len(ivs), k) - 1
    bad = (idx < 0) | (idx >= formula.q)
    if bad.any():
        iv = tuple(ivs[int(np.argmax(bad.any(axis=1)))])
        raise IndexOutOfRange(f"index vector {iv} has an entry outside 1..{formula.q}")
    aligned = formula.aligned_paths()
    unit = aligned[0].breakpoints
    du = np.diff(unit)
    n_seg = du.shape[0]
    lengths = partition.lengths
    seg_times = partition.knots[:-1, None] + lengths[:, None] * unit[None, 1:]
    seg_times[:, -1] = partition.knots[1:]
    seg_times = np.concatenate([[0.0], seg_times.ravel()])
    # slopes[i, j] is path j on subinterval i, shape (k, q, n_seg, d_b)
    increments = np.array([np.diff(path.values[:, 1:], axis=0) for path in aligned])
    scale = np.sqrt(lengths)[:, None, None, None] * du[None, None, :, None]
    slopes = increments[None] / scale
    derivs = slopes[np.arange(k)[None, :], idx].reshape(idx.shape[0], k * n_seg, formula.dim)
    return seg_times, derivs


def enumerate_leaves(
    formula: CubatureFormula, partition: TimePartition
) -> Iterator[tuple[IndexVector, float]]:
    """Stream all q**k ``(iv, weight)`` leaves in lexicographic index order."""
    n = formula.q**partition.k
    if n > MAX_LEAVES:
        raise TreeTooLarge(f"{formula.q}**{partition.k} = {n} leaves exceeds 2**40")
    weights = formula.weights
    for iv in product(range(1, formula.q + 1), repeat=partition.k):
        yield iv, math.prod(weights[j - 1] for j in iv)
