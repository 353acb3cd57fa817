"""Measure localization, reduction, recombination, and tree pre-processing.

A weighted point cloud propagated through the cubature tree is repeatedly
compressed: points are grouped into balls (localization) and each ball's
sub-measure is replaced by one supported on at most N_p + 1 of its own points
while preserving total mass and all moments of a polynomial test basis.

The balls are independent, so :func:`rmp` reduces them together, in
lockstep.  Each ball runs its own reduction (Litterer & Lyons' hierarchical
scheme) as a generator that yields every reduction problem, a set of lifted
points and their weights, and is sent back the survivors.  The driver groups
the pending problems of all balls by point count and solves each group with
one stacked complete QR, so the number of QR calls follows the steps and the
distinct point counts, not the number of balls.  Stacked QR gives every
matrix bitwise the factors of a call on it alone, so the result is bitwise
that of reducing ball by ball.  :func:`recombine` is the one-ball case.

The pre-processing loop alternates tree propagation steps with this
compression and ends with a sparse per-interval weight table.  Tree nodes are
tracked through merging and reduction as per-node arrays (:class:`Provenance`,
never by coordinate comparison), and the survivors at each knot are read off
as one level of parent rows, path indices and weights (:class:`Level`).
After each recombination it checks that mass and moments were kept.  Nothing
in this module touches vector fields, so a table can be reused for any
dynamics sharing the driving dimension.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidParameter,
    ManifestMismatch,
    MatchFailure,
    NoNullVector,
    RecombinationDefect,
)
from .formulas import CubatureFormula, dumps_17g
from .partition import TimePartition


class Provenance(NamedTuple):
    """The tree nodes on a measure's points: id, point row and weight share.

    Node ``p * q + j`` is child j (0-based) of entry p of the provenance it was
    propagated from.  Each node sits on one point; entries stay in node order.
    """

    node: np.ndarray
    point: np.ndarray
    share: np.ndarray

    def moved(self, place: np.ndarray, factor: np.ndarray | None = None) -> "Provenance":
        """Nodes moved to points ``place[point]`` (dropped at -1), shares times ``factor``."""
        row = place[self.point]
        held = row >= 0
        share = self.share[held] if factor is None else self.share[held] * factor[row[held]]
        return Provenance(self.node[held], row[held], share)


def _first_seen_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's group of bitwise-equal rows (first-seen order), each group's first row."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse], np.sort(first)


@dataclass
class DiscreteMeasure:
    """Weighted point cloud in R^D, optionally carrying tree-node provenance.

    ``provenance`` (see :class:`Provenance`) records which tree nodes landed
    on each point and the share of the point's weight each carries.  Shares
    sum to the point weight; when a reduction rescales a point, its shares
    rescale proportionally, so the read-off weights reproduce raw product
    weights exactly wherever no reduction occurred.  Weights are
    nonnegative; zero-weight points are removed by :meth:`canonicalize`.
    """

    points: np.ndarray
    weights: np.ndarray
    provenance: Provenance | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.shape[0] != self.weights.shape[0]:
            raise InvalidParameter("points and weights disagree in length")
        if np.any(self.weights < 0):
            raise InvalidParameter("weights must be nonnegative")

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def total_mass(self) -> float:
        return float(math.fsum(self.weights))

    def canonicalize(self) -> "DiscreteMeasure":
        """Merge bitwise-identical points, summing weights in input order and
        keeping their nodes, and drop zero-weight points.  First-seen order."""
        group, first = _first_seen_groups(self.points)
        weights = np.zeros(first.size)
        np.add.at(weights, group, self.weights)
        keep = weights > 0.0
        provenance = self.provenance
        if provenance is not None:
            provenance = provenance.moved(np.where(keep, np.cumsum(keep) - 1, -1)[group])
        return DiscreteMeasure(self.points[first[keep]], weights[keep], provenance)

    def reweighted(self, indices, new_weights) -> "DiscreteMeasure":
        """Subset with new weights; provenance shares rescale proportionally."""
        indices = np.asarray(indices, dtype=int)
        new_weights = np.asarray(new_weights, dtype=float)
        provenance = self.provenance
        if provenance is not None:
            old = self.weights[indices]
            factor = np.divide(new_weights, old, out=np.zeros_like(new_weights), where=old > 0)
            place = np.full(self.size, -1)
            place[indices] = np.arange(indices.size)
            provenance = provenance.moved(place, factor)
        return DiscreteMeasure(self.points[indices], new_weights, provenance)


@dataclass(frozen=True)
class TestBasis:
    """Monomials of total degree 1..degree on R^dim (constants excluded).

    Mass preservation is enforced separately by the sum-to-zero constraint of
    the reduction step, so the constant monomial carries no information here.
    """

    __test__ = False  # not a pytest class, despite the domain name

    dim: int
    degree: int
    exponents: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        if self.dim < 1 or self.degree < 1:
            raise InvalidParameter("basis needs dim >= 1 and degree >= 1")
        exps = []
        for total in range(1, self.degree + 1):
            for combo in combinations_with_replacement(range(self.dim), total):
                e = [0] * self.dim
                for axis in combo:
                    e[axis] += 1
                exps.append(tuple(e))
        exps.sort(key=lambda e: (sum(e), e))
        object.__setattr__(self, "exponents", tuple(exps))

    @property
    def size(self) -> int:
        """Number of test functions N_p = C(dim + degree, degree) - 1."""
        return len(self.exponents)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Monomial values, shape (n_points, N_p)."""
        points = np.atleast_2d(points)
        n = points.shape[0]
        out = np.empty((n, self.size))
        for j, exp in enumerate(self.exponents):
            col = np.ones(n)
            for axis, power in enumerate(exp):
                if power:
                    col = col * points[:, axis] ** power
            out[:, j] = col
        return out


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    indices: np.ndarray


@dataclass(frozen=True)
class Localization:
    """Disjoint cover of a measure's support by balls of a common radius."""

    balls: tuple[Ball, ...]
    radius: float


def localize(measure: DiscreteMeasure, radius: float) -> Localization:
    """Grid localization: axis-aligned cells of width 2*radius/sqrt(D).

    Each point goes to exactly one cell, and the cell half-diagonal equals
    the radius, so every member lies within ``radius`` of its cell center.
    """
    if radius <= 0:
        raise InvalidParameter(f"radius must be positive, got {radius}")
    if measure.size == 0:
        return Localization(balls=(), radius=radius)
    width = 2.0 * radius / math.sqrt(measure.dim)
    keys = np.floor(measure.points / width).astype(np.int64)
    cell, first = _first_seen_groups(keys)
    members = np.split(np.argsort(cell, kind="stable"), np.cumsum(np.bincount(cell))[:-1])
    centers = (keys[first] + 0.5) * width
    balls = tuple(Ball(center=c, indices=m) for c, m in zip(centers, members))
    return Localization(balls=balls, radius=radius)


def singleton_localization(measure: DiscreteMeasure) -> Localization:
    """One ball per support point: localization that blocks all reduction."""
    balls = tuple(
        Ball(center=measure.points[i].copy(), indices=np.array([i]))
        for i in range(measure.size)
    )
    return Localization(balls=balls, radius=0.0)


def _reduce_batch(
    lifted: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One reduction step on each of B problems of n pre-lifted points.

    ``lifted`` has shape (B, n, N_p) and ``weights`` shape (B, n).  One
    stacked complete QR of the constraint matrices ``[1 | lifted]`` gives
    every problem a kernel vector, column N_p + 1 of its Q factor; each
    matrix gets bitwise the factors a call on it alone would give.  The sign
    is fixed so the first significant entry is positive; the sum-to-zero
    constraint then guarantees entries of both signs.

    Returns (new_weights, keep, usable).  In each usable row at least one
    point is dropped: ties in the ratio test break at the lowest index, and
    any further exact zeros are dropped too.  A row whose kernel vector has
    no positive entry is not usable.  Raises NoNullVector when n <= N_p + 1,
    where the constraints leave no kernel vector to take.
    """
    n_batch, n, n_basis = lifted.shape
    if n <= n_basis + 1:
        raise NoNullVector(
            f"{n} points under {n_basis + 1} constraints leave no kernel vector"
        )
    mats = np.concatenate([np.ones((n_batch, n, 1)), lifted], axis=2)
    q_full, _ = np.linalg.qr(mats, mode="complete")
    u = q_full[:, :, n_basis + 1]
    mag = np.abs(u)
    first = np.argmax(mag > 1e-12 * mag.max(axis=1, keepdims=True), axis=1)
    rows = np.arange(n_batch)
    u = np.where((u[rows, first] < 0)[:, None], -u, u)
    positive = u > 0
    ratios = np.where(positive, weights / np.where(positive, u, 1.0), np.inf)
    star = np.argmin(ratios, axis=1)
    alpha = ratios[rows, star]
    new_weights = weights - alpha[:, None] * u
    new_weights[rows, star] = 0.0
    np.maximum(new_weights, 0.0, out=new_weights)
    keep = new_weights > 0.0
    keep[rows, star] = False
    return new_weights, keep, positive.any(axis=1)


def _reduce_points(lifted: np.ndarray, weights: np.ndarray, target: int):
    """Step one point set down to ``target`` points.

    A generator: it yields each step's problem ``(lifted, weights)`` and is
    sent back the step's ``(new_weights, keep)``, or ``None`` when the step
    found no usable kernel vector, which ends the reduction early.  Returns
    (surviving local indices, their weights, steps taken).
    """
    local = np.arange(weights.shape[0])
    steps = 0
    while local.shape[0] > target:
        step = yield lifted[local], weights
        if step is None:
            break
        new_weights, keep = step
        local = local[keep]
        weights = new_weights[keep]
        steps += 1
    return local, weights, steps


def _recombine_ball(points: np.ndarray, weights: np.ndarray, lifted: np.ndarray, target: int):
    """Compress one ball to at most ``target`` of its points; a generator.

    Hierarchical scheme: partition the support into 2*target consecutive
    chunks, reduce the chunk centers of mass in the lifted monomial space,
    re-expand surviving chunks, and repeat; small supports are reduced
    point-by-point.  Every reduction step is yielded as in
    :func:`_reduce_points`.  Returns (indices into the ball in output order,
    their new weights, outer rounds, reduction steps).
    """
    wts = weights.copy()
    # lexicographic position order makes the consecutive chunks below
    # spatially coherent, so a killed chunk moves mass only locally
    idx = np.lexsort(points.T[::-1])
    rounds = 0
    steps = 0
    while idx.shape[0] > target:
        rounds += 1
        n = idx.shape[0]
        if n <= 2 * target:
            # chunks would be singletons: reduce the points directly
            local, w, done = yield from _reduce_points(lifted[idx], wts[idx], target)
            steps += done
            wts[idx[local]] = w
            idx = idx[local]
            break
        groups = 2 * target
        bounds = np.linspace(0, n, groups + 1).astype(int)
        w_all = wts[idx]
        lifted_all = lifted[idx]
        nu = np.array([w_all[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])
        com = np.array(
            [
                (w_all[a:b, None] * lifted_all[a:b]).sum(axis=0)
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
        )
        live = nu > 0
        com[live] /= nu[live, None]
        kept, gnu, done = yield from _reduce_points(com[live], nu[live], target)
        steps += done
        glocal = np.flatnonzero(live)[kept]
        new_idx = []
        new_wts = np.zeros_like(wts)
        for g, nu_tilde in zip(glocal, gnu):
            members = idx[bounds[g] : bounds[g + 1]]
            new_wts[members] = wts[members] * (nu_tilde / nu[g])
            new_idx.append(members)
        idx = np.concatenate(new_idx) if new_idx else np.zeros(0, dtype=int)
        wts = new_wts
        if glocal.shape[0] > target:
            break  # kernel exhausted early; support stays above target
    idx = idx[wts[idx] > 0]
    return idx, wts[idx], rounds, steps


# Upper bound on the entries of one stacked Q factor (8 MB), so that a large
# basis over many balls cannot build one huge stack.
_QR_STACK_ENTRIES = 1 << 20


def _recombine_balls(
    points: np.ndarray, weights: np.ndarray, lifted: np.ndarray, balls, target: int
) -> list[tuple[np.ndarray, np.ndarray, int, int]]:
    """Recombine every ball in lockstep; one :func:`_recombine_ball` result per ball.

    ``balls`` holds each ball's indices into ``points``, ``weights`` and
    ``lifted`` (the basis values of every point).  Each lockstep round groups
    the balls' pending reduction problems by point count n and takes one
    batched step per group, so the QR calls grow with the distinct problem
    sizes, not with the number of balls.
    """
    runs = [_recombine_ball(points[b], weights[b], lifted[b], target) for b in balls]
    results: list = [None] * len(runs)
    pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def advance(i: int, sent) -> None:
        try:
            pending[i] = runs[i].send(sent)
        except StopIteration as done:
            results[i] = done.value

    for i in range(len(runs)):
        advance(i, None)
    while pending:
        by_size: dict[int, list[int]] = {}
        for i, (_, w) in pending.items():
            by_size.setdefault(w.shape[0], []).append(i)
        problems, pending = pending, {}
        for n, members in by_size.items():
            per_stack = max(1, _QR_STACK_ENTRIES // (n * n))
            for lo in range(0, len(members), per_stack):
                part = members[lo : lo + per_stack]
                new_weights, keep, usable = _reduce_batch(
                    np.stack([problems[i][0] for i in part]),
                    np.stack([problems[i][1] for i in part]),
                )
                for row, i in enumerate(part):
                    advance(i, (new_weights[row], keep[row]) if usable[row] else None)
    return results


@dataclass(frozen=True)
class RecombineStats:
    """Diagnostics of one recombination run."""

    input_size: int
    output_size: int
    outer_rounds: int
    reduction_steps: int


def recombine(
    measure: DiscreteMeasure, basis: TestBasis, with_stats: bool = False
):
    """Compress a measure to at most N_p + 1 of its own points.

    The one-ball case of :func:`rmp`, by the hierarchical scheme of
    :func:`_recombine_ball`.  Mass and all basis moments are preserved to
    roundoff and every output point is an input point (index-based pruning).
    """
    ((idx, weights, rounds, steps),) = _recombine_balls(
        measure.points,
        measure.weights,
        basis.evaluate(measure.points),
        [np.arange(measure.size)],
        basis.size + 1,
    )
    out = measure.reweighted(idx, weights)
    if with_stats:
        stats = RecombineStats(
            input_size=measure.size,
            output_size=out.size,
            outer_rounds=rounds,
            reduction_steps=steps,
        )
        return out, stats
    return out


def rmp(
    measure: DiscreteMeasure, localization: Localization, basis: TestBasis
) -> DiscreteMeasure:
    """Reduce within each ball independently and take the union.

    Per-ball support is at most N_p + 1, so the output has at most
    l * (N_p + 1) points for l balls.  The balls are reduced together, in
    lockstep, over one evaluation of the basis; the output lists each
    ball's survivors in ball order.
    """
    if measure.size == 0:
        return measure
    balls = [ball.indices for ball in localization.balls]
    results = _recombine_balls(
        measure.points, measure.weights, basis.evaluate(measure.points), balls, basis.size + 1
    )
    indices = np.concatenate([b[idx] for b, (idx, _, _, _) in zip(balls, results)])
    weights = np.concatenate([w for _, w, _, _ in results])
    return measure.reweighted(indices, weights)


def klv_step(measure: DiscreteMeasure, formula: CubatureFormula, s: float) -> DiscreteMeasure:
    """Propagate a measure one subinterval through all scaled path endpoints.

    Every point x spawns q children ``x + sqrt(s) * omega_j(1)`` (Brownian
    components) with weight multiplied by the formula weight.  Children are
    returned unmerged; colliding points merge in :meth:`canonicalize`.  Each
    provenance entry e gets q child nodes: ``e * q + j`` on point
    ``row * q + j``, share times w_j.
    """
    if s <= 0:
        raise InvalidParameter(f"subinterval length must be positive, got {s}")
    if measure.dim != formula.dim:
        raise InvalidParameter(
            f"measure dim {measure.dim} != driving dim {formula.dim}"
        )
    offsets = math.sqrt(s) * formula.brownian_endpoints()
    q = formula.q
    n = measure.size
    w = np.asarray(formula.weights)
    points = (measure.points[:, None, :] + offsets[None, :, :]).reshape(n * q, measure.dim)
    weights = (measure.weights[:, None] * w[None, :]).reshape(n * q)
    provenance = measure.provenance
    if provenance is not None:
        child = np.tile(np.arange(q), provenance.node.size)
        provenance = Provenance(
            np.arange(child.size),
            np.repeat(provenance.point * q, q) + child,
            np.repeat(provenance.share, q) * w[child],
        )
    return DiscreteMeasure(points, weights, provenance)


class Level(NamedTuple):
    """One level of the kept tree, rows sorted by (parent, j), which is prefix order.

    Row r is child ``j[r]`` (0-based formula path) of row ``parent[r]`` of the
    level before (the root for level 1), with weight ``weight[r]``.
    """

    parent: np.ndarray
    j: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class WeightTable:
    """Sparse per-interval weights produced by pre-processing.

    ``levels[i-1]`` holds each surviving length-i prefix and its weight; the
    last level's rows are the leaves.  A merged support point's weight is
    distributed over its prefixes in proportion to the mass each contributed,
    which preserves mass and recovers the raw product weights exactly
    wherever no reduction occurred.  ``moment_defects[i-1]`` is the relative
    mass and moment defect that recombination left at interval i (see
    :func:`moment_defect`), ``None`` where the interval was not reduced.

    JSON lists each interval's ``[prefix, weight]`` pairs in prefix order,
    1-based; :meth:`from_json` checks every prefix.
    """

    k: int
    levels: tuple[Level, ...]
    survivor_counts: tuple[int, ...]
    radii: tuple[float | None, ...]
    moment_defects: tuple[float | None, ...]
    seconds: float
    manifest: dict

    def check_inputs(self, formula: CubatureFormula, partition: TimePartition) -> None:
        """Raise ``ManifestMismatch`` unless the table was built for these inputs,
        and ``IndexOutOfRange`` if interval 1, which bounds every entry, exceeds q."""
        manifest = self.manifest
        if manifest.get("formula_hash") != formula.formula_hash():
            raise ManifestMismatch("weight table was built from a different formula")
        if manifest.get("k") != partition.k or manifest.get("horizon") != partition.horizon:
            raise ManifestMismatch("weight table was built from a different partition")
        if manifest.get("gamma") != partition.gamma:
            raise ManifestMismatch("weight table was built with a different gamma")
        if self.levels and self.levels[0].j.size > formula.q:
            n = self.levels[0].j.size
            raise IndexOutOfRange(f"weight table interval 1 holds {n} prefixes, q is {formula.q}")

    @property
    def n_leaves(self) -> int:
        return self.levels[-1].weight.size

    def interval_mass(self, i: int) -> float:
        """Total weight at interval i (1-based)."""
        return float(math.fsum(self.levels[i - 1].weight))

    def prefixes(self, i: int) -> np.ndarray:
        """Interval i's prefixes (1-based), read back along the parents; (n_i, i)."""
        row = np.arange(self.levels[i - 1].j.size)
        out = np.empty((row.size, i), dtype=int)
        for level in range(i - 1, -1, -1):
            out[:, level] = self.levels[level].j[row] + 1
            row = self.levels[level].parent[row]
        return out

    def to_json(self) -> str:
        doc = {
            "manifest": self.manifest,
            "k": self.k,
            "seconds": self.seconds,
            "survivor_counts": list(self.survivor_counts),
            "radii": [r for r in self.radii],
            "moment_defects": list(self.moment_defects),
            "intervals": [
                [list(pair) for pair in zip(self.prefixes(i).tolist(), level.weight.tolist())]
                for i, level in enumerate(self.levels, 1)
            ],
        }
        return dumps_17g(doc)

    @staticmethod
    def from_json(text: str) -> "WeightTable":
        doc = json.loads(text)
        return WeightTable(
            k=int(doc["k"]),
            levels=_read_levels(doc["intervals"], int(doc["k"])),
            survivor_counts=tuple(int(c) for c in doc["survivor_counts"]),
            radii=tuple(None if r is None else float(r) for r in doc["radii"]),
            moment_defects=tuple(
                None if d is None else float(d) for d in doc["moment_defects"]
            ),
            seconds=float(doc["seconds"]),
            manifest=doc["manifest"],
        )


def _read_levels(intervals: list, k: int) -> tuple[Level, ...]:
    """Levels from the JSON intervals, each sorted; the first bad prefix raises.

    A prefix of interval i has i entries, each from 1 to the size of interval 1
    (never reduced, so q, which ``check_inputs`` checks), extends a prefix of
    interval i-1 and appears once; else ``IndexOutOfRange`` names it.
    """
    top = len(intervals[0]) if intervals else 0
    levels, rows = [], {(): 0}  # rows: interval i-1's prefixes and their rows
    for i, entries in enumerate(intervals, 1):
        kept: dict[tuple[int, ...], float] = {}
        for prefix, w in sorted((tuple(int(e) for e in p), float(w)) for p, w in entries):
            if len(prefix) != i:
                why = f"does not have {i} entries"
            elif not all(1 <= e <= top for e in prefix):
                why = f"has an entry outside 1..{top}"
            elif prefix[:-1] not in rows:
                why = f"extends no prefix of interval {i - 1}"
            elif prefix in kept:
                why = "appears twice"
            else:
                kept[prefix] = w
                continue
            raise IndexOutOfRange(f"weight table interval {i} of {k}: prefix {prefix} {why}")
        parent, j = np.array([(rows[p[:-1]], p[-1] - 1) for p in kept], dtype=int).reshape(-1, 2).T
        levels.append(Level(parent, j, np.array(list(kept.values()))))
        rows = {prefix: row for row, prefix in enumerate(kept)}
    return tuple(levels)


MOMENT_DEFECT_TOL = 1e-10


def moment_defect(
    before: DiscreteMeasure, after: DiscreteMeasure, basis: TestBasis
) -> float:
    """Largest relative change in total mass or in any basis moment.

    A moment's change is taken relative to the input's absolute moment
    sum_i w_i |phi(x_i)|, so moments that vanish by symmetry stay defined.
    """
    mass_in = before.total_mass()
    worst = abs(after.total_mass() - mass_in) / mass_in
    phi_in = basis.evaluate(before.points)
    phi_out = basis.evaluate(after.points)
    change = np.abs(after.weights @ phi_out - before.weights @ phi_in)
    scale = np.maximum(before.weights @ np.abs(phi_in), np.finfo(float).tiny)
    return max(worst, float(np.max(change / scale)))


def radius_schedule(partition: TimePartition, p_star: int) -> np.ndarray:
    """Localization radii u_i = s_i**(p_star / (2*gamma)) per subinterval."""
    return partition.lengths ** (p_star / (2.0 * partition.gamma))


def preprocess(
    formula: CubatureFormula,
    partition: TimePartition,
    basis: TestBasis,
    p_star: int = 1,
    radius_mode: str = "schedule",
) -> WeightTable:
    """Run the pre-processing loop and read off sparse per-interval weights.

    The first and last subintervals are propagated without reduction; in
    between, each propagation is followed by localization at the scheduled
    radius and per-ball recombination.  ``radius_mode='singleton'`` uses one
    ball per point (no reduction can occur), which reproduces the raw tree.
    Each recombination is checked while the loop runs: a mass or moment
    defect past ``MOMENT_DEFECT_TOL`` raises :class:`RecombinationDefect`.

    The loop never evaluates vector fields: its output depends only on the
    formula, partition, basis, and radii.
    """
    if partition.k < 2:
        raise InvalidParameter("pre-processing needs k >= 2")
    if basis.dim != formula.dim:
        raise InvalidParameter(
            f"basis dim {basis.dim} != driving dim {formula.dim}"
        )
    if p_star < 1:
        raise InvalidParameter(f"p_star must be a positive integer, got {p_star}")
    if radius_mode not in ("schedule", "singleton"):
        raise InvalidParameter(f"unknown radius mode {radius_mode!r}")
    start = time.perf_counter()
    radii_all = radius_schedule(partition, p_star)
    k = partition.k
    lengths = partition.lengths
    root = Provenance(np.zeros(1, dtype=int), np.zeros(1, dtype=int), np.ones(1))
    measure = DiscreteMeasure(np.zeros((1, formula.dim)), np.ones(1), root)
    levels: list[Level] = []
    counts: list[int] = []
    radii: list[float | None] = []
    defects: list[float | None] = []
    for i in range(1, k + 1):
        measure = klv_step(measure, formula, lengths[i - 1]).canonicalize()
        if 2 <= i <= k - 1:
            if radius_mode == "schedule":
                radius = float(radii_all[i - 1])
                loc = localize(measure, radius)
            else:
                radius = None
                loc = singleton_localization(measure)
            reduced = rmp(measure, loc, basis)
            defect = moment_defect(measure, reduced, basis)
            if not defect <= MOMENT_DEFECT_TOL:  # NaN fails too
                raise RecombinationDefect(
                    f"recombination at interval {i} of {k} changed the mass or a "
                    f"moment by {defect:.3g} (relative), past {MOMENT_DEFECT_TOL:g}",
                    interval=i,
                    defect=defect,
                )
            measure = reduced
            radii.append(radius)
            defects.append(defect)
        else:
            radii.append(None)
            defects.append(None)
        # the surviving nodes, in order, are this level's rows
        node, point, share = measure.provenance
        if not np.bincount(point, minlength=measure.size).all():
            raise MatchFailure("surviving support point has no tree prefix")
        levels.append(Level(node // formula.q, node % formula.q, share))
        counts.append(measure.size)
    seconds = time.perf_counter() - start
    manifest = {
        "formula_hash": formula.formula_hash(),
        "degree": formula.degree,
        "dim": formula.dim,
        "horizon": partition.horizon,
        "k": partition.k,
        "gamma": partition.gamma,
        "gamma_radius": partition.gamma,
        "p_star": p_star,
        "basis_degree": basis.degree,
        "basis_dim": basis.dim,
        "radius_mode": radius_mode,
    }
    return WeightTable(
        k=k,
        levels=tuple(levels),
        survivor_counts=tuple(counts),
        radii=tuple(radii),
        moment_defects=tuple(defects),
        seconds=seconds,
        manifest=manifest,
    )
