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
compression and ends with a sparse per-interval weight table; surviving
support points are traced back to tree prefixes by provenance tracking, never
by coordinate comparison.  After each recombination it checks that mass and
moments were kept.  Nothing in this module touches vector fields, so a table
can be reused for any dynamics sharing the driving dimension.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    InvalidParameter,
    ManifestMismatch,
    MatchFailure,
    NoNullVector,
    RecombinationDefect,
)
from .formulas import CubatureFormula, dumps_17g
from .partition import IndexVector, TimePartition

Prefix = tuple[int, ...]


@dataclass
class DiscreteMeasure:
    """Weighted point cloud in R^D, optionally carrying tree-prefix provenance.

    ``provenance[i]`` lists ``(prefix, share)`` pairs: the index-vector
    prefixes whose tree positions landed on ``points[i]`` and the portion of
    the point's weight each carries.  Shares sum to the point weight; when a
    reduction rescales a point, its shares rescale proportionally, so the
    read-off weights reproduce raw product weights exactly wherever no
    reduction occurred.  Weights are nonnegative; zero-weight points are
    removed by :meth:`canonicalize`.
    """

    points: np.ndarray
    weights: np.ndarray
    provenance: tuple[tuple[tuple[Prefix, float], ...], ...] | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.shape[0] != self.weights.shape[0]:
            raise InvalidParameter("points and weights disagree in length")
        if np.any(self.weights < 0):
            raise InvalidParameter("weights must be nonnegative")
        if self.provenance is not None and len(self.provenance) != len(self.weights):
            raise InvalidParameter("provenance and weights disagree in length")

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def total_mass(self) -> float:
        return float(math.fsum(self.weights))

    def canonicalize(self) -> "DiscreteMeasure":
        """Merge bitwise-identical points (summing weights, concatenating
        provenance shares) and drop zero-weight points.  First-seen order."""
        slots: dict[bytes, int] = {}
        pts: list[np.ndarray] = []
        wts: list[float] = []
        prov: list[list] | None = [] if self.provenance is not None else None
        for i in range(self.size):
            key = self.points[i].tobytes()
            if key in slots:
                j = slots[key]
                wts[j] += self.weights[i]
                if prov is not None:
                    prov[j].extend(self.provenance[i])
            else:
                slots[key] = len(pts)
                pts.append(self.points[i])
                wts.append(float(self.weights[i]))
                if prov is not None:
                    prov.append(list(self.provenance[i]))
        keep = [j for j, w in enumerate(wts) if w > 0.0]
        points = np.array([pts[j] for j in keep]) if keep else np.zeros((0, self.dim))
        weights = np.array([wts[j] for j in keep])
        provenance = None
        if prov is not None:
            provenance = tuple(tuple(sorted(prov[j])) for j in keep)
        return DiscreteMeasure(points, weights, provenance)

    def subset(self, indices) -> "DiscreteMeasure":
        indices = np.asarray(indices, dtype=int)
        prov = None
        if self.provenance is not None:
            prov = tuple(self.provenance[i] for i in indices)
        return DiscreteMeasure(self.points[indices], self.weights[indices], prov)

    def reweighted(self, indices, new_weights) -> "DiscreteMeasure":
        """Subset with new weights; provenance shares rescale proportionally."""
        indices = np.asarray(indices, dtype=int)
        new_weights = np.asarray(new_weights, dtype=float)
        prov = None
        if self.provenance is not None:
            scaled = []
            for i, w_new in zip(indices, new_weights):
                w_old = self.weights[i]
                factor = w_new / w_old if w_old > 0 else 0.0
                scaled.append(
                    tuple((prefix, share * factor) for prefix, share in self.provenance[i])
                )
            prov = tuple(scaled)
        return DiscreteMeasure(self.points[indices], new_weights, prov)


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
    cells: dict[bytes, list[int]] = {}
    order: list[bytes] = []
    for i in range(measure.size):
        key = keys[i].tobytes()
        if key not in cells:
            cells[key] = []
            order.append(key)
        cells[key].append(i)
    balls = []
    for key in order:
        idx = np.array(cells[key], dtype=int)
        center = (keys[idx[0]] + 0.5) * width
        balls.append(Ball(center=center, indices=idx))
    return Localization(balls=tuple(balls), radius=radius)


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
    returned unmerged; colliding points merge in :meth:`canonicalize`.
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
    points = (measure.points[:, None, :] + offsets[None, :, :]).reshape(n * q, measure.dim)
    weights = (measure.weights[:, None] * np.asarray(formula.weights)[None, :]).reshape(n * q)
    prov = None
    if measure.provenance is not None:
        prov = tuple(
            tuple(
                (prefix + (j + 1,), share * formula.weights[j])
                for prefix, share in measure.provenance[i]
            )
            for i in range(n)
            for j in range(q)
        )
    return DiscreteMeasure(points, weights, prov)


@dataclass(frozen=True)
class WeightTable:
    """Sparse per-interval weights produced by pre-processing.

    ``intervals[i-1]`` maps each surviving length-i prefix to its weight; the
    last interval's map is the set of leaves whose controlled ODEs must be
    solved.  A merged support point's weight is distributed over its prefixes
    in proportion to the mass each contributed, which preserves mass and
    recovers the raw product weights exactly wherever no reduction occurred.
    ``moment_defects[i-1]`` is the relative mass and moment defect that
    recombination left at interval i (see :func:`moment_defect`), ``None``
    where the interval was not reduced.
    """

    k: int
    intervals: tuple[dict[IndexVector, float], ...]
    survivor_counts: tuple[int, ...]
    radii: tuple[float | None, ...]
    moment_defects: tuple[float | None, ...]
    seconds: float
    manifest: dict

    def leaf_weights(self) -> dict[IndexVector, float]:
        return self.intervals[-1]

    def check_inputs(self, formula: CubatureFormula, partition: TimePartition) -> None:
        """Raise ``ManifestMismatch`` unless the table was built for these inputs."""
        manifest = self.manifest
        if manifest.get("formula_hash") != formula.formula_hash():
            raise ManifestMismatch("weight table was built from a different formula")
        if manifest.get("k") != partition.k or manifest.get("horizon") != partition.horizon:
            raise ManifestMismatch("weight table was built from a different partition")
        if manifest.get("gamma") != partition.gamma:
            raise ManifestMismatch("weight table was built with a different gamma")

    @property
    def n_leaves(self) -> int:
        return len(self.intervals[-1])

    def interval_mass(self, i: int) -> float:
        """Total weight at interval i (1-based)."""
        return float(math.fsum(self.intervals[i - 1].values()))

    def to_json(self) -> str:
        doc = {
            "manifest": self.manifest,
            "k": self.k,
            "seconds": self.seconds,
            "survivor_counts": list(self.survivor_counts),
            "radii": [r for r in self.radii],
            "moment_defects": list(self.moment_defects),
            "intervals": [
                [[list(prefix), w] for prefix, w in sorted(table.items())]
                for table in self.intervals
            ],
        }
        return dumps_17g(doc)

    @staticmethod
    def from_json(text: str) -> "WeightTable":
        doc = json.loads(text)
        intervals = tuple(
            {tuple(int(j) for j in prefix): float(w) for prefix, w in entries}
            for entries in doc["intervals"]
        )
        return WeightTable(
            k=int(doc["k"]),
            intervals=intervals,
            survivor_counts=tuple(int(c) for c in doc["survivor_counts"]),
            radii=tuple(None if r is None else float(r) for r in doc["radii"]),
            moment_defects=tuple(
                None if d is None else float(d) for d in doc["moment_defects"]
            ),
            seconds=float(doc["seconds"]),
            manifest=doc["manifest"],
        )


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
    measure = DiscreteMeasure(
        np.zeros((1, formula.dim)), np.ones(1), provenance=((((), 1.0),),)
    )
    tables: list[dict[IndexVector, float]] = []
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
        table: dict[IndexVector, float] = {}
        for point_prefixes, weight in zip(measure.provenance, measure.weights):
            if not point_prefixes:
                raise MatchFailure("surviving support point has no tree prefix")
            for prefix, share in point_prefixes:
                table[prefix] = table.get(prefix, 0.0) + share
        tables.append(table)
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
        intervals=tuple(tables),
        survivor_counts=tuple(counts),
        radii=tuple(radii),
        moment_defects=tuple(defects),
        seconds=seconds,
        manifest=manifest,
    )
