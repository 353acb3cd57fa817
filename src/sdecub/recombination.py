"""Measure localization, reduction, recombination, and tree pre-processing.

A weighted point cloud propagated through the cubature tree is repeatedly
compressed: points are grouped into balls (localization) and each ball's
sub-measure is replaced by one supported on at most N_p + 1 of its own points
while preserving total mass and all moments of a polynomial test basis.

The balls are independent, so :func:`rmp` reduces them together, in
lockstep, by Litterer & Lyons' hierarchical scheme.  Every ball of the call
lives in flat arrays (:class:`_Lockstep`): its members in lexicographic
order, their weights, and its pending reduction problem, which is either
its points or the centres of mass of its chunks.  Each lockstep round
groups the pending problems by point count and solves each group with one
stacked complete QR; the chunk masses and centres of mass of all balls that
start a chunked round are formed at once, grouped by chunk length.  So the
Python work follows the rounds and the distinct sizes, not the number of
balls.  Stacked QR gives every matrix bitwise the factors of a call on it
alone, and each chunk is summed over a contiguous run of exactly its own
length, so the result is bitwise that of reducing ball by ball.
:func:`recombine` is the one-ball case.

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

import math
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .errors import (
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
    """Weighted point cloud in R^D carrying tree-node provenance.

    ``provenance`` (see :class:`Provenance`) records which tree nodes landed
    on each point and the share of the point's weight each carries; without
    one, each point is its own node and its share is its weight.  Shares
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
        if self.provenance is None:
            identity = np.arange(self.size)
            self.provenance = Provenance(identity, identity, self.weights)

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
        provenance = self.provenance.moved(np.where(keep, np.cumsum(keep) - 1, -1)[group])
        return DiscreteMeasure(self.points[first[keep]], weights[keep], provenance)

    def reweighted(self, indices, new_weights) -> "DiscreteMeasure":
        """Subset with new weights; provenance shares rescale proportionally."""
        indices = np.asarray(indices, dtype=int)
        new_weights = np.asarray(new_weights, dtype=float)
        old = self.weights[indices]
        factor = np.divide(new_weights, old, out=np.zeros_like(new_weights), where=old > 0)
        place = np.full(self.size, -1)
        place[indices] = np.arange(indices.size)
        provenance = self.provenance.moved(place, factor)
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
        """Monomial values, shape (n_points, N_p).

        Column j is the product over the axes, in axis order, of
        ``points[:, axis] ** power``; a zero power contributes an exact 1.
        """
        points = np.atleast_2d(points)
        # powers[:, axis, p] = points[:, axis] ** p
        powers = np.ones((points.shape[0], self.dim, self.degree + 1))
        for p in range(1, self.degree + 1):
            powers[:, :, p] = points**p
        exps = np.array(self.exponents)
        out = powers[:, 0, exps[:, 0]]
        for axis in range(1, self.dim):
            out = out * powers[:, axis, exps[:, axis]]
        # row-major, as sums over rows of these values round by the layout
        return np.ascontiguousarray(out)


@dataclass(frozen=True)
class Localization:
    """Disjoint cover of a measure's support by balls of a common radius.

    ``members`` lists the point indices ball after ball; ``balls`` holds
    each ball's count.
    """

    members: np.ndarray
    balls: np.ndarray


def localize(measure: DiscreteMeasure, radius: float) -> Localization:
    """Grid localization: axis-aligned cells of width 2*radius/sqrt(D).

    Each point goes to exactly one cell, and the cell half-diagonal equals
    the radius, so every member lies within ``radius`` of its cell center.
    Balls are the cells in first-seen order, members in index order.
    """
    if radius <= 0:
        raise InvalidParameter(f"radius must be positive, got {radius}")
    width = 2.0 * radius / math.sqrt(measure.dim)
    keys = np.floor(measure.points / width).astype(np.int64)
    cell, _ = _first_seen_groups(keys)
    return Localization(np.argsort(cell, kind="stable"), np.bincount(cell))


def singleton_localization(measure: DiscreteMeasure) -> Localization:
    """One ball per support point: localization that blocks all reduction."""
    return Localization(np.arange(measure.size), np.ones(measure.size, dtype=int))


def _reduce_batch(
    constraints: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One reduction step on each of B problems of n points.

    ``constraints`` has shape (B, n, N_p + 1): each point's row is 1 (its
    mass) followed by its N_p basis values.  ``weights`` has shape (B, n).
    One stacked complete QR of the constraint matrices gives every problem a
    kernel vector, column N_p + 1 of its Q factor; each matrix gets bitwise
    the factors a call on it alone would give.  The sign is fixed so the
    first significant entry is positive; the sum-to-zero constraint then
    guarantees entries of both signs.

    Returns (new_weights, keep, usable).  In each usable row at least one
    point is dropped: ties in the ratio test break at the lowest index, and
    any further exact zeros are dropped too.  A row whose kernel vector has
    no positive entry is not usable.  Raises NoNullVector when n <= N_p + 1,
    where the constraints leave no kernel vector to take.
    """
    n_batch, n, n_cols = constraints.shape
    if n <= n_cols:
        raise NoNullVector(f"{n} points under {n_cols} constraints leave no kernel vector")
    q_full, _ = np.linalg.qr(constraints, mode="complete")
    u = q_full[:, :, n_cols]
    mag = np.abs(u)
    first = (mag > 1e-12 * mag.max(axis=1, keepdims=True)).argmax(axis=1)
    rows = np.arange(n_batch)
    u = np.where((u[rows, first] < 0)[:, None], -u, u)
    positive = u > 0
    ratios = np.where(positive, weights / np.where(positive, u, 1.0), np.inf)
    star = ratios.argmin(axis=1)
    alpha = ratios[rows, star]
    new_weights = weights - alpha[:, None] * u
    new_weights[rows, star] = 0.0
    np.maximum(new_weights, 0.0, out=new_weights)
    # the point at the ratio's minimum now weighs 0.0, so it is dropped too
    return new_weights, new_weights > 0.0, positive.any(axis=1)


def _spans(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Positions ``lo[i] .. lo[i] + n[i] - 1`` of every span, span after span."""
    ends = np.cumsum(n)
    return np.repeat(lo - ends + n, n) + np.arange(ends[-1] if n.size else 0)


# Upper bound on the entries of one stacked Q factor (8 MB), so that a large
# basis over many balls cannot build one huge stack.
_QR_STACK_ENTRIES = 1 << 20


class _Lockstep:
    """The state of recombining many balls at once, as flat arrays.

    Litterer & Lyons' hierarchical scheme, per ball: while the ball holds
    more than ``target`` points, an outer round either reduces the points
    directly (at most ``2 * target`` of them) or splits them into
    ``2 * target`` consecutive chunks, reduces the chunks' centres of mass
    in the lifted space, and keeps the points of the surviving chunks,
    rescaled.  A reduction takes one step per lockstep round (:meth:`step`)
    until it holds at most ``target`` rows or finds no usable kernel vector;
    in the chunked phase that exhaustion ends the ball above ``target``.

    ``member`` lists every ball's points, ball after ball, each ball in
    lexicographic order; ball b owns ``member[first[b]:last[b]]`` and its
    points still in play are those ``alive``.  A ball in its chunked phase
    keeps each chunk's mass and size in ``nu`` and ``size``.  The pool holds
    the pending reductions, at most one per ball, grouped by point count n:
    balls (B,), constraint rows (B, n, N_p + 1) as :func:`_reduce_batch`
    takes them, weights (B, n) and what each row stands for (B, n), a point
    or a chunk of its ball.  Every point lies in one ball, so current
    weights are kept per point.
    """

    def __init__(self, weights, lifted, target, member, bounds):
        n_balls = bounds.size - 1
        self.wts, self.lifted, self.target = weights, lifted, target
        self.constraints = np.concatenate([np.ones((lifted.shape[0], 1)), lifted], axis=1)
        self.member, self.first, self.last = member, bounds[:-1], bounds[1:]
        self.alive = np.ones(member.size, dtype=bool)
        self.nu = np.zeros((n_balls, 2 * target))
        self.size = np.zeros((n_balls, 2 * target), dtype=int)
        self.pool: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        self.chunked = np.zeros(n_balls, dtype=bool)
        self.rounds = np.zeros(n_balls, dtype=int)
        # a ball's steps are the rounds its problems spent in the pool, less
        # any round that found no usable kernel vector: a problem subtracts
        # the round clock when posed and adds it back when it ends
        self.steps = np.zeros(n_balls, dtype=int)
        self.clock = 0
        self.out_ball = [np.zeros(0, dtype=int)]
        self.out_point = [np.zeros(0, dtype=int)]
        self._round(np.arange(n_balls), np.arange(member.size), bounds[1:] - bounds[:-1])

    def result(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Survivors ball by ball, their weights, each ball's rounds and steps."""
        order = np.argsort(np.concatenate(self.out_ball), kind="stable")
        point = np.concatenate(self.out_point)[order]
        return point, self.wts[point], self.rounds, self.steps

    def step(self) -> None:
        """One reduction step of every pending problem, one stacked QR per
        point count and stack; then the ended reductions move on."""
        pool, self.pool = self.pool, {}
        self.clock += 1
        ended = []
        for n, (balls, lift, w, ref) in pool.items():
            per_stack = max(1, _QR_STACK_ENTRIES // (n * n))
            parts = [
                _reduce_batch(lift[lo : lo + per_stack], w[lo : lo + per_stack])
                for lo in range(0, balls.size, per_stack)
            ]
            new_w, keep, usable = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
            left = keep.sum(axis=1)
            ends = left <= self.target
            if not usable.all():
                # without a usable kernel vector a problem keeps its rows and ends
                new_w[~usable], keep[~usable], left[~usable] = w[~usable], True, n
                ends |= ~usable
            if ends.all():
                ended.append((balls, left, usable, new_w[keep], ref[keep]))
                continue
            if ends.any():
                rows = keep[ends]
                ended.append(
                    (balls[ends], left[ends], usable[ends], new_w[ends][rows], ref[ends][rows])
                )
                stay = ~ends
                balls, lift, new_w, ref = balls[stay], lift[stay], new_w[stay], ref[stay]
                keep, left = keep[stay], left[stay]
            self._add(balls, left, lift[keep], new_w[keep], ref[keep])
        if ended:
            self._end(*(map(np.concatenate, zip(*ended)) if ended[1:] else ended[0]))

    def _add(self, balls, counts, lift, w, ref) -> None:
        """Pool one problem per ball, ``counts`` of the flat rows each."""
        if not balls.size:
            return
        m = counts[0]
        if (counts == m).all():
            groups = [(m, balls, lift, w, ref)]
        else:
            groups = []
            for m in np.unique(counts):
                rows = np.repeat(counts == m, counts)
                groups.append((m, balls[counts == m], lift[rows], w[rows], ref[rows]))
        for m, balls, lift, w, ref in groups:
            part = balls, lift.reshape(-1, m, lift.shape[1]), w.reshape(-1, m), ref.reshape(-1, m)
            held = self.pool.get(m)
            self.pool[m] = part if held is None else tuple(map(np.concatenate, zip(held, part)))

    def _pose(self, balls, counts, lift, w, ref) -> None:
        """Pool new problems, starting their step count."""
        self.steps[balls] -= self.clock
        self._add(balls, counts, lift, w, ref)

    def _end(self, balls, counts, usable, w, ref) -> None:
        """Act on the reductions that ended this round."""
        self.steps[balls] += self.clock - ~usable
        chunked = self.chunked[balls]
        rows = np.repeat(chunked, counts)
        if not chunked.all():
            # a direct reduction's survivors end the ball
            self.wts[ref[~rows]] = w[~rows]
            self._emit(np.repeat(balls[~chunked], counts[~chunked]), ref[~rows])
        if chunked.any():
            self._round(*self._rescale(balls[chunked], counts[chunked], ref[rows], w[rows]))

    def _emit(self, ball: np.ndarray, point: np.ndarray) -> None:
        """Output the points of positive weight among ``point`` (of ``ball``)."""
        live = self.wts[point] > 0
        self.out_ball.append(ball[live])
        self.out_point.append(point[live])

    def _round(self, balls, pos, n) -> None:
        """Begin the next outer round of ``balls``, whose points in play sit
        at ``pos`` in ``member``, ``n`` per ball; end those with at most
        ``target``."""
        t = self.target
        while balls.size:
            small = n <= t
            if small.any():
                rows = np.repeat(small, n)
                self._emit(np.repeat(balls[small], n[small]), self.member[pos[rows]])
                balls, pos, n = balls[~small], pos[~rows], n[~small]
            self.rounds[balls] += 1
            direct = n <= 2 * t
            self.chunked[balls] = ~direct
            if direct.any():
                rows = np.repeat(direct, n)
                point = self.member[pos[rows]]
                self._pose(
                    balls[direct], n[direct], self.constraints[point], self.wts[point], point
                )
                balls, pos, n = balls[~direct], pos[~rows], n[~direct]
            balls, pos, n = self._chunk(balls, pos, n)

    def _chunk(self, balls, pos, n):
        """Split ``balls`` into chunks and pose the reductions of their
        centres of mass.  Balls with at most ``target`` live chunks need no
        reduction; returns them, rescaled, as :meth:`_rescale` does."""
        if not balls.size:
            return balls, pos, n
        groups = 2 * self.target
        # chunk bounds int(g * (n / groups)) and n, as np.linspace(0, n, groups + 1)
        bounds = (np.arange(groups + 1) * (n / groups)[:, None]).astype(int)
        bounds[:, -1] = n
        size = bounds[:, 1:] - bounds[:, :-1]
        start = bounds[:, :-1] + (np.cumsum(n) - n)[:, None]
        point = self.member[pos]
        nu = np.empty(size.shape)
        com = np.ones(size.shape + (self.constraints.shape[1],))
        for length in np.flatnonzero(np.bincount(size.ravel())):
            chunks = size == length
            idx = point[start[chunks][:, None] + np.arange(length)]
            w = self.wts[idx]
            # each row sums one contiguous run of exactly the chunk's length,
            # so it rounds as the chunk's own slice sum would
            nu[chunks] = w.sum(axis=1)
            com[chunks, 1:] = (w[:, :, None] * self.lifted[idx]).sum(axis=1)
        live = nu > 0
        np.divide(com[..., 1:], nu[..., None], out=com[..., 1:], where=live[..., None])
        self.nu[balls], self.size[balls] = nu, size
        n_live = live.sum(axis=1)
        many = n_live > self.target
        posed = live & many[:, None]
        self._pose(balls[many], n_live[many], com[posed], nu[posed], np.nonzero(posed)[1])
        if many.all():
            return balls[:0], pos[:0], n[:0]
        few = live & ~many[:, None]
        return self._rescale(balls[~many], n_live[~many], np.nonzero(few)[1], nu[few])

    def _rescale(self, balls, counts, chunk, mass):
        """Keep the points of each ball's surviving chunks (``counts`` per
        ball: ``chunk``, with new ``mass``), rescaled to the new mass; end
        the balls whose kernel ran out above ``target``.  Returns the other
        balls with the positions and counts of their points in play."""
        if not balls.size:
            return balls, balls, balls
        factor = np.zeros((balls.size, 2 * self.target))
        factor[np.repeat(np.arange(balls.size), counts), chunk] = mass
        kept = factor > 0  # a surviving chunk has positive mass
        np.divide(factor, self.nu[balls], out=factor, where=kept)
        lo = self.first[balls]
        span = _spans(lo, self.last[balls] - lo)
        pos = span[self.alive[span]]
        size = self.size[balls]
        keep = np.repeat(kept, size.ravel())
        self.alive[pos[~keep]] = False
        pos = pos[keep]
        point = self.member[pos]
        self.wts[point] = self.wts[point] * np.repeat(factor[kept], size[kept])
        n = np.where(kept, size, 0).sum(axis=1)
        exhausted = counts > self.target
        if exhausted.any():
            rows = np.repeat(exhausted, n)
            self._emit(np.repeat(balls[exhausted], n[exhausted]), point[rows])
            balls, pos, n = balls[~exhausted], pos[~rows], n[~exhausted]
        return balls, pos, n


def _recombine_balls(
    points: np.ndarray,
    weights: np.ndarray,
    lifted: np.ndarray,
    member: np.ndarray,
    sizes: np.ndarray,
    target: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Recombine every ball in lockstep rounds (see :class:`_Lockstep`).

    ``member`` lists each ball's indices into ``points``, ``weights`` and
    ``lifted`` (the basis values of every point), ball after ball, with
    ``sizes`` per ball; no point lies in two balls.  Returns the survivors
    ball by ball, their weights, and each ball's outer rounds and reduction
    steps.
    """
    ball = np.repeat(np.arange(sizes.size), sizes)
    # lexicographic position order within each ball makes the consecutive
    # chunks spatially coherent, so a killed chunk moves mass only locally
    order = np.lexsort((*points[member].T[::-1], ball))
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    run = _Lockstep(weights.copy(), lifted, target, member[order], bounds)
    while run.pool:
        run.step()
    return run.result()


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
    :class:`_Lockstep`.  Mass and all basis moments are preserved to
    roundoff and every output point is an input point (index-based pruning).
    """
    idx, weights, rounds, steps = _recombine_balls(
        measure.points,
        measure.weights,
        basis.evaluate(measure.points),
        np.arange(measure.size),
        np.array([measure.size]),
        basis.size + 1,
    )
    out = measure.reweighted(idx, weights)
    if with_stats:
        stats = RecombineStats(
            input_size=measure.size,
            output_size=out.size,
            outer_rounds=int(rounds[0]),
            reduction_steps=int(steps[0]),
        )
        return out, stats
    return out


def _partition_balls(localization: Localization, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The balls' indices, ball after ball, and each ball's count;
    ``InvalidParameter`` names the first ball or point at fault unless the
    balls partition the ``size`` points."""
    flat = np.asarray(localization.members, dtype=int)
    sizes = np.asarray(localization.balls, dtype=int)
    owner = np.repeat(np.arange(sizes.size), sizes)
    outside = (flat < 0) | (flat >= size)
    if outside.any():
        at = int(np.argmax(outside))
        raise InvalidParameter(
            f"ball {owner[at]} holds index {flat[at]}, outside the measure's {size} points"
        )
    count = np.bincount(flat, minlength=size)
    if np.any(count != 1):
        point = int(np.argmax(count != 1))
        if count[point] == 0:
            raise InvalidParameter(f"point {point} lies in no ball; balls must cover every point")
        first, second = owner[flat == point][:2]
        raise InvalidParameter(
            f"point {point} lies in balls {first} and {second}; balls must be disjoint"
        )
    return flat, sizes


def rmp(
    measure: DiscreteMeasure, localization: Localization, basis: TestBasis
) -> DiscreteMeasure:
    """Reduce within each ball independently and take the union.

    The balls must partition the measure's points, else ``InvalidParameter``
    names the first ball or point at fault.  Per-ball support is at most
    N_p + 1, so the output has at most l * (N_p + 1) points for l balls.  The
    balls are reduced together, in lockstep, over one evaluation of the
    basis; the output lists each ball's survivors in ball order.
    """
    member, sizes = _partition_balls(localization, measure.size)
    if measure.size == 0:
        return measure
    indices, weights, _, _ = _recombine_balls(
        measure.points,
        measure.weights,
        basis.evaluate(measure.points),
        member,
        sizes,
        basis.size + 1,
    )
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
    :func:`sdecub.estimator.tree_levels` walks the tree through the kept
    levels; it reads only their leaf count from the last one.

    A table is used in the process that built it.  :meth:`to_json` writes it
    as an artifact, each interval's ``[prefix, weight]`` pairs in prefix
    order, 1-based; nothing reads it back.
    """

    k: int
    levels: tuple[Level, ...]
    survivor_counts: tuple[int, ...]
    radii: tuple[float | None, ...]
    moment_defects: tuple[float | None, ...]
    seconds: float
    manifest: dict

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

    The first and last subintervals are propagated without reduction (so
    k = 1 gives one level: the formula's paths and weights); in between,
    each propagation is followed by localization at the scheduled radius
    and per-ball recombination.  ``radius_mode='singleton'`` uses one
    ball per point (no reduction can occur), which reproduces the raw tree.
    Each recombination is checked while the loop runs: a mass or moment
    defect past ``MOMENT_DEFECT_TOL`` raises :class:`RecombinationDefect`.

    The loop never evaluates vector fields: its output depends only on the
    formula, partition, basis, and radii.
    """
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
    measure = DiscreteMeasure(np.zeros((1, formula.dim)), np.ones(1))  # the root node
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
