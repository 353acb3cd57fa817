"""Cubature formulas on Wiener space over the unit time interval.

A degree-m cubature formula is a finite family of bounded-variation paths
``omega_1..omega_q`` in R^{d_b+1} (component 0 is time) with positive weights
summing to one, such that for every moment word of degree at most m the
weighted iterated integrals of the paths match the expected Stratonovich
iterated integrals of time-augmented Brownian motion.

Words are tuples over the alphabet {0, .., d_b} where letter 0 is the time
component.  The degree of a word counts ordinary letters once and zero
letters twice, matching the Brownian scaling ``dt ~ (dB)^2``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from .errors import InvalidParameter, LevelTooLarge, UnsupportedDimension

Word = tuple[int, ...]

_SQRT3 = math.sqrt(3.0)
_SQRT66 = math.sqrt(66.0)


def word_degree(word: Word) -> int:
    """Degree of a moment word: length plus the number of zero letters."""
    return len(word) + sum(1 for letter in word if letter == 0)


def moment_words(m: int, dim: int, include_time_word: bool = False) -> list[Word]:
    """All words of degree <= m over {0..dim} in graded-lexicographic order.

    The empty word and the bare time word ``(0,)`` are excluded from the
    moment set proper; pass ``include_time_word=True`` to prepend ``(0,)``
    (any time-consistent path matches it exactly, so checking it is free).
    """
    if m < 1:
        raise InvalidParameter(f"degree must be >= 1, got {m}")
    if dim < 1:
        raise InvalidParameter(f"dimension must be >= 1, got {dim}")
    words: list[Word] = []
    for length in range(1, m + 1):
        for word in product(range(dim + 1), repeat=length):
            if word == (0,):
                continue
            if word_degree(word) <= m:
                words.append(word)
    words.sort(key=lambda w: (word_degree(w), len(w), w))
    if include_time_word:
        words.insert(0, (0,))
    return words


class PiecewisePath:
    """Continuous piecewise-linear path in R^{d_b+1} with time as component 0.

    ``breakpoints`` is the increasing node vector; ``values`` holds one point
    per node.  The time component must coincide with the node times, which
    makes ``d omega^0 = dt`` exact by construction.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 2 or vals.shape[0] != bp.shape[0]:
            raise InvalidParameter("breakpoints and values have inconsistent shapes")
        if bp.shape[0] < 2:
            raise InvalidParameter("a path needs at least two nodes")
        if np.any(np.diff(bp) <= 0):
            raise InvalidParameter("breakpoints must be strictly increasing")
        if np.max(np.abs(vals[:, 0] - bp)) > 1e-12:
            raise InvalidParameter("component 0 must equal the node time")
        self.breakpoints = bp
        self.values = vals

    @property
    def dim(self) -> int:
        """Number of Brownian components d_b."""
        return self.values.shape[1] - 1

    def increments(self) -> np.ndarray:
        """Per-segment increment vectors, shape (segments, d_b+1)."""
        return np.diff(self.values, axis=0)

    def brownian_endpoint(self) -> np.ndarray:
        """Final value of the Brownian components."""
        return self.values[-1, 1:]

    def refined(self, grid) -> "PiecewisePath":
        """Resample onto ``grid`` (a superset of the node span); exact for
        piecewise-linear paths when the original nodes are kept."""
        grid = np.union1d(np.asarray(grid, dtype=float), self.breakpoints)
        vals = np.empty((grid.shape[0], self.values.shape[1]))
        vals[:, 0] = grid
        for c in range(1, self.values.shape[1]):
            vals[:, c] = np.interp(grid, self.breakpoints, self.values[:, c])
        return PiecewisePath(grid, vals)


def iterated_integral(path: PiecewisePath, word: Word) -> float:
    """Iterated integral of ``path`` over the ordered simplex for ``word``.

    Computed segment by segment: a linear segment with increment vector z
    contributes ``prod(z[letters]) / len!`` to each subword, and segments
    compose by deconcatenation (Chen's relation).  Exact up to roundoff.
    """
    if any(letter < 0 or letter > path.dim for letter in word):
        raise InvalidParameter(f"word {word} has letters outside 0..{path.dim}")
    k = len(word)
    if k == 0:
        return 1.0
    # prefix[j] = iterated integral of word[:j] over the path processed so far
    prefix = [1.0] + [0.0] * k
    inv_fact = [1.0 / math.factorial(n) for n in range(k + 1)]
    for z in path.increments():
        new = [1.0] + [0.0] * k
        for j in range(1, k + 1):
            acc = 0.0
            # contribution where letters word[i:j] land on this segment
            seg = 1.0
            for i in range(j, -1, -1):
                if i < j:
                    seg *= z[word[i]]
                acc += prefix[i] * seg * inv_fact[j - i]
            new[j] = acc
        prefix = new
    return prefix[k]


@dataclass(frozen=True)
class TensorSeries:
    """Truncated tensor series: one coefficient per word of length <= level."""

    level: int
    dim: int
    coeffs: dict[Word, float] = field(repr=False)

    def coefficient(self, word: Word) -> float:
        if len(word) > self.level:
            raise LevelTooLarge(f"word {word} exceeds truncation level {self.level}")
        return self.coeffs.get(tuple(word), 0.0)


def _concat_product(a: dict[Word, float], b: dict[Word, float], level: int) -> dict[Word, float]:
    out: dict[Word, float] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= level:
                w = wa + wb
                out[w] = out.get(w, 0.0) + ca * cb
    return out


def expected_signature(level: int, dim: int, horizon: float = 1.0) -> TensorSeries:
    """Expected Stratonovich signature of time-augmented Brownian motion.

    Equals the truncated tensor exponential of
    ``horizon * (e_0 + (1/2) * sum_i e_i (x) e_i)`` in the concatenation
    algebra; coefficients of words with an odd count of any Brownian letter
    vanish.
    """
    if level < 1:
        raise InvalidParameter(f"level must be >= 1, got {level}")
    if level > 8:
        raise LevelTooLarge(f"level {level} exceeds the guard of 8")
    if horizon <= 0:
        raise InvalidParameter("horizon must be positive")
    gen: dict[Word, float] = {(0,): horizon}
    for i in range(1, dim + 1):
        gen[(i, i)] = 0.5 * horizon
    # exp(gen) = sum_n gen^n / n!, accumulated as term_n = term_{n-1} * gen / n
    coeffs: dict[Word, float] = {(): 1.0}
    term: dict[Word, float] = {(): 1.0}
    for n in range(1, level + 1):
        term = {w: c / n for w, c in _concat_product(term, gen, level).items()}
        if not term:
            break
        for w, c in term.items():
            coeffs[w] = coeffs.get(w, 0.0) + c
    return TensorSeries(level=level, dim=dim, coeffs=coeffs)


@dataclass(frozen=True)
class CubatureFormula:
    """Degree-m cubature paths and weights on the unit interval."""

    degree: int
    dim: int
    paths: tuple[PiecewisePath, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.degree % 2 == 0 or self.degree < 1:
            raise InvalidParameter(f"cubature degree must be odd, got {self.degree}")
        if len(self.paths) != len(self.weights):
            raise InvalidParameter("paths and weights must have equal length")
        if any(w <= 0 for w in self.weights):
            raise InvalidParameter("weights must be strictly positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise InvalidParameter("weights must sum to 1 within 1e-12")
        for p in self.paths:
            if p.dim != self.dim:
                raise InvalidParameter("path dimension does not match formula")
            if abs(p.breakpoints[0]) > 0 or abs(p.breakpoints[-1] - 1.0) > 1e-15:
                raise InvalidParameter("formula paths live on [0, 1]")
            if np.max(np.abs(p.values[0])) > 0:
                raise InvalidParameter("formula paths start at the origin")

    @property
    def q(self) -> int:
        """Number of paths."""
        return len(self.paths)

    def brownian_endpoints(self) -> np.ndarray:
        """Endpoints of the Brownian components, shape (q, d_b)."""
        return np.array([p.brownian_endpoint() for p in self.paths])

    def aligned_paths(self) -> tuple[PiecewisePath, ...]:
        """Paths resampled onto the shared union of breakpoints (exact)."""
        grid = self.paths[0].breakpoints
        for p in self.paths[1:]:
            grid = np.union1d(grid, p.breakpoints)
        return tuple(p.refined(grid) for p in self.paths)

    def to_json(self) -> str:
        doc = {
            "degree": self.degree,
            "dim": self.dim,
            "paths": [
                {"breakpoints": list(p.breakpoints), "values": [list(row) for row in p.values]}
                for p in self.paths
            ],
            "weights": list(self.weights),
        }
        return dumps_17g(doc)

    def formula_hash(self) -> str:
        return self._hash

    @cached_property
    def _hash(self) -> str:
        # the formula is frozen, so its hash is computed once: every training
        # step checks its weight table against it
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @staticmethod
    def from_json(text: str) -> "CubatureFormula":
        doc = json.loads(text)
        paths = tuple(
            PiecewisePath(entry["breakpoints"], entry["values"]) for entry in doc["paths"]
        )
        return CubatureFormula(
            degree=int(doc["degree"]),
            dim=int(doc["dim"]),
            paths=paths,
            weights=tuple(float(w) for w in doc["weights"]),
        )


def _format_17g(x) -> str:
    if isinstance(x, float):
        if math.isfinite(x):
            return format(x + 0.0, ".17g")  # normalize -0.0
        return "null"  # strict JSON has no NaN/Infinity
    return json.dumps(x)


def dumps_17g(obj, indent: int = 0) -> str:
    """JSON text with doubles at 17 significant digits (exact round-trip)."""
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(k)}: {dumps_17g(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_17g(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    return _format_17g(float(obj))


def _line_path(dim: int, endpoint: np.ndarray) -> PiecewisePath:
    values = np.zeros((2, dim + 1))
    values[1, 0] = 1.0
    values[1, 1:] = endpoint
    return PiecewisePath([0.0, 1.0], values)


def degree3_formula(d_b: int) -> CubatureFormula:
    """Degree-3 formula: 2*d_b straight lines to +-sqrt(d_b)*e_i, equal weights.

    The sqrt(d_b) scaling makes the weighted second moments reproduce
    E[B_1 (x) B_1] = I exactly; odd words cancel by the +- pairing.
    """
    if d_b < 1:
        raise UnsupportedDimension(f"d_b must be >= 1, got {d_b}")
    paths = []
    scale = math.sqrt(float(d_b))
    for i in range(d_b):
        for sign in (1.0, -1.0):
            endpoint = np.zeros(d_b)
            endpoint[i] = sign * scale
            paths.append(_line_path(d_b, endpoint))
    weight = 1.0 / (2 * d_b)
    return CubatureFormula(3, d_b, tuple(paths), tuple([weight] * (2 * d_b)))


def degree5_formula(d_b: int) -> CubatureFormula:
    """Degree-5 formula for a one-dimensional driver: three paths.

    Two palindromic three-segment paths with Brownian increments
    +-(a, b, a) over equal time thirds (endpoints +-sqrt(3)) carry weight 1/6
    each, and the zero path carries 2/3.  The increments solve the degree-4
    mixed time/space moment conditions in closed form:

        a = (4*sqrt(3) - sqrt(66)) / 6,   b = sqrt(3) - 2a.

    The +- pairing cancels every odd word; endpoints +-sqrt(3) with weights
    (1/6, 1/6, 2/3) match the Gaussian fourth moment.
    """
    if d_b != 1:
        raise UnsupportedDimension(
            f"degree-5 construction implemented for d_b=1 only, got d_b={d_b}"
        )
    a = (4.0 * _SQRT3 - _SQRT66) / 6.0
    b = _SQRT3 - 2.0 * a
    thirds = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    up = np.array([0.0, a, a + b, 2 * a + b])
    plus = PiecewisePath(thirds, np.column_stack([thirds, up]))
    minus = PiecewisePath(thirds, np.column_stack([thirds, -up]))
    zero = PiecewisePath([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]])
    return CubatureFormula(5, 1, (plus, minus, zero), (1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a formula against the Brownian expected signature."""

    degree_checked: int
    tol: float
    passed: bool
    max_defect: float
    worst_word: Word | None
    defects: dict[Word, float] = field(repr=False)
    words_checked: int = 0

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        worst = "-" if self.worst_word is None else repr(self.worst_word)
        return (
            f"degree {self.degree_checked}: {status}, "
            f"max defect {self.max_defect:.3e} at word {worst} "
            f"({self.words_checked} words, tol {self.tol:.1e})"
        )


def verify_cubature(
    formula: CubatureFormula, m: int | None = None, tol: float = 1e-10
) -> VerificationReport:
    """Check the moment conditions of ``formula`` up to degree ``m``.

    For every word of degree <= m (plus the bare time word), the weighted sum
    of path iterated integrals is compared against the expected-signature
    coefficient at horizon 1.  Failure is reported, never raised.
    """
    if m is None:
        m = formula.degree
    words = moment_words(m, formula.dim, include_time_word=True)
    reference = expected_signature(level=m, dim=formula.dim, horizon=1.0)
    defects: dict[Word, float] = {}
    max_defect = 0.0
    worst: Word | None = None
    for word in words:
        total = math.fsum(
            w * iterated_integral(p, word) for w, p in zip(formula.weights, formula.paths)
        )
        defect = abs(total - reference.coefficient(word))
        defects[word] = defect
        if defect > max_defect:
            max_defect = defect
            worst = word
    passed = max_defect <= tol
    return VerificationReport(
        degree_checked=m,
        tol=tol,
        passed=passed,
        max_defect=max_defect,
        worst_word=None if passed else worst,
        defects=defects,
        words_checked=len(words),
    )
