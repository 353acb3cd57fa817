"""Cubature formulas: moment words, signatures, verification."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdecub import (
    CubatureFormula,
    InvalidParameter,
    LevelTooLarge,
    PiecewisePath,
    UnsupportedDimension,
    degree3_formula,
    degree5_formula,
    expected_signature,
    moment_words,
    signature,
    verify_cubature,
    word_degree,
)
from conftest import grid_iterated_integral


def coefficient(path, word):
    """The signature coefficient of ``word``: its iterated integral."""
    return signature(path, len(word))[len(word)][word]


class TestWords:
    def test_degree_counts_zeros_twice(self):
        assert word_degree((1,)) == 1
        assert word_degree((0,)) == 2
        assert word_degree((1, 0, 1)) == 4
        assert word_degree((0, 0)) == 4

    def test_moment_words_exclude_empty_and_time(self):
        words = moment_words(3, 1)
        assert () not in words
        assert (0,) not in words
        assert (1,) in words and (1, 1) in words and (0, 1) in words

    def test_time_word_optional(self):
        # outside the moment set, but verification checks it first
        assert (0,) not in moment_words(3, 1)
        assert next(iter(verify_cubature(degree3_formula(1)).defects)) == (0,)

    def test_graded_lex_order(self):
        words = moment_words(5, 1)
        degrees = [word_degree(w) for w in words]
        assert degrees == sorted(degrees)

    def test_a3_cardinality(self):
        # d + d^2 + 2d + d^3 words of degree <= 3 over {0..d}
        for d in (1, 2, 3):
            assert len(moment_words(3, d)) == d + d * d + 2 * d + d**3


class TestIteratedIntegral:
    def test_linear_segment_rule(self):
        path = PiecewisePath([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
        assert coefficient(path, (1, 1)) == pytest.approx(0.5, abs=1e-15)

    def test_time_word_is_elapsed_time(self):
        path = PiecewisePath([0.0, 1.0], [[0.0, 0.0], [1.0, 0.3]])
        assert coefficient(path, (0,)) == pytest.approx(1.0, abs=1e-15)

    def test_telescoping_endpoint(self):
        path = PiecewisePath(
            [0.0, 0.5, 1.0], [[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]]
        )
        assert coefficient(path, (1,)) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(
        mid_t=st.floats(0.2, 0.8),
        z1=st.floats(-1.5, 1.5),
        z2=st.floats(-1.5, 1.5),
        word=st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
    )
    def test_matches_fine_grid_quadrature(self, mid_t, z1, z2, word):
        # two-segment path: the per-segment composition must agree with
        # direct cumulative quadrature at fine resolution
        path = PiecewisePath(
            [0.0, mid_t, 1.0], [[0.0, 0.0], [mid_t, z1], [1.0, z1 + z2]]
        )
        exact = coefficient(path, word)
        approx = grid_iterated_integral(path, word)
        assert exact == pytest.approx(approx, abs=1e-8)


class TestExpectedSignature:
    def test_second_moments(self):
        sig = expected_signature(2, 2)
        assert sig[2][1, 1] == pytest.approx(0.5)
        assert sig[2][2, 2] == pytest.approx(0.5)
        assert sig[2][1, 2] == 0.0

    def test_time_words(self):
        sig = expected_signature(2, 1, horizon=2.0)
        assert sig[1][0] == pytest.approx(2.0)
        assert sig[2][0, 0] == pytest.approx(2.0)  # T^2/2

    def test_fourth_moment(self):
        sig = expected_signature(4, 1)
        assert sig[4][1, 1, 1, 1] == pytest.approx(1.0 / 8.0)
        assert sig[3][0, 1, 1] == pytest.approx(0.25)
        assert sig[3][1, 0, 1] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        word=st.lists(st.integers(0, 2), min_size=1, max_size=5).map(tuple),
    )
    def test_odd_brownian_count_vanishes(self, word):
        sig = expected_signature(5, 2)
        for letter in (1, 2):
            if sum(1 for a in word if a == letter) % 2 == 1:
                assert sig[len(word)][word] == 0.0
                return

    def test_level_guard(self):
        with pytest.raises(LevelTooLarge):
            expected_signature(9, 1)
        with pytest.raises(LevelTooLarge):
            signature(degree3_formula(1).paths[0], 9)


def shuffles(u, v):
    """Every interleaving of ``u`` and ``v``, with multiplicity."""
    n = len(u) + len(v)
    for spots in combinations(range(n), len(u)):
        letters_u, letters_v = iter(u), iter(v)
        yield tuple(next(letters_u) if i in spots else next(letters_v) for i in range(n))


class TestShuffleIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.floats(0.1, 1.0), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
            min_size=2,
            max_size=3,
        ),
        words=st.lists(st.integers(0, 2), min_size=2, max_size=4).flatmap(
            lambda w: st.integers(1, len(w) - 1).map(lambda c: (tuple(w[:c]), tuple(w[c:])))
        ),
    )
    def test_product_of_coefficients_is_sum_over_shuffles(self, steps, words):
        # S(u) S(v) = sum of S(w) over the shuffles w of u and v, on a random
        # two- or three-segment path in R^3 with time as component 0
        u, v = words
        values = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
        sig = signature(PiecewisePath(values[:, 0], values), 4)
        product = sig[len(u)][u] * sig[len(v)][v]
        total = math.fsum(sig[len(w)][w] for w in shuffles(u, v))
        assert product == pytest.approx(total, rel=1e-12, abs=1e-12)


class TestDegree3:
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_verifies_at_own_degree(self, d):
        report = verify_cubature(degree3_formula(d), 3)
        assert report.passed and report.max_defect <= 1e-12

    def test_structure_d1(self):
        f = degree3_formula(1)
        assert f.q == 2
        ends = sorted(f.brownian_endpoints()[:, 0])
        assert ends == pytest.approx([-1.0, 1.0])
        assert f.weights == (0.5, 0.5)

    def test_path_count_and_weights(self):
        for d in (1, 2, 4):
            f = degree3_formula(d)
            assert f.q == 2 * d
            assert all(w == pytest.approx(1.0 / (2 * d)) for w in f.weights)

    def test_first_moment_zero(self):
        f = degree3_formula(3)
        total = f.brownian_endpoints().T @ np.asarray(f.weights)
        assert np.max(np.abs(total)) < 1e-15

    def test_fails_against_degree5_words(self):
        report = verify_cubature(degree3_formula(1), 5)
        assert not report.passed
        assert report.defects[(1, 1, 1, 1)] == pytest.approx(1.0 / 12.0, abs=1e-14)

    def test_vacuous_tolerance(self):
        report = verify_cubature(degree3_formula(1), 5, tol=math.inf)
        assert report.passed


class TestDegree5:
    def test_verifies(self):
        report = verify_cubature(degree5_formula(1), 5)
        assert report.passed and report.max_defect <= 1e-10

    def test_three_paths(self):
        assert degree5_formula(1).q == 3

    def test_level2_and_level4_words(self):
        f = degree5_formula(1)
        for word, expected in [((1, 1), 0.5), ((1, 1, 1, 1), 1.0 / 8.0)]:
            total = math.fsum(
                w * coefficient(p, word) for w, p in zip(f.weights, f.paths)
            )
            assert total == pytest.approx(expected, abs=1e-12)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            degree5_formula(2)

    def test_q_within_moment_set_cardinality(self):
        for f in (degree3_formula(1), degree3_formula(3), degree5_formula(1)):
            assert f.q <= len(moment_words(f.degree, f.dim))


class TestJsonRoundTrip:
    def test_exact_round_trip(self):
        f = degree5_formula(1)
        g = CubatureFormula.from_json(f.to_json())
        assert g.degree == f.degree and g.dim == f.dim
        assert g.weights == f.weights
        for p, q in zip(f.paths, g.paths):
            assert np.array_equal(p.values, q.values)
            assert np.array_equal(p.breakpoints, q.breakpoints)
        assert g.formula_hash() == f.formula_hash()

    def test_invalid_weights_rejected(self):
        f = degree3_formula(1)
        with pytest.raises(InvalidParameter):
            CubatureFormula(3, 1, f.paths, (0.7, 0.7))
