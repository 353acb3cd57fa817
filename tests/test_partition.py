"""Time partitions, leaf paths (scaling and concatenation), leaf enumeration."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdecub import (
    CubatureFormula,
    InvalidParameter,
    PiecewisePath,
    TimePartition,
    TreeTooLarge,
    degree3_formula,
    degree5_formula,
    enumerate_leaves,
    make_partition,
    signature,
    word_degree,
)
from conftest import grid_iterated_integral, leaf_derivatives, leaf_path


def scaled(unit, s, offset=0.0):
    """``unit`` Brownian-scaled onto [offset, offset + s] by ``leaf_derivatives``.

    The unit path is the only path of a formula; with an offset the leaf
    first runs it over [0, offset], and only the part from ``offset`` on is
    returned.
    """
    formula = CubatureFormula(degree=1, dim=unit.dim, paths=(unit,), weights=(1.0,))
    if offset == 0.0:
        return leaf_path(formula, make_partition(s, 1, 1.0), (1,))
    knots = np.array([0.0, offset, offset + s])
    path = leaf_path(formula, TimePartition(offset + s, 2, 1.0, knots), (1, 1))
    tail = path.breakpoints >= offset
    return PiecewisePath(path.breakpoints[tail], path.values[tail])


class TestMakePartition:
    def test_gamma_one_is_uniform(self):
        p = make_partition(1.0, 2, 1.0)
        assert p.knots == pytest.approx([0.0, 0.5, 1.0])

    def test_gamma_two(self):
        p = make_partition(1.0, 2, 2.0)
        assert p.knots == pytest.approx([0.0, 0.75, 1.0])

    def test_power_schedule_value(self):
        p = make_partition(1.0, 4, 0.6)
        assert p.knots[1] == pytest.approx(1.0 - 0.75**0.6, rel=1e-14)

    def test_endpoints_exact(self):
        p = make_partition(2.5, 7, 0.6)
        assert p.knots[0] == 0.0 and p.knots[-1] == 2.5

    def test_schedule_formula_everywhere(self):
        T, k, gamma = 3.0, 9, 1.7
        p = make_partition(T, k, gamma)
        for i in range(k + 1):
            expected = T * (1.0 - (1.0 - i / k) ** gamma)
            assert p.knots[i] == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_lengths_positive(self):
        assert np.all(make_partition(1.0, 40, 0.3).lengths > 0)

    @pytest.mark.parametrize(
        "bad",
        [(0.0, 2, 1.0), (1.0, 0, 1.0), (1.0, 2, -0.5),
         (math.nan, 2, 1.0), (math.inf, 2, 1.0), (1.0, 2, math.nan), (1.0, 2, math.inf)],
    )
    def test_invalid_parameters(self, bad):
        with pytest.raises(InvalidParameter):
            make_partition(*bad)


class TestScalePath:
    def test_identity(self):
        unit = degree3_formula(1).paths[0]
        out = scaled(unit, 1.0, 0.0)
        assert np.array_equal(out.values, unit.values)

    def test_sqrt_scaling_of_brownian_endpoint(self):
        unit = PiecewisePath([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
        out = scaled(unit, 4.0)
        assert out.brownian_endpoint()[0] == pytest.approx(2.0)

    def test_time_component_covers_physical_time(self):
        unit = degree5_formula(1).paths[0]
        out = scaled(unit, 0.3, offset=0.5)
        assert out.breakpoints[0] == pytest.approx(0.5)
        assert out.breakpoints[-1] == pytest.approx(0.8)
        assert out.breakpoints == pytest.approx(0.5 + 0.3 * unit.breakpoints)
        assert np.array_equal(out.values[:, 0], out.breakpoints)

    def test_degree2_word_scales_linearly(self):
        unit = PiecewisePath([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
        out = scaled(unit, 0.25)
        assert signature(out, 2)[2][1, 1] == pytest.approx(0.25 * 0.5, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.floats(0.05, 4.0),
        z1=st.floats(-1.0, 1.0),
        z2=st.floats(-1.0, 1.0),
        word=st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
    )
    def test_scaling_law(self, s, z1, z2, word):
        # degree-g words scale as s**(g/2) under Brownian scaling
        unit = PiecewisePath(
            [0.0, 0.4, 1.0], [[0.0, 0.0], [0.4, z1], [1.0, z1 + z2]]
        )
        n = len(word)
        base = signature(unit, n)[n][word]
        out = signature(scaled(unit, s), n)[n][word]
        g = word_degree(word)
        assert out == pytest.approx(s ** (g / 2.0) * base, abs=1e-10 * max(1, s**3))


class TestConcatPath:
    def test_k1_is_scaled_formula_path(self):
        f = degree3_formula(1)
        part = make_partition(2.0, 1, 1.0)
        cp = leaf_path(f, part, (1,))
        assert cp.values[-1, 1] == pytest.approx(math.sqrt(2.0))
        # one row per index vector, in the order given
        _, derivs = leaf_derivatives(f, part, [(1,), (2,)])
        assert derivs[:, 0, 0] == pytest.approx([1 / math.sqrt(2.0), -1 / math.sqrt(2.0)])

    def test_rise_and_return(self):
        f = degree3_formula(1)
        part = make_partition(1.0, 2, 1.0)
        cp = leaf_path(f, part, (1, 2))
        assert np.interp(0.5, cp.breakpoints, cp.values[:, 1]) == pytest.approx(math.sqrt(0.5))
        assert cp.values[-1, 1] == pytest.approx(0.0, abs=1e-15)

    def test_starts_at_origin_and_time_consistent(self):
        f = degree5_formula(1)
        part = make_partition(1.0, 3, 0.6)
        cp = leaf_path(f, part, (1, 3, 2))
        assert np.max(np.abs(cp.values[0])) == 0.0
        assert np.array_equal(cp.values[:, 0], cp.breakpoints)

    def test_continuity_at_knots(self):
        f = degree5_formula(1)
        part = make_partition(1.0, 4, 0.6)
        cp = leaf_path(f, part, (1, 2, 3, 1))
        diffs = np.diff(cp.breakpoints)
        assert np.all(diffs > 0)  # no duplicated nodes, single-valued
        assert set(part.knots).issubset(cp.breakpoints)

    def test_chen_composition_against_quadrature(self):
        f = degree5_formula(1)
        part = make_partition(1.0, 2, 1.0)
        cp = leaf_path(f, part, (1, 2))
        for word in [(1, 1), (0, 1, 1), (1, 0, 1)]:
            assert signature(cp, len(word))[len(word)][word] == pytest.approx(
                grid_iterated_integral(cp, word), abs=1e-8
            )


class TestEnumerateLeaves:
    def test_reference_counts(self):
        f5 = degree5_formula(1)
        assert len(list(enumerate_leaves(f5, make_partition(1.0, 5, 1.0)))) == 243
        assert len(list(enumerate_leaves(f5, make_partition(1.0, 2, 1.0)))) == 9

    def test_two_leaves(self):
        f = degree3_formula(1)
        leaves = list(enumerate_leaves(f, make_partition(1.0, 1, 1.0)))
        assert leaves == [((1,), 0.5), ((2,), 0.5)]

    def test_weights_sum_to_one(self):
        f = degree5_formula(1)
        leaves = list(enumerate_leaves(f, make_partition(1.0, 5, 0.6)))
        assert len(leaves) == 243
        assert math.fsum(w for _, w in leaves) == pytest.approx(1.0, abs=1e-10)

    def test_lexicographic_order(self):
        f = degree3_formula(1)
        ivs = [iv for iv, _ in enumerate_leaves(f, make_partition(1.0, 3, 1.0))]
        assert ivs == sorted(ivs)

    @pytest.mark.parametrize("formula", [degree3_formula(1), degree5_formula(1)])
    def test_weights_bitwise_left_to_right_products(self, formula):
        for k in range(1, 7):
            reference = [
                (iv, math.prod(formula.weights[j - 1] for j in iv))
                for iv in product(range(1, formula.q + 1), repeat=k)
            ]
            assert list(enumerate_leaves(formula, make_partition(1.0, k, 1.0))) == reference

    def test_tree_guard(self):
        f = degree3_formula(4)  # q = 8
        with pytest.raises(TreeTooLarge):
            next(enumerate_leaves(f, make_partition(1.0, 15, 1.0)))
