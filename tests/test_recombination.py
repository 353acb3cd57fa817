"""Localization, reduction, recombination, and the pre-processing loop."""

import math
from pathlib import Path

import numpy as np
import pytest

from sdecub import (
    DiscreteMeasure,
    InvalidParameter,
    NoNullVector,
    TestBasis,
    WeightTable,
    degree3_formula,
    degree5_formula,
    klv_step,
    localize,
    make_partition,
    preprocess,
    recombine,
    rmp,
    singleton_localization,
)
from sdecub.recombination import RecombineStats, _reduce_step


def random_measure(rng, n, d):
    points = rng.normal(size=(n, d))
    weights = rng.uniform(0.1, 1.0, size=n)
    return DiscreteMeasure(points, weights / weights.sum())


class TestTestBasis:
    def test_counts(self):
        # N_p = C(D + r, r) - 1
        assert TestBasis(1, 1).size == 1
        assert TestBasis(1, 4).size == 4
        assert TestBasis(2, 2).size == 5
        assert TestBasis(3, 4).size == math.comb(7, 4) - 1

    def test_excludes_constant(self):
        basis = TestBasis(2, 3)
        assert all(sum(e) >= 1 for e in basis.exponents)

    def test_evaluation(self):
        basis = TestBasis(2, 2)
        vals = basis.evaluate(np.array([[2.0, 3.0]]))
        assert sorted(vals[0]) == sorted([2.0, 3.0, 4.0, 6.0, 9.0])


class TestLocalize:
    def test_single_point(self):
        m = DiscreteMeasure(np.array([[0.3, 0.4]]), np.array([1.0]))
        loc = localize(m, 0.5)
        assert len(loc.balls) == 1

    def test_distant_points_split(self):
        m = DiscreteMeasure(np.array([[0.0], [3.0]]), np.array([0.5, 0.5]))
        assert len(localize(m, 0.5).balls) >= 2

    def test_grid_cover_bound(self):
        rng = np.random.default_rng(0)
        m = DiscreteMeasure(rng.uniform(size=(100, 2)), np.full(100, 0.01))
        loc = localize(m, 0.5)
        assert len(loc.balls) <= 9

    def test_disjoint_cover_within_radius(self):
        rng = np.random.default_rng(1)
        m = random_measure(rng, 60, 3)
        loc = localize(m, 0.8)
        seen = np.concatenate([b.indices for b in loc.balls])
        assert sorted(seen) == list(range(60))
        for ball in loc.balls:
            dist = np.linalg.norm(m.points[ball.indices] - ball.center, axis=1)
            assert np.all(dist <= 0.8 + 1e-12)


def reduce_once(points, weights, basis):
    """One reduction step on the basis-lifted points; the survivors and their weights."""
    new_weights, keep = _reduce_step(basis.evaluate(points), weights)
    return points[keep], new_weights[keep]


class TestReductionIteration:
    def test_hand_checked_three_points(self):
        points = np.array([[0.0], [1.0], [2.0]])
        weights = np.array([1.0, 1.0, 1.0]) / 3.0
        out_pts, out_wts = reduce_once(points, weights, TestBasis(1, 1))
        assert out_pts.ravel().tolist() == [1.0]
        assert out_wts.tolist() == [1.0]

    def test_minimal_support_raises(self):
        points = np.array([[-1.0], [1.0]])
        weights = np.array([0.5, 0.5])
        with pytest.raises(NoNullVector):
            reduce_once(points, weights, TestBasis(1, 1))

    def test_moments_preserved(self):
        rng = np.random.default_rng(5)
        basis = TestBasis(2, 2)
        m = random_measure(rng, 30, 2)
        before = m.weights @ basis.evaluate(m.points)
        pts, wts = reduce_once(m.points, m.weights, basis)
        after = wts @ basis.evaluate(pts)
        assert pts.shape[0] <= 29
        assert np.max(np.abs(after - before)) < 1e-11 * max(1.0, np.max(np.abs(before)))
        assert abs(wts.sum() - m.weights.sum()) < 1e-11


class TestRecombine:
    def test_five_points_on_line(self):
        m = DiscreteMeasure(np.arange(5.0)[:, None], np.full(5, 0.2))
        out = recombine(m, TestBasis(1, 1))
        assert out.size <= 2
        assert out.total_mass() == pytest.approx(1.0, abs=1e-12)
        mean = float(out.weights @ out.points[:, 0])
        assert mean == pytest.approx(2.0, abs=1e-12)
        assert set(out.points.ravel()).issubset({0.0, 1.0, 2.0, 3.0, 4.0})

    def test_small_measure_unchanged(self):
        m = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.3, 0.7]))
        out = recombine(m, TestBasis(1, 4))
        assert np.array_equal(out.points, m.points)
        assert np.array_equal(out.weights, m.weights)

    def test_thousand_points_degree2(self):
        rng = np.random.default_rng(11)
        basis = TestBasis(2, 2)
        m = random_measure(rng, 1000, 2)
        before = m.weights @ basis.evaluate(m.points)
        out = recombine(m, basis)
        assert out.size <= basis.size + 1 == 6
        after = out.weights @ basis.evaluate(out.points)
        assert np.max(np.abs(after - before)) < 1e-10 * max(1.0, np.max(np.abs(before)))

    def test_support_containment_bitwise(self):
        rng = np.random.default_rng(12)
        m = random_measure(rng, 200, 3)
        out = recombine(m, TestBasis(3, 2))
        original = {row.tobytes() for row in m.points}
        assert all(row.tobytes() in original for row in out.points)

    def test_outer_round_bound(self):
        rng = np.random.default_rng(13)
        basis = TestBasis(2, 3)
        m = random_measure(rng, 700, 2)
        out, stats = recombine(m, basis, with_stats=True)
        assert isinstance(stats, RecombineStats)
        bound = math.ceil(math.log2(700 / basis.size)) + 1
        assert stats.outer_rounds <= bound


class TestRmp:
    def test_one_ball_equals_recombine(self):
        rng = np.random.default_rng(21)
        points = rng.uniform(2.0, 8.0, size=(50, 1))  # one grid cell at radius 100
        m = DiscreteMeasure(points, np.full(50, 0.02))
        basis = TestBasis(1, 2)
        loc = localize(m, 100.0)
        assert len(loc.balls) == 1
        merged = rmp(m, loc, basis)
        direct = recombine(m, basis)
        assert np.array_equal(np.sort(merged.points, axis=0), np.sort(direct.points, axis=0))

    def test_per_ball_means_preserved(self):
        rng = np.random.default_rng(22)
        a = rng.normal(0.5, 0.1, size=(40, 1))  # inside cell [0, 2)
        b = rng.normal(10.5, 0.1, size=(40, 1))  # inside cell [10, 12)
        m = DiscreteMeasure(np.vstack([a, b]), np.full(80, 1.0 / 80))
        basis = TestBasis(1, 1)
        loc = localize(m, 1.0)
        out = rmp(m, loc, basis)
        for center in (0.5, 10.5):
            sel_in = np.abs(m.points[:, 0] - center) < 5
            sel_out = np.abs(out.points[:, 0] - center) < 5
            assert np.count_nonzero(sel_out) <= 2
            mean_in = m.weights[sel_in] @ m.points[sel_in, 0]
            mean_out = out.weights[sel_out] @ out.points[sel_out, 0]
            assert mean_out == pytest.approx(mean_in, abs=1e-12)

    def test_empty_measure(self):
        m = DiscreteMeasure(np.zeros((0, 1)), np.zeros(0))
        out = rmp(m, singleton_localization(m), TestBasis(1, 1))
        assert out.size == 0


class TestKlvStep:
    def test_point_mass_children(self):
        m = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
        out = klv_step(m, degree3_formula(1), 1.0)
        assert sorted(out.points.ravel()) == pytest.approx([-1.0, 1.0])
        assert out.weights.tolist() == [0.5, 0.5]

    def test_mass_conserved(self):
        rng = np.random.default_rng(31)
        m = random_measure(rng, 17, 1)
        out = klv_step(m, degree5_formula(1), 0.37)
        assert out.total_mass() == pytest.approx(m.total_mass(), abs=1e-12)
        assert out.size == 17 * 3

    def test_two_steps_before_merge(self):
        m = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
        out = klv_step(klv_step(m, degree3_formula(1), 1.0), degree3_formula(1), 1.0)
        assert sorted(out.points.ravel()) == pytest.approx([-2.0, 0.0, 0.0, 2.0])
        assert out.weights.tolist() == [0.25] * 4

    def test_merge_combines_provenance(self):
        m = DiscreteMeasure(np.zeros((1, 1)), np.ones(1), provenance=((((), 1.0),),))
        out = klv_step(klv_step(m, degree3_formula(1), 1.0), degree3_formula(1), 1.0)
        merged = out.canonicalize()
        assert merged.size == 3
        by_point = {p[0]: prov for p, prov in zip(merged.points, merged.provenance)}
        assert {prefix for prefix, _ in by_point[0.0]} == {(1, 2), (2, 1)}
        assert [share for _, share in by_point[0.0]] == [0.25, 0.25]


class TestPreprocess:
    def test_k2_equals_raw_weights(self):
        f = degree3_formula(1)
        part = make_partition(1.0, 2, 1.0)
        table = preprocess(f, part, TestBasis(1, 1))
        assert table.leaf_weights() == {
            (1, 1): 0.25, (1, 2): 0.25, (2, 1): 0.25, (2, 2): 0.25
        }

    def test_interval_masses_one(self):
        f = degree5_formula(1)
        part = make_partition(1.0, 10, 0.6)
        table = preprocess(f, part, TestBasis(1, 4), p_star=2)
        for i in range(1, 11):
            assert table.interval_mass(i) == pytest.approx(1.0, abs=1e-9)

    def test_survivors_bounded_by_balls(self):
        f = degree5_formula(1)
        part = make_partition(1.0, 10, 0.6)
        basis = TestBasis(1, 4)
        table = preprocess(f, part, basis, p_star=1)
        assert table.n_leaves < 3**10
        # each recombined interval holds at most (ball count) * (N_p + 1)
        for count, radius in zip(table.survivor_counts, table.radii):
            if radius is not None:
                assert count <= (6 / radius + 2) * (basis.size + 1)

    def test_k_guard(self):
        f = degree3_formula(1)
        with pytest.raises(InvalidParameter):
            preprocess(f, make_partition(1.0, 1, 1.0), TestBasis(1, 1))

    def test_theta_independent_no_field_access(self):
        # the pre-processing module must not touch vector fields
        import importlib

        module = importlib.import_module("sdecub.recombination")
        source = Path(module.__file__).read_text()
        for needle in ("VectorFieldSet", "from .ode", "from .fields", "drift", "diffusion"):
            assert needle not in source

    def test_json_round_trip(self):
        f = degree5_formula(1)
        part = make_partition(1.0, 4, 0.6)
        table = preprocess(f, part, TestBasis(1, 4), p_star=2)
        back = WeightTable.from_json(table.to_json())
        assert back.k == table.k
        assert back.manifest == table.manifest
        assert back.leaf_weights() == table.leaf_weights()
