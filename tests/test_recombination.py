"""Localization, reduction, recombination, and the pre-processing loop."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sdecub import (
    DiscreteMeasure,
    InvalidParameter,
    NoNullVector,
    RecombinationDefect,
    TestBasis,
    cubature_estimate,
    degree3_formula,
    degree5_formula,
    klv_step,
    localize,
    make_partition,
    preprocess,
    recombine,
    rmp,
    sine_tracking_functional,
    singleton_localization,
)
from sdecub import recombination
from sdecub.fields import ou_field
from sdecub.formulas import cubature_formula, dumps_17g
from sdecub.recombination import (
    Level,
    Localization,
    RecombineStats,
    _reduce_batch,
)


def random_measure(rng, n, d):
    points = rng.normal(size=(n, d))
    weights = rng.uniform(0.1, 1.0, size=n)
    weights /= weights.sum()
    return DiscreteMeasure(points, weights)


# Serial reference: each ball reduced on its own, one QR call per reduction
# step.  The lockstep reduction must reproduce it bit for bit.


def serial_null_vector(mat):
    n_rows = mat.shape[0]
    q_full, _ = np.linalg.qr(mat.T, mode="complete")
    u = q_full[:, n_rows]
    peak = np.max(np.abs(u))
    first = int(np.argmax(np.abs(u) > 1e-12 * peak))
    if u[first] < 0:
        u = -u
    return u


def serial_reduce_step(lifted, weights):
    n = weights.shape[0]
    u = serial_null_vector(np.vstack([np.ones((1, n)), lifted.T]))
    positive = u > 0
    if not np.any(positive):
        raise NoNullVector("kernel vector has no positive entry")
    ratios = np.where(positive, weights / np.where(positive, u, 1.0), np.inf)
    star = int(np.argmin(ratios))
    new_weights = weights - ratios[star] * u
    new_weights[star] = 0.0
    np.maximum(new_weights, 0.0, out=new_weights)
    keep = new_weights > 0.0
    keep[star] = False
    return new_weights, keep


def serial_recombine(pts, weights, basis):
    """Indices of one ball's survivors and their weights."""
    target = basis.size + 1
    wts = weights.copy()
    idx = np.lexsort(pts.T[::-1])
    while idx.shape[0] > target:
        lifted = basis.evaluate(pts[idx])
        n = idx.shape[0]
        if n <= 2 * target:
            local = np.arange(n)
            w = wts[idx]
            try:
                while local.shape[0] > target:
                    new_w, keep = serial_reduce_step(lifted[local], w)
                    local = local[keep]
                    w = new_w[keep]
            except NoNullVector:
                pass
            wts[idx] = 0.0
            wts[idx[local]] = w
            idx = idx[local]
            break
        groups = 2 * target
        bounds = np.linspace(0, n, groups + 1).astype(int)
        w_all = wts[idx]
        nu = np.array([w_all[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])
        com = np.array(
            [(w_all[a:b, None] * lifted[a:b]).sum(axis=0) for a, b in zip(bounds[:-1], bounds[1:])]
        )
        live = nu > 0
        com[live] /= nu[live, None]
        glocal = np.arange(groups)[live]
        gnu = nu[live]
        gcom = com[live]
        try:
            while glocal.shape[0] > target:
                new_nu, keep = serial_reduce_step(gcom, gnu)
                glocal = glocal[keep]
                gnu = new_nu[keep]
                gcom = gcom[keep]
        except NoNullVector:
            pass
        new_idx = []
        new_wts = np.zeros_like(wts)
        for g, nu_tilde in zip(glocal, gnu):
            members = idx[bounds[g] : bounds[g + 1]]
            new_wts[members] = wts[members] * (nu_tilde / nu[g])
            new_idx.append(members)
        idx = np.concatenate(new_idx) if new_idx else np.zeros(0, dtype=int)
        wts = new_wts
        if glocal.shape[0] > target:
            break
    idx = idx[wts[idx] > 0]
    return idx, wts[idx]


def ball_members(localization):
    """Each ball's point indices, one array per ball."""
    return np.split(localization.members, np.cumsum(localization.balls)[:-1])


def serial_rmp(measure, localization, basis):
    if measure.size == 0:
        return measure
    balls = ball_members(localization)
    picks = [serial_recombine(measure.points[b], measure.weights[b], basis) for b in balls]
    return measure.reweighted(
        np.concatenate([b[idx] for b, (idx, _) in zip(balls, picks)]),
        np.concatenate([w for _, w in picks]),
    )


def assert_measures_equal(out, ref):
    assert np.array_equal(out.points, ref.points)
    assert np.array_equal(out.weights, ref.weights)
    for got, want in zip(out.provenance, ref.provenance):
        assert np.array_equal(got, want)


def assert_levels_equal(got, want):
    assert len(got.levels) == len(want.levels)
    for got_level, want_level in zip(got.levels, want.levels):
        for a, b in zip(got_level, want_level):
            assert np.array_equal(a, b)


# Tuple-provenance reference: every point carries its (prefix, share) pairs
# through propagation, merging and reduction, and each interval's table is a
# dict keyed by prefix.  The per-level arrays must give the same JSON.


def tuple_klv_step(provenance, formula):
    return tuple(
        tuple((prefix + (j + 1,), share * formula.weights[j]) for prefix, share in point)
        for point in provenance
        for j in range(formula.q)
    )


def tuple_canonicalize(measure, provenance):
    slots, pts, wts, prov = {}, [], [], []
    for i in range(measure.size):
        key = measure.points[i].tobytes()
        if key in slots:
            j = slots[key]
            wts[j] += measure.weights[i]
            prov[j].extend(provenance[i])
        else:
            slots[key] = len(pts)
            pts.append(measure.points[i])
            wts.append(float(measure.weights[i]))
            prov.append(list(provenance[i]))
    keep = [j for j, w in enumerate(wts) if w > 0.0]
    points = np.array([pts[j] for j in keep]) if keep else np.zeros((0, measure.dim))
    merged = DiscreteMeasure(points, np.array([wts[j] for j in keep]))
    return merged, tuple(tuple(sorted(prov[j])) for j in keep)


def tuple_reweighted(measure, provenance, indices, new_weights):
    scaled = []
    for i, w_new in zip(indices, new_weights):
        w_old = measure.weights[i]
        factor = w_new / w_old if w_old > 0 else 0.0
        scaled.append(tuple((prefix, share * factor) for prefix, share in provenance[i]))
    return DiscreteMeasure(measure.points[indices], new_weights), tuple(scaled)


def tuple_provenance_json(formula, partition, basis, p_star, radius_mode, manifest, seconds):
    k = partition.k
    radii_all = recombination.radius_schedule(partition, p_star)
    measure = DiscreteMeasure(np.zeros((1, formula.dim)), np.ones(1))
    prov = ((((), 1.0),),)
    tables, counts, radii, defects = [], [], [], []
    for i in range(1, k + 1):
        stepped = klv_step(measure, formula, partition.lengths[i - 1])
        measure, prov = tuple_canonicalize(stepped, tuple_klv_step(prov, formula))
        radius = defect = None
        if 2 <= i <= k - 1:
            if radius_mode == "schedule":
                radius = float(radii_all[i - 1])
                loc = localize(measure, radius)
            else:
                loc = singleton_localization(measure)
            # a fresh measure carries each row as its one node, so the
            # survivors' nodes name the rows rmp kept
            out = rmp(DiscreteMeasure(measure.points, measure.weights), loc, basis)
            kept = np.empty(out.size, dtype=int)
            kept[out.provenance.point] = out.provenance.node
            reduced, prov = tuple_reweighted(measure, prov, kept, out.weights)
            defect = recombination.moment_defect(measure, reduced, basis)
            measure = reduced
        radii.append(radius)
        defects.append(defect)
        table = {}
        for point in prov:
            for prefix, share in point:
                table[prefix] = table.get(prefix, 0.0) + share
        tables.append(table)
        counts.append(measure.size)
    return dumps_17g({
        "manifest": manifest,
        "k": k,
        "seconds": seconds,
        "survivor_counts": counts,
        "radii": radii,
        "moment_defects": defects,
        "intervals": [[[list(p), w] for p, w in sorted(t.items())] for t in tables],
    })


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
        assert sorted(loc.members) == list(range(60))
        for members in ball_members(loc):
            # a ball's bounding box fits in its cell, so the box centre is
            # within the cell's half-diagonal, the radius, of every member
            box = m.points[members]
            center = 0.5 * (box.min(axis=0) + box.max(axis=0))
            dist = np.linalg.norm(box - center, axis=1)
            assert np.all(dist <= 0.8 + 1e-12)


def reduce_once(points, weights, basis):
    """One batched reduction step, as a batch of one; the survivors and their weights."""
    constraints = np.concatenate([np.ones((points.shape[0], 1)), basis.evaluate(points)], axis=1)
    new_weights, keep, usable = _reduce_batch(constraints[None], weights[None])
    assert usable[0]
    return points[keep[0]], new_weights[0][keep[0]]


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
        # 700 > 2 * (N_p + 1) points go through the chunked rounds first
        assert stats.outer_rounds >= 2

    def test_direct_reduction_stats(self):
        # 8 <= 2 * (N_p + 1) points: one direct round, one step per dropped point
        m = DiscreteMeasure(np.arange(8.0)[:, None], np.full(8, 1.0 / 8))
        out, stats = recombine(m, TestBasis(1, 4), with_stats=True)
        assert out.size == 5
        assert stats.reduction_steps == 3
        assert stats.outer_rounds == 1


def clustered_measure(rng, sizes):
    """1-d measure: ``sizes[c]`` points in [2c, 2c + 1), one grid cell apiece
    at radius 0.5."""
    points = np.concatenate([2.0 * c + rng.uniform(size=n) for c, n in enumerate(sizes)])
    weights = rng.uniform(0.1, 1.0, size=points.size)
    weights /= weights.sum()
    return DiscreteMeasure(points[:, None], weights)


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

    @pytest.mark.parametrize(
        "balls, fault",
        [
            ([range(0, 9), range(3, 12)], "point 3 lies in balls 0 and 1"),
            ([range(0, 6)], "point 6 lies in no ball"),
            ([range(0, 12), [12]], "ball 1 holds index 12"),
        ],
        ids=["overlapping", "point_left_out", "index_out_of_range"],
    )
    def test_localization_must_partition_the_points(self, balls, fault):
        m = DiscreteMeasure(np.arange(12.0)[:, None], np.full(12, 1.0 / 12))
        loc = Localization(
            members=np.concatenate([np.array(b) for b in balls]),
            balls=np.array([len(b) for b in balls]),
        )
        with pytest.raises(InvalidParameter, match=fault):
            rmp(m, loc, TestBasis(1, 1))

    @pytest.mark.parametrize(
        "case",
        [
            "localized_1d", "split_stacks", "hierarchical_2d", "singletons",
            "wide_chunks", "mixed_phases",
        ],
    )
    def test_bitwise_equal_to_serial_reference(self, monkeypatch, case):
        rng = np.random.default_rng(24)
        if case == "wide_chunks":
            # 10 chunks a round: 9, 20 and 150 points in the first, so the
            # chunk sums run numpy's pairwise summation, blocked past 128
            m, basis = clustered_measure(rng, [90, 200, 1500]), TestBasis(1, 4)
            loc = localize(m, 0.5)
            assert sorted(loc.balls.tolist()) == [90, 200, 1500]
        elif case == "mixed_phases":
            # at most N_p + 1 = 5 points (no round), at most 10 (direct
            # reduction) and more (chunked rounds) in one call
            m, basis = clustered_measure(rng, [3, 8, 40, 5, 300, 10, 11]), TestBasis(1, 4)
            loc = localize(m, 0.5)
            assert len(loc.balls) == 7
        elif case in ("localized_1d", "split_stacks"):
            m = random_measure(rng, 3000, 1)
            loc, basis = localize(m, 0.02), TestBasis(1, 4)
            assert len(loc.balls) >= 100
            if case == "split_stacks":
                # at most one or two problems per stacked QR
                monkeypatch.setattr(recombination, "_QR_STACK_ENTRIES", 100)
        elif case == "hierarchical_2d":
            m = random_measure(rng, 2000, 2)
            loc, basis = localize(m, 0.3), TestBasis(2, 2)
            # such balls go through the chunked rounds
            assert loc.balls.max() > 2 * (basis.size + 1)
        else:
            m = random_measure(rng, 300, 2)
            loc, basis = singleton_localization(m), TestBasis(2, 2)
        assert_measures_equal(rmp(m, loc, basis), serial_rmp(m, loc, basis))

    def test_qr_calls_do_not_grow_with_ball_count(self, monkeypatch):
        rng = np.random.default_rng(25)
        # 200 balls of 8 points each, one grid cell apiece at radius 1
        points = 10.0 * np.arange(200)[:, None] + rng.uniform(0.0, 1.0, size=(200, 8))
        m = DiscreteMeasure(points.reshape(-1, 1), np.full(1600, 1.0 / 1600))
        loc = localize(m, 1.0)
        assert len(loc.balls) == 200
        calls = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        out = rmp(m, loc, TestBasis(1, 4))
        assert out.size == 200 * 5
        # each ball takes 3 steps (8 -> 5 points); one stacked QR per step
        # and point count, where reducing ball by ball makes 600 calls
        assert len(calls) <= 6


class TestDefaultProvenance:
    def test_each_point_is_its_own_node(self):
        m = random_measure(np.random.default_rng(3), 7, 2)
        node, point, share = m.provenance
        assert node.tolist() == point.tolist() == list(range(7))
        assert np.array_equal(share, m.weights)

    def test_recombine_names_input_points(self):
        m = random_measure(np.random.default_rng(4), 40, 2)
        out = recombine(m, TestBasis(2, 2))
        node, point, share = out.provenance
        # each survivor keeps the one node of the input point it is
        assert np.array_equal(out.points[point], m.points[node])
        assert np.allclose(np.bincount(point, share, minlength=out.size), out.weights,
                           rtol=1e-15, atol=0.0)


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
        m = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
        out = klv_step(klv_step(m, degree3_formula(1), 1.0), degree3_formula(1), 1.0)
        merged = out.canonicalize()
        assert merged.size == 3
        node, point, share = merged.provenance
        on_zero = point == int(np.flatnonzero(merged.points[:, 0] == 0.0)[0])
        # node p * q + j is child j of level-1 row p, which is path p
        assert {(n // 2 + 1, n % 2 + 1) for n in node[on_zero]} == {(1, 2), (2, 1)}
        assert share[on_zero].tolist() == [0.25, 0.25]


class TestPreprocess:
    def test_k2_equals_raw_weights(self):
        f = degree3_formula(1)
        part = make_partition(1.0, 2, 1.0)
        table = preprocess(f, part, TestBasis(1, 1))
        leaves = zip(map(tuple, table.prefixes(2).tolist()), table.levels[-1].weight.tolist())
        assert dict(leaves) == {(1, 1): 0.25, (1, 2): 0.25, (2, 1): 0.25, (2, 2): 0.25}

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

    @pytest.mark.parametrize("degree, d", [(3, 1), (3, 2), (5, 1)])
    def test_k1_is_one_level_of_the_formula(self, degree, d):
        # the only interval is the first, which is never reduced
        formula = cubature_formula(degree, d)
        part = make_partition(1.0, 1, 0.6)
        table = preprocess(formula, part, TestBasis(d, 2), p_star=2)
        [level] = table.levels
        assert level.j.tolist() == list(range(formula.q))
        assert level.parent.tolist() == [0] * formula.q
        assert level.weight.tolist() == list(formula.weights)
        spec = ou_field(rate=1.5, mean=0.5, sigma=0.7, d=d, x0=0.2)
        raw, tab = (
            cubature_estimate(sine_tracking_functional(), spec.stratonovich(), formula, part,
                              t, x0=spec.x0, steps_per_segment=8)
            for t in (None, table)
        )
        assert tab.value == raw.value
        assert tab.interval_costs == raw.interval_costs
        assert tab.n_paths == raw.n_paths == formula.q

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
        # the written artifact carries every field bitwise, each interval's
        # 1-based prefixes in prefix order beside their weights
        doc = json.loads(table.to_json())
        assert doc["k"] == table.k
        assert doc["manifest"] == table.manifest
        assert doc["seconds"] == table.seconds
        assert tuple(doc["survivor_counts"]) == table.survivor_counts
        assert tuple(doc["radii"]) == table.radii
        assert tuple(doc["moment_defects"]) == table.moment_defects
        assert len(doc["intervals"]) == len(table.levels)
        for i, (entries, level) in enumerate(zip(doc["intervals"], table.levels), 1):
            prefixes = [prefix for prefix, _ in entries]
            assert prefixes == sorted(prefixes) == table.prefixes(i).tolist()
            assert np.array_equal([w for _, w in entries], level.weight)

    def test_moment_defects_recorded_for_reduced_intervals(self):
        table = preprocess(degree5_formula(1), make_partition(1.0, 6, 0.6), TestBasis(1, 4))
        first, *middle, last = table.moment_defects
        assert first is None and last is None
        assert len(middle) == 4
        assert all(0.0 <= d < 1e-10 for d in middle)

    @pytest.mark.parametrize("corruption", [1e-6, math.nan], ids=["inflated", "nan"])
    def test_moment_defect_raises_naming_interval(self, monkeypatch, corruption):
        def corrupting_rmp(measure, localization, basis):
            out = rmp(measure, localization, basis)
            weights = out.weights.copy()
            weights[0] += corruption
            return DiscreteMeasure(out.points, weights, out.provenance)

        monkeypatch.setattr(recombination, "rmp", corrupting_rmp)
        f = degree5_formula(1)
        with pytest.raises(RecombinationDefect, match="interval 2 of 4") as info:
            preprocess(f, make_partition(1.0, 4, 0.6), TestBasis(1, 4), p_star=2)
        assert info.value.interval == 2
        assert not info.value.defect <= 1e-10

    @pytest.mark.parametrize(
        "formula, k, basis, p_star",
        [
            (degree5_formula(1), 8, TestBasis(1, 4), 2),
            (degree3_formula(2), 5, TestBasis(2, 2), 1),
        ],
        ids=["deg5-d1-k8", "deg3-d2-k5"],
    )
    def test_bitwise_equal_to_serial_reference(self, monkeypatch, formula, k, basis, p_star):
        part = make_partition(1.0, k, 0.6)
        table = preprocess(formula, part, basis, p_star=p_star)
        monkeypatch.setattr(recombination, "rmp", serial_rmp)
        ref = preprocess(formula, part, basis, p_star=p_star)
        assert_levels_equal(table, ref)
        assert table.survivor_counts == ref.survivor_counts
        # recombination reduced something, so the comparison covers it
        assert table.n_leaves < formula.q**k

    @pytest.mark.parametrize(
        "formula, k, basis, p_star, radius_mode",
        [
            (degree5_formula(1), 8, TestBasis(1, 4), 2, "schedule"),
            (degree5_formula(1), 12, TestBasis(1, 4), 2, "schedule"),
            (degree3_formula(2), 5, TestBasis(2, 2), 1, "schedule"),
            (degree3_formula(2), 5, TestBasis(2, 2), 2, "schedule"),
            (degree3_formula(2), 8, TestBasis(2, 2), 1, "schedule"),
            (degree3_formula(2), 8, TestBasis(2, 2), 2, "schedule"),
            (degree5_formula(1), 6, TestBasis(1, 4), 2, "singleton"),
        ],
        ids=[
            "deg5-d1-k8", "deg5-d1-k12", "deg3-d2-k5-p1", "deg3-d2-k5-p2",
            "deg3-d2-k8-p1", "deg3-d2-k8-p2", "deg5-d1-k6-singleton",
        ],
    )
    def test_json_equal_to_tuple_provenance(self, formula, k, basis, p_star, radius_mode):
        part = make_partition(1.0, k, 0.6)
        table = preprocess(formula, part, basis, p_star=p_star, radius_mode=radius_mode)
        ref = tuple_provenance_json(
            formula, part, basis, p_star, radius_mode, table.manifest, table.seconds
        )
        assert table.to_json() == ref
