"""Cubature/MC estimators and the convergence experiment plumbing."""

import dataclasses
import math
import re
import weakref

import numpy as np
import pytest

from sdecub import (
    BenchConfig,
    DimensionMismatch,
    InvalidParameter,
    ManifestMismatch,
    NonFiniteState,
    OracleUnavailable,
    PathFunctional,
    TestBasis,
    convergence_experiment,
    cubature_estimate,
    degree3_formula,
    degree5_formula,
    enumerate_leaves,
    ito_to_stratonovich,
    make_partition,
    mc_estimate,
    preprocess,
    sine_tracking_functional,
)
from sdecub import estimator
from sdecub.estimator import fit_slope, interp_loglog, plateau_cut
from sdecub.ode import solve_controlled_ode_batch
from sdecub.partition import interval_slopes
from sdecub.recombination import Level
from sdecub.fields import (
    FieldSpec,
    brownian_field,
    drift_only_field,
    ou_field,
    scaled_diffusion_field,
)
from conftest import leaf_derivatives, reference_em, terminal_functional


class TestSineTracking:
    def uniform_traj(self, values_fn, n=513):
        times = np.linspace(0.0, 1.0, n)
        vals = np.zeros((1, n, 2))
        vals[0, :, 0] = times
        vals[0, :, 1] = values_fn(times)
        return times, vals

    def test_zero_path(self):
        f = sine_tracking_functional()
        times, vals = self.uniform_traj(lambda t: 0.0 * t)
        assert f.evaluate_batch(times, vals)[0] == pytest.approx(0.5, abs=1e-12)

    def test_perfect_tracking(self):
        f = sine_tracking_functional()
        times, vals = self.uniform_traj(lambda t: np.sin(2 * math.pi * t))
        assert f.evaluate_batch(times, vals)[0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_one(self):
        f = sine_tracking_functional()
        times, vals = self.uniform_traj(lambda t: np.ones_like(t))
        assert f.evaluate_batch(times, vals)[0] == pytest.approx(1.5, abs=1e-12)


class TestCubatureEstimate:
    def test_weighted_sum_exactness(self):
        spec = brownian_field(1.0)
        functional = sine_tracking_functional()
        formula = degree5_formula(1)
        part = make_partition(1.0, 3, 0.6)
        fields = spec.stratonovich()
        rep = cubature_estimate(functional, fields, formula, part, None, x0=spec.x0)
        leaves = list(enumerate_leaves(formula, part))
        seg_times, derivs = leaf_derivatives(formula, part, [iv for iv, _ in leaves])
        x0 = np.concatenate([[0.0], spec.x0])
        times, states = solve_controlled_ode_batch(fields, seg_times, derivs, x0)
        values = functional.evaluate_batch(times, states)
        contributions = [w * v for (_, w), v in zip(leaves, values)]
        assert rep.n_paths == 27
        assert rep.value == pytest.approx(math.fsum(contributions), abs=1e-14)

    @pytest.mark.parametrize("k, table", [(3, True), (2, False)], ids=["table", "raw"])
    def test_driving_dimension_mismatch_raises(self, monkeypatch, k, table):
        # a 1-d field on a 2-d formula broadcast the slopes and gave 1.3717
        # (table) and 1.3166 (raw) for an exact 1.0
        formula, part = degree3_formula(2), make_partition(1.0, k, 0.6)
        table = preprocess(formula, part, TestBasis(2, 2), p_star=2) if table else None
        spec = brownian_field(1.0)
        monkeypatch.setattr(estimator, "solve_controlled_ode_batch", None)  # no solve may run
        with pytest.raises(DimensionMismatch, match="formula dim 2 != driving dim 1"):
            cubature_estimate(
                sine_tracking_functional(), spec.stratonovich(), formula, part, table,
                x0=spec.x0,
            )

    @pytest.mark.parametrize("x0", [np.zeros(2), np.zeros((1, 1)), np.float64(0.0)])
    def test_x0_length_mismatch_raises(self, monkeypatch, x0):
        spec = scaled_diffusion_field(0.6)
        monkeypatch.setattr(estimator, "solve_controlled_ode_batch", None)
        with pytest.raises(DimensionMismatch, match=re.escape(f"{x0.shape}, the state is 1-d")):
            cubature_estimate(
                sine_tracking_functional(), spec.stratonovich(), degree5_formula(1),
                make_partition(1.0, 2, 0.6), None, x0=x0,
            )

    @pytest.mark.parametrize("recombined", [False, True])
    def test_interval_costs_add_up_to_value(self, recombined):
        spec = scaled_diffusion_field(0.6)
        formula = degree5_formula(1)
        part = make_partition(1.0, 7, 0.6)
        table = preprocess(formula, part, TestBasis(1, 4), p_star=2) if recombined else None
        sine = sine_tracking_functional()
        both = PathFunctional("sine_plus_x", running=sine.running, terminal=lambda x: x[:, 1])
        reports = [
            cubature_estimate(
                f, spec.stratonovich(), formula, part, table, x0=spec.x0, steps_per_segment=4
            )
            for f in (sine, both, terminal_functional())
        ]
        for rep in reports:
            assert len(rep.interval_costs) == len(rep.interval_weight_range) == 7
            assert math.fsum(rep.interval_costs) == pytest.approx(rep.value, rel=1e-14)
        sine_rep, both_rep, term_rep = reports
        # the terminal cost lands in the last interval only
        assert both_rep.interval_costs[:-1] == sine_rep.interval_costs[:-1]
        assert term_rep.interval_costs[:-1] == (0.0,) * 6
        assert both_rep.value == pytest.approx(sine_rep.value + term_rep.value, rel=1e-14)
        (lo, hi), w = sine_rep.interval_weight_range[0], formula.weights
        assert (lo, hi) == (min(w), max(w))
        if not recombined:
            leaf_range = (math.prod([min(w)] * 7), math.prod([max(w)] * 7))
            assert sine_rep.interval_weight_range[-1] == leaf_range

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_steps_per_segment_rejected(self, workers):
        spec = brownian_field(1.0)
        with pytest.raises(InvalidParameter):
            cubature_estimate(
                sine_tracking_functional(), spec.stratonovich(), degree5_formula(1),
                make_partition(1.0, 3, 0.6), None, x0=spec.x0, steps_per_segment=0,
                workers=workers,
            )

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers, monkeypatch):
        solves = []
        monkeypatch.setattr(estimator, "solve_controlled_ode_batch", lambda *a: solves.append(a))
        spec = brownian_field(1.0)
        with pytest.raises(InvalidParameter, match=f"workers must be >= 1, got {workers}"):
            cubature_estimate(
                sine_tracking_functional(), spec.stratonovich(), degree5_formula(1),
                make_partition(1.0, 2, 0.6), None, x0=spec.x0, workers=workers,
            )
        assert solves == []

    def test_manifest_mismatch(self):
        formula = degree5_formula(1)
        part = make_partition(1.0, 3, 0.6)
        table = preprocess(formula, part, TestBasis(1, 4))
        other = make_partition(1.0, 4, 0.6)
        spec = brownian_field(1.0)
        with pytest.raises(ManifestMismatch):
            cubature_estimate(
                sine_tracking_functional(), spec.stratonovich(), formula, other, table
            )
        with pytest.raises(ManifestMismatch):
            cubature_estimate(
                sine_tracking_functional(), spec.stratonovich(),
                degree3_formula(1), part, table,
            )
        with pytest.raises(ManifestMismatch, match="gamma"):
            cubature_estimate(
                sine_tracking_functional(), spec.stratonovich(), formula,
                make_partition(1.0, 3, 1.0), table,
            )

    def test_workers_do_not_change_result(self):
        spec = scaled_diffusion_field(0.8)
        formula = degree5_formula(1)
        part = make_partition(1.0, 4, 0.6)
        table = preprocess(formula, part, TestBasis(1, 4), p_star=2)
        reports = [
            cubature_estimate(
                sine_tracking_functional(), spec.stratonovich(), formula, part, table,
                x0=spec.x0, workers=w,
            )
            for w in (1, 2, 4)
        ]
        assert reports[0].value == reports[1].value == reports[2].value

    def test_recombined_equals_raw_for_k2(self):
        spec = brownian_field(1.0)
        formula = degree5_formula(1)
        part = make_partition(1.0, 2, 1.0)
        table = preprocess(formula, part, TestBasis(1, 4))
        raw = cubature_estimate(
            sine_tracking_functional(), spec.stratonovich(), formula, part, None, x0=spec.x0
        )
        tab = cubature_estimate(
            sine_tracking_functional(), spec.stratonovich(), formula, part, table, x0=spec.x0
        )
        assert tab.value == pytest.approx(raw.value, abs=1e-14)
        assert tab.n_paths == raw.n_paths == 9


def whole_leaf_estimate(functional, fields, formula, partition, table, x0, steps_per_segment):
    """The estimate with every leaf solved from t=0 in one batch, no trie."""
    if table is None:
        leaves = list(enumerate_leaves(formula, partition))
    else:
        leaves = list(
            zip(map(tuple, table.prefixes(table.k).tolist()), table.levels[-1].weight.tolist())
        )
    seg_times, derivs = leaf_derivatives(formula, partition, [iv for iv, _ in leaves])
    x0_aug = np.concatenate([[0.0], np.atleast_1d(x0)])
    times, states = solve_controlled_ode_batch(fields, seg_times, derivs, x0_aug, steps_per_segment)
    values = functional.evaluate_batch(times, states)
    return math.fsum(np.array([w for _, w in leaves]) * values)


def interval_by_interval_estimate(
    functional, fields, formula, partition, table, x0, steps_per_segment
):
    """The estimate with each level's rows solved from t=0, weighted by the table.

    Interval i's rows are the children (p, j) of the table's interval i-1 (the
    root for i=1), weighted T_{i-1}[p] * w_j; each is solved from t=0 along
    its prefix and charged the trapezoid of the running cost over interval i.
    """
    k, q = partition.k, formula.q
    x0_aug = np.concatenate([[0.0], np.atleast_1d(x0)])
    terms = []
    parents = {(): 1.0}
    for i in range(1, k + 1):
        children = sorted(
            (p + (j,), wp * formula.weights[j - 1])
            for p, wp in parents.items()
            for j in range(1, q + 1)
        )
        seg_times, derivs = leaf_derivatives(
            formula, partition, [c + (1,) * (k - i) for c, _ in children]
        )
        n_seg = (seg_times.shape[0] - 1) // k
        times, states = solve_controlled_ode_batch(
            fields, seg_times[: i * n_seg + 1], derivs[:, : i * n_seg], x0_aug,
            steps_per_segment,
        )
        lo = (i - 1) * n_seg * steps_per_segment
        costs = np.trapezoid(functional.running(times[lo:], states[:, lo:]), times[lo:], axis=1)
        terms += [w * c for (_, w), c in zip(children, costs)]
        parents = dict(zip(map(tuple, table.prefixes(i).tolist()), table.levels[i - 1].weight))
    return math.fsum(terms)


def raw_degree5_k5():
    spec = scaled_diffusion_field(0.6)
    return spec, degree5_formula(1), make_partition(1.0, 5, 0.6), None


def ou_degree3_2d_table():
    # reduction first bites at interval 5: 996 of 1024 prefixes survive
    spec = ou_field(rate=1.5, mean=0.5, sigma=0.7, d=2, x0=0.2)
    formula = degree3_formula(2)
    part = make_partition(1.0, 6, 0.6)
    return spec, formula, part, preprocess(formula, part, TestBasis(2, 2), p_star=2)


class TestTrieSolve:
    @pytest.mark.parametrize(
        "formula, basis",
        [(degree5_formula(1), TestBasis(1, 4)), (degree3_formula(2), TestBasis(2, 2))],
        ids=["deg5-d1", "deg3-d2"],
    )
    def test_unreduced_table_walks_the_raw_levels(self, formula, basis):
        # the one walk gives a table and the raw tree in one form: the
        # interval grid, row slopes, row weights and the rows of the level
        # before that start each row
        part = make_partition(1.0, 5, 0.6)
        table = preprocess(formula, part, basis, p_star=2, radius_mode="singleton")
        n_paths, walk = estimator.tree_levels(formula, part, table)
        n_raw, raw = estimator.tree_levels(formula, part)
        assert n_paths == n_raw == formula.q**5
        walk, raw = list(walk), list(raw)
        assert len(walk) == len(raw) == 5
        seg_times, all_slopes = interval_slopes(formula, part)
        n_seg = all_slopes.shape[2]
        for i, (level, raw_level) in enumerate(zip(walk, raw)):
            assert len(level) == len(raw_level) == 4
            for ours, theirs in zip(level, raw_level):
                assert ours.dtype == theirs.dtype
                assert np.array_equal(ours, theirs)
            # row r is child r % q of row r // q of the level before
            times, slopes, weights, rows = level
            r = np.arange(formula.q ** (i + 1))
            assert np.array_equal(times, seg_times[i * n_seg : (i + 1) * n_seg + 1])
            assert np.array_equal(slopes, all_slopes[i, r % formula.q])
            assert np.array_equal(rows, r // formula.q)
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-14)

    def test_table_without_leaves_has_no_levels(self):
        formula, part = degree5_formula(1), make_partition(1.0, 3, 0.6)
        table = preprocess(formula, part, TestBasis(1, 4), p_star=2)
        nothing = Level(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
        empty = dataclasses.replace(table, levels=(nothing,) * table.k)
        n_paths, levels = estimator.tree_levels(formula, part, empty)
        assert n_paths == 0 and list(levels) == []
        spec = scaled_diffusion_field(0.6)
        rep = cubature_estimate(
            sine_tracking_functional(), spec.stratonovich(), formula, part, empty, x0=spec.x0
        )
        assert (rep.value, rep.n_paths, rep.interval_solves, rep.interval_costs) == (0.0, 0, 0, ())

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", [raw_degree5_k5, ou_degree3_2d_table])
    def test_bitwise_equal_to_whole_leaf_solve(self, case, workers):
        # a raw tree weights whole leaves exactly; a recombined table weights
        # each interval by its previous level, checked against solves from t=0
        spec, formula, part, table = case()
        functional = sine_tracking_functional()
        fields = spec.stratonovich()
        rep = cubature_estimate(
            functional, fields, formula, part, table, x0=spec.x0, steps_per_segment=8,
            workers=workers,
        )
        reference = (whole_leaf_estimate if table is None else interval_by_interval_estimate)(
            functional, fields, formula, part, table, spec.x0, 8
        )
        assert rep.value == reference

    def test_each_trie_node_solved_once(self, monkeypatch):
        rows = []
        solve = estimator.solve_controlled_ode_batch

        def counting(fields, seg_times, derivs, *args):
            rows.append(derivs.shape[0])
            return solve(fields, seg_times, derivs, *args)

        monkeypatch.setattr(estimator, "solve_controlled_ode_batch", counting)
        spec, formula, part, _ = raw_degree5_k5()
        rep = cubature_estimate(
            sine_tracking_functional(), spec.stratonovich(), formula, part, None,
            x0=spec.x0, steps_per_segment=4,
        )
        # one solve per interval, one row per distinct prefix: 3 + 9 + ... + 243
        assert rows == [3, 9, 27, 81, 243]
        assert rep.interval_solves == 363
        assert rep.n_paths == 243

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_state_names_interval_and_global_segment(self):
        # dx/dt = x^2 from x=1.5 blows up at t=2/3, inside the second interval
        def mu(t, x):
            return x * x

        def sig(t, x):
            return np.zeros((x.shape[0], 1, 1))

        fields = ito_to_stratonovich(mu, sig, 1, 1)
        formula = degree5_formula(1)
        part = make_partition(1.0, 2, 1.0)
        x0 = np.array([1.5])
        with pytest.raises(NonFiniteState) as whole:
            whole_leaf_estimate(sine_tracking_functional(), fields, formula, part, None, x0, 8)
        seg = whole.value.segment
        n_seg = 3  # linear segments per interval of the degree-5 paths
        assert n_seg <= seg < 2 * n_seg
        with pytest.raises(NonFiniteState, match=f"in interval 2 of 2, segment {seg}$") as trie:
            cubature_estimate(
                sine_tracking_functional(), fields, formula, part, None, x0=x0,
                steps_per_segment=8,
            )
        assert trie.value.segment == seg
        assert isinstance(trie.value.__cause__, NonFiniteState)


class TestMcEstimate:
    def test_deterministic_for_zero_sigma(self):
        spec = drift_only_field(rate=1.0, d=1, x0=1.0)
        r1 = mc_estimate(sine_tracking_functional(), spec, 1, 128, seed=3)
        r2 = mc_estimate(sine_tracking_functional(), spec, 1, 128, seed=99)
        assert r1.value == r2.value

    def test_same_seed_identical(self):
        spec = brownian_field(1.0)
        r1 = mc_estimate(sine_tracking_functional(), spec, 500, 64, seed=42)
        r2 = mc_estimate(sine_tracking_functional(), spec, 500, 64, seed=42)
        assert r1.value == r2.value

    def test_bm_oracle_band(self):
        spec = brownian_field(1.0)
        rep = mc_estimate(sine_tracking_functional(), spec, 100000, 256, seed=7)
        assert rep.value == pytest.approx(1.0, abs=0.02)

    def test_chunk_is_part_of_the_sampling_layout(self, monkeypatch):
        # the Gaussian stream layout depends on the chunk size, so the
        # reproducibility contract is per seed and MC_CHUNK_PATHS
        spec = brownian_field(1.0)
        r0 = mc_estimate(sine_tracking_functional(), spec, 300, 32, seed=5)
        monkeypatch.setattr(estimator, "MC_CHUNK_PATHS", 64)
        r1 = mc_estimate(sine_tracking_functional(), spec, 300, 32, seed=5)
        r2 = mc_estimate(sine_tracking_functional(), spec, 300, 32, seed=5)
        assert r1.value == r2.value != r0.value

    @pytest.mark.parametrize("n_paths", [0, -3])
    def test_counts_below_one_raise_before_any_solve(self, n_paths, monkeypatch):
        solves = []
        monkeypatch.setattr(estimator, "solve_sde_mc_batch", lambda *args: solves.append(args))
        with pytest.raises(InvalidParameter, match="n_paths must be >= 1"):
            mc_estimate(sine_tracking_functional(), brownian_field(1.0), n_paths, 8, seed=1)
        assert solves == []

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_non_positive_horizon_raises(self, T):
        with pytest.raises(InvalidParameter, match=f"horizon T must be positive, got {T}"):
            mc_estimate(sine_tracking_functional(), brownian_field(1.0), 10, 8, seed=1, T=T)

    def test_each_chunk_released_before_the_next_solve(self, monkeypatch):
        # one chunk's trajectory at a time: the previous one is dead when the
        # next solve allocates its buffer
        solve = estimator.solve_sde_mc_batch
        refs, alive_at_call = [], []

        def tracking(*args):
            alive_at_call.append(sum(ref() is not None for ref in refs))
            times, paths = solve(*args)
            refs.extend([weakref.ref(paths), weakref.ref(paths.base)])
            return times, paths

        monkeypatch.setattr(estimator, "solve_sde_mc_batch", tracking)
        monkeypatch.setattr(estimator, "MC_CHUNK_PATHS", 64)
        mc_estimate(sine_tracking_functional(), brownian_field(1.0), 250, 16, seed=4)
        assert alive_at_call == [0, 0, 0, 0]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_state_names_the_chunk(self, monkeypatch):
        # dx = x^3 dt + dB from 0: a few paths stray far enough to blow up
        def mu(t, x):
            return x**3

        def sig(t, x):
            return np.ones((x.shape[0], 1, 1))

        spec = FieldSpec("cubic", 1, 1, mu, sig, None, np.zeros(1))
        chunk, n_paths, grid = 40, 400, 16
        rng = np.random.default_rng(9)
        with np.errstate(over="ignore"):
            for done in range(0, n_paths, chunk):
                _, ref = reference_em(mu, sig, spec.x0, 1.0, grid, rng, chunk)
                if not np.all(np.isfinite(ref[:, -1])):
                    break
        assert 0 < done < n_paths - chunk  # a later chunk fails, not the first or last
        monkeypatch.setattr(estimator, "MC_CHUNK_PATHS", chunk)
        with pytest.raises(NonFiniteState) as info:
            mc_estimate(sine_tracking_functional(), spec, n_paths, grid, seed=9)
        cause = info.value.__cause__
        assert isinstance(cause, NonFiniteState)
        pattern = rf"Euler-Maruyama .* after step \d+ of {grid} \(t = .*\) in \d+ of {chunk} paths"
        assert re.fullmatch(pattern, str(cause))
        assert str(info.value) == f"{cause} (chunk of paths {done} to {done + chunk - 1} of 400)"
        assert info.value.segment == cause.segment is not None


def reference_mc(functional, spec, n_paths, grid, seed, T=1.0, chunk=20000):
    """Path-major Euler-Maruyama with each whole chunk evaluated at once.

    The straightforward Monte Carlo estimate that ``mc_estimate`` must match
    bit for bit; returns (estimate, per-path values).
    """
    rng = np.random.default_rng(seed)
    values = np.empty(n_paths)
    done = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        times, paths = reference_em(spec.mu, spec.sigma, spec.x0, T, grid, rng, m)
        states = np.empty((m, grid + 1, spec.d_x + 1))
        states[:, :, 0] = times
        states[:, :, 1:] = paths
        values[done : done + m] = functional.evaluate_batch(times, states)
        done += m
    return math.fsum(values) / n_paths, values


def capturing(functional):
    """The functional, plus the per-path values and row counts of its calls."""
    values, rows = [], []

    def evaluate_batch(times, states):
        out = functional.evaluate_batch(times, states)
        values.append(np.array(out))
        rows.append(states.shape[0])
        return out

    return dataclasses.replace(functional, evaluate_batch=evaluate_batch), values, rows


def running_plus_terminal():
    return PathFunctional(
        "sine_plus_terminal",
        running=sine_tracking_functional().running,
        terminal=terminal_functional(1).terminal,
    )


class TestMcBlocksBitwise:
    """``mc_estimate`` against :func:`reference_mc`: the estimate and every
    per-path value equal, whatever block the paths are evaluated in."""

    # (spec, functional, n_paths, grid, chunk, rows per block or None for
    # the default byte budget)
    CASES = {
        # the benchmark's grid: three blocks under the default budget
        "scaled_diffusion": (scaled_diffusion_field(0.6), sine_tracking_functional(),
                             3000, 512, 20000, None),
        "brownian": (brownian_field(1.0), sine_tracking_functional(), 2000, 64, 20000, None),
        "ou_2d": (ou_field(2.0, -0.5, 0.8, d=2, x0=0.3), running_plus_terminal(),
                  2000, 64, 20000, None),
        "rows_not_multiple_of_block": (brownian_field(0.5), sine_tracking_functional(),
                                       100, 32, 20000, 7),
        "below_one_block": (scaled_diffusion_field(0.3), sine_tracking_functional(),
                            50, 64, 20000, None),
        "remainder_chunk": (ou_field(1.0, 0.5, 0.5, d=2), running_plus_terminal(),
                            250, 32, 64, 24),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_whole_chunk_reference(self, case, monkeypatch):
        spec, functional, n_paths, grid, chunk, rows = self.CASES[case]
        if rows is not None:
            row_bytes = 8 * (grid + 1) * (spec.d_x + 1)
            monkeypatch.setattr(estimator, "MC_BLOCK_BYTES", rows * row_bytes + row_bytes // 2)
        monkeypatch.setattr(estimator, "MC_CHUNK_PATHS", chunk)
        captured, values, calls = capturing(functional)
        report = mc_estimate(captured, spec, n_paths, grid, seed=2718)
        ref_value, ref_values = reference_mc(
            functional, spec, n_paths, grid, seed=2718, chunk=chunk
        )
        assert report.value == ref_value
        assert np.array_equal(np.concatenate(values), ref_values)
        if rows is not None:
            assert max(calls) == rows
            assert len(calls) > math.ceil(n_paths / chunk)

    def test_block_stays_inside_the_byte_budget(self):
        # a fine grid gets fewer rows per block, not a bigger block
        spec = brownian_field(1.0)
        captured, _, calls = capturing(sine_tracking_functional())
        grid = 4000
        mc_estimate(captured, spec, 300, grid, seed=3)
        assert sum(calls) == 300
        assert max(calls) * 8 * (grid + 1) * 2 <= estimator.MC_BLOCK_BYTES


class TestSlopeFitting:
    def test_fit_slope_recovers_power_law(self):
        ns = [10, 100, 1000]
        errors = [1.0, 0.1, 0.01]
        assert fit_slope(ns, errors) == pytest.approx(-1.0, abs=1e-12)

    def test_plateau_cut(self):
        ns = [1, 2, 4, 8, 16]
        errors = [1.0, 0.5, 0.25, 0.24, 0.24]
        assert plateau_cut(ns, errors) == 3

    def test_interp_loglog_clamps(self):
        assert interp_loglog(1.0, [10, 100], [1.0, 0.1]) == pytest.approx(1.0)
        assert interp_loglog(31.62, [10, 100], [1.0, 0.1]) == pytest.approx(0.3162, rel=1e-3)


class TestConvergenceExperiment:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(InvalidParameter, match=f"workers must be >= 1, got {workers}"):
            BenchConfig(
                spec=brownian_field(1.0), functional=sine_tracking_functional(), workers=workers
            )

    def test_oracle_unavailable(self):
        spec = drift_only_field()
        config = BenchConfig(spec=spec, functional=sine_tracking_functional())
        with pytest.raises(OracleUnavailable):
            convergence_experiment(config)

    def test_small_sweep_shape(self):
        config = BenchConfig(
            spec=brownian_field(1.0),
            functional=sine_tracking_functional(),
            mc_ns=(10, 100),
            mc_replicates=3,
            mc_grid=64,
            cub_ks=(1, 2),
            steps_per_segment=8,
        )
        rows, summary = convergence_experiment(config)
        methods = [r.method for r in rows]
        assert methods == ["mc", "mc", "cubature", "cubature"]
        assert summary["oracle"] == pytest.approx(1.0)
        assert rows[2].n == 3 and rows[3].n == 9
