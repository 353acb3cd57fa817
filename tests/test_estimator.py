"""Cubature/MC estimators and the convergence experiment plumbing."""

import json
import math
import re

import numpy as np
import pytest

from sdecub import (
    BenchConfig,
    IndexOutOfRange,
    InvalidParameter,
    ManifestMismatch,
    NonFiniteState,
    OracleUnavailable,
    TestBasis,
    convergence_experiment,
    cubature_estimate,
    degree3_formula,
    degree5_formula,
    enumerate_leaves,
    ito_to_stratonovich,
    leaf_derivatives,
    make_partition,
    mc_estimate,
    preprocess,
    sine_tracking_functional,
)
from sdecub import estimator
from sdecub.estimator import fit_slope, interp_loglog, plateau_cut
from sdecub.ode import solve_controlled_ode_batch
from sdecub.recombination import WeightTable
from sdecub.fields import brownian_field, drift_only_field, ou_field, scaled_diffusion_field


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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("prefix", [(0, 1, 1, 1), (4, 1, 1, 1), (1, 1, 1)])
    def test_malformed_table_leaf_rejected(self, prefix, workers):
        # a table read back from JSON is not re-validated on load; without the
        # check, index 0 wraps to path q, index q+1 and a short prefix crash
        spec = scaled_diffusion_field(0.6)
        formula = degree5_formula(1)
        part = make_partition(1.0, 4, 0.6)
        doc = json.loads(preprocess(formula, part, TestBasis(1, 4), p_star=2).to_json())
        doc["intervals"][-1][0][0] = list(prefix)
        table = WeightTable.from_json(json.dumps(doc))
        with pytest.raises(IndexOutOfRange, match=re.escape(str(prefix))):
            cubature_estimate(
                sine_tracking_functional(), spec.stratonovich(), formula, part, table,
                x0=spec.x0, steps_per_segment=8, workers=workers,
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_steps_per_segment_rejected(self, workers):
        spec = brownian_field(1.0)
        with pytest.raises(InvalidParameter):
            cubature_estimate(
                sine_tracking_functional(), spec.stratonovich(), degree5_formula(1),
                make_partition(1.0, 3, 0.6), None, x0=spec.x0, steps_per_segment=0,
                workers=workers,
            )

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
        leaves = sorted(table.leaf_weights().items())
    seg_times, derivs = leaf_derivatives(formula, partition, [iv for iv, _ in leaves])
    x0_aug = np.concatenate([[0.0], np.atleast_1d(x0)])
    times, states = solve_controlled_ode_batch(fields, seg_times, derivs, x0_aug, steps_per_segment)
    values = functional.evaluate_batch(times, states)
    return math.fsum(np.array([w for _, w in leaves]) * values)


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
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", [raw_degree5_k5, ou_degree3_2d_table])
    def test_bitwise_equal_to_whole_leaf_solve(self, case, workers):
        spec, formula, part, table = case()
        functional = sine_tracking_functional()
        fields = spec.stratonovich()
        rep = cubature_estimate(
            functional, fields, formula, part, table, x0=spec.x0, steps_per_segment=8,
            workers=workers,
        )
        reference = whole_leaf_estimate(functional, fields, formula, part, table, spec.x0, 8)
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

    def test_chunk_is_part_of_the_sampling_layout(self):
        # the Gaussian stream layout depends on the chunk size, so the
        # reproducibility contract is per (seed, chunk)
        spec = brownian_field(1.0)
        r1 = mc_estimate(sine_tracking_functional(), spec, 300, 32, seed=5, chunk=64)
        r2 = mc_estimate(sine_tracking_functional(), spec, 300, 32, seed=5, chunk=64)
        assert r1.value == r2.value


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
            mc_fit_range=(10, 100),
            cub_ks=(1, 2),
            steps_per_segment=8,
        )
        rows, summary = convergence_experiment(config)
        methods = [r.method for r in rows]
        assert methods == ["mc", "mc", "cubature", "cubature"]
        assert summary["oracle"] == pytest.approx(1.0)
        assert rows[2].n == 3 and rows[3].n == 9
