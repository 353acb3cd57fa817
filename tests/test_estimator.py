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
    OracleUnavailable,
    TestBasis,
    convergence_experiment,
    cubature_estimate,
    degree3_formula,
    degree5_formula,
    enumerate_leaves,
    leaf_derivatives,
    make_partition,
    mc_estimate,
    preprocess,
    sine_tracking_functional,
)
from sdecub.estimator import fit_slope, interp_loglog, plateau_cut
from sdecub.ode import solve_controlled_ode_batch
from sdecub.recombination import WeightTable
from sdecub.fields import brownian_field, drift_only_field, scaled_diffusion_field


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
