"""Variational loss, both gradient arms, and the training loop."""

import json
import math
import re

import numpy as np
import pytest

from sdecub import (
    IndexOutOfRange,
    InvalidParameter,
    ManifestMismatch,
    NetworkFields,
    SingularDiffusion,
    TrainConfig,
    VariationalLossSpec,
    loss_and_gradient_cubature,
    loss_and_gradient_mc,
    make_partition,
    make_training_data,
    train,
    variational_loss_terms,
)
from sdecub.recombination import WeightTable
from sdecub.training import build_tree


def small_setup(d_x=1, k=3, width=4, seed=0, **cfg_kwargs):
    config = TrainConfig(d_x=d_x, k=k, width=width, **cfg_kwargs)
    spec = make_training_data(config)
    formula, partition, table = build_tree(config)
    nets = NetworkFields(d_x, width=width)
    theta = nets.init_params(seed)
    return config, spec, formula, partition, table, nets, theta


def flat_path(spec, value=0.0, n=33):
    """(times, states): a constant latent path on a uniform grid."""
    return np.linspace(0.0, 1.0, n), np.full((n, spec.d_x), value)


class TestVariationalLoss:
    def test_zero_mismatch_kills_kl(self):
        _, spec, _, _, _, nets, theta = small_setup()
        # copy the posterior parameters into the prior: identical drifts
        theta[nets.prior.hidden.w_slice] = theta[nets.posterior.hidden.w_slice]
        theta[nets.prior.hidden.b_slice] = theta[nets.posterior.hidden.b_slice]
        theta[nets.prior.out.w_slice] = theta[nets.posterior.out.w_slice]
        theta[nets.prior.out.b_slice] = theta[nets.posterior.out.b_slice]
        _, kl = variational_loss_terms(nets, theta, *flat_path(spec), spec)
        assert kl == 0.0

    def test_reconstruction_of_identical_path_unit_noise(self):
        # trajectory equal to the single data path, unit observation noise
        config = TrainConfig(d_x=1, n_data=1, obs_noise=1.0)
        base = make_training_data(config)
        nets = NetworkFields(1, width=4)
        theta = nets.init_params(0)
        recon, _ = variational_loss_terms(
            nets, theta, base.data_times, base.data_values[0], base
        )
        assert recon == pytest.approx(-0.5 * 1 * math.log(2 * math.pi), abs=1e-12)

    def test_doubling_diffusion_quarters_kl(self):
        _, spec, _, _, _, nets, theta = small_setup()
        path = flat_path(spec, value=0.3)
        _, kl1 = variational_loss_terms(nets, theta, *path, spec)

        class Doubled(NetworkFields):
            def diffusion_diag(self, leaves, x, t):
                return 2.0 * super().diffusion_diag(leaves, x, t)

        doubled = Doubled(1, width=4)
        _, kl2 = variational_loss_terms(doubled, theta, *path, spec)
        assert kl2 == pytest.approx(kl1 / 4.0, rel=1e-12)

    def test_singular_diffusion_raises(self):
        _, spec, _, _, _, _, theta = small_setup()
        nets = NetworkFields(1, width=4, zero_diffusion=True)
        with pytest.raises(SingularDiffusion):
            variational_loss_terms(nets, theta, *flat_path(spec), spec)


class TestGradients:
    def test_cubature_matches_central_differences(self):
        config, spec, formula, partition, table, nets, theta = small_setup()

        def loss(th):
            return loss_and_gradient_cubature(
                nets, th, table, formula, partition, spec, steps_per_segment=4
            ).loss

        rep = loss_and_gradient_cubature(
            nets, theta, table, formula, partition, spec, steps_per_segment=4
        )
        h = 1e-4
        for i in range(0, nets.n_params, 7):
            tp = theta.copy()
            tp[i] += h
            tm = theta.copy()
            tm[i] -= h
            fd = (loss(tp) - loss(tm)) / (2 * h)
            assert rep.gradient[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_mc_matches_central_differences(self):
        config, spec, _, _, _, nets, theta = small_setup()

        def loss(th):
            return loss_and_gradient_mc(nets, th, 4, 24, 11, spec).loss

        rep = loss_and_gradient_mc(nets, theta, 4, 24, 11, spec)
        h = 1e-4
        for i in range(0, nets.n_params, 7):
            tp = theta.copy()
            tp[i] += h
            tm = theta.copy()
            tm[i] -= h
            fd = (loss(tp) - loss(tm)) / (2 * h)
            assert rep.gradient[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_empty_table_zero_gradient(self):
        config, spec, formula, partition, table, nets, theta = small_setup()
        empty = WeightTable(
            k=table.k,
            intervals=tuple({} for _ in table.intervals),
            survivor_counts=(0,) * table.k,
            radii=table.radii,
            seconds=0.0,
            manifest=table.manifest,
        )
        rep = loss_and_gradient_cubature(nets, theta, empty, formula, partition, spec)
        assert rep.loss == 0.0
        assert np.all(rep.gradient == 0.0)
        assert rep.n_paths == 0

    def test_gradient_linear_in_leaf_weights(self):
        config, spec, formula, partition, table, nets, theta = small_setup()
        doubled = WeightTable(
            k=table.k,
            intervals=tuple(
                {p: 2.0 * w for p, w in entries.items()} for entries in table.intervals
            ),
            survivor_counts=table.survivor_counts,
            radii=table.radii,
            seconds=table.seconds,
            manifest=table.manifest,
        )
        r1 = loss_and_gradient_cubature(nets, theta, table, formula, partition, spec)
        r2 = loss_and_gradient_cubature(nets, theta, doubled, formula, partition, spec)
        assert r2.loss == pytest.approx(2.0 * r1.loss, rel=1e-12)
        assert r2.gradient == pytest.approx(2.0 * r1.gradient, rel=1e-9, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_diffusion_raises_before_dividing(self):
        config, spec, formula, partition, table, _, theta = small_setup()
        nets = NetworkFields(1, width=4, zero_diffusion=True)
        assert spec.kl_weight > 0
        with pytest.raises(SingularDiffusion, match="at t=0"):
            loss_and_gradient_cubature(nets, theta, table, formula, partition, spec)
        with pytest.raises(SingularDiffusion, match="at t=0"):
            loss_and_gradient_mc(nets, theta, 4, 24, 11, spec)

    @pytest.mark.parametrize("prefix", [(0, 1, 1), (3, 1, 1), (1, 1)])
    def test_malformed_table_leaf_rejected(self, prefix):
        config, spec, formula, partition, table, nets, theta = small_setup()
        doc = json.loads(table.to_json())
        doc["intervals"][-1][0][0] = list(prefix)
        bad = WeightTable.from_json(json.dumps(doc))
        with pytest.raises(IndexOutOfRange, match=re.escape(str(prefix))):
            loss_and_gradient_cubature(nets, theta, bad, formula, partition, spec)

    def test_table_for_other_gamma_rejected(self):
        # the k=3 table is built at gamma 0.6; a gamma-1.0 partition moves the
        # knots the leaves are scaled onto
        config, spec, formula, partition, table, nets, theta = small_setup()
        assert table.manifest["gamma"] == 0.6
        other = make_partition(partition.horizon, 3, 1.0)
        with pytest.raises(ManifestMismatch, match="gamma"):
            loss_and_gradient_cubature(nets, theta, table, formula, other, spec)

    @pytest.mark.parametrize("grid", [0, -1])
    def test_non_positive_mc_grid_rejected(self, grid):
        config, spec, _, _, _, nets, theta = small_setup()
        with pytest.raises(InvalidParameter):
            loss_and_gradient_mc(nets, theta, 4, grid, 11, spec)

    def test_zero_steps_per_segment_rejected(self):
        config, spec, formula, partition, table, nets, theta = small_setup()
        with pytest.raises(InvalidParameter):
            loss_and_gradient_cubature(
                nets, theta, table, formula, partition, spec, steps_per_segment=0
            )

    def test_mc_seed_independence_when_diffusion_off(self):
        config = TrainConfig(d_x=1, width=4, kl_weight=0.0)
        spec = make_training_data(config)
        spec = VariationalLossSpec(
            spec.data_times, spec.data_values, spec.obs_noise, kl_weight=0.0
        )
        nets = NetworkFields(1, width=4, zero_diffusion=True)
        theta = nets.init_params(2)
        r1 = loss_and_gradient_mc(nets, theta, 4, 32, 1, spec)
        r2 = loss_and_gradient_mc(nets, theta, 4, 32, 999, spec)
        assert r1.loss == pytest.approx(r2.loss, abs=1e-14)
        assert r1.gradient == pytest.approx(r2.gradient, abs=1e-12)

    def test_two_seeds_differ_with_diffusion(self):
        config, spec, _, _, _, nets, theta = small_setup()
        r1 = loss_and_gradient_mc(nets, theta, 8, 32, 1, spec)
        r2 = loss_and_gradient_mc(nets, theta, 8, 32, 2, spec)
        assert not np.allclose(r1.gradient, r2.gradient)


class TestObjectiveAgreement:
    def test_arms_coincide_for_deterministic_dynamics(self):
        # diffusion pinned to zero and KL off: both arms integrate the same
        # ODE, differing only by solver order
        config = TrainConfig(d_x=1, width=4, k=3, kl_weight=0.0, mc_grid=800)
        spec = make_training_data(config)
        spec = VariationalLossSpec(
            spec.data_times, spec.data_values, spec.obs_noise, kl_weight=0.0
        )
        formula, partition, table = build_tree(config)
        nets = NetworkFields(1, width=4, zero_diffusion=True)
        theta = nets.init_params(4)
        cub = loss_and_gradient_cubature(
            nets, theta, table, formula, partition, spec, steps_per_segment=16
        )
        mc = loss_and_gradient_mc(nets, theta, 1, 800, 5, spec)
        assert cub.loss == pytest.approx(mc.loss, abs=5e-3)


class TestTrain:
    def test_losses_decrease_and_speedup(self):
        config = TrainConfig(d_x=1, epochs=25, lr=0.05)
        log = train(config)
        cub = log.losses("cubature")
        mc = log.losses("mc")
        assert cub[-1] < cub[0]
        assert mc[-1] < mc[0]
        assert np.median(log.seconds("cubature")) < np.median(log.seconds("mc"))
        assert np.all(log.peak_bytes("cubature") > 0)

    def test_zero_learning_rate_constant_loss(self):
        config = TrainConfig(d_x=1, epochs=4, lr=0.0)
        log = train(config)
        cub = log.losses("cubature")
        assert np.all(cub == cub[0])

    def test_bit_reproducible(self):
        config = TrainConfig(d_x=1, epochs=5, lr=0.05)
        l1 = train(config)
        l2 = train(config)
        assert np.array_equal(l1.losses("cubature"), l2.losses("cubature"))
        assert np.array_equal(l1.losses("mc"), l2.losses("mc"))
        assert np.array_equal(l1.theta_cubature, l2.theta_cubature)

    def test_kl_nonnegative_each_epoch(self):
        config = TrainConfig(d_x=1, epochs=3, lr=0.05)
        spec = make_training_data(config)
        formula, partition, table = build_tree(config)
        nets = NetworkFields(1, width=config.width)
        theta = nets.init_params(config.seed)
        for _ in range(3):
            spec_no_kl = VariationalLossSpec(
                spec.data_times, spec.data_values, spec.obs_noise, kl_weight=0.0
            )
            full = loss_and_gradient_cubature(nets, theta, table, formula, partition, spec)
            recon_only = loss_and_gradient_cubature(
                nets, theta, table, formula, partition, spec_no_kl
            )
            assert full.loss - recon_only.loss >= -1e-12  # KL term
            theta = theta - config.lr * full.gradient

    def test_csv_schema(self):
        config = TrainConfig(d_x=1, epochs=2, lr=0.01)
        log = train(config)
        lines = log.to_csv().splitlines()
        assert lines[0] == "epoch,arm,loss,seconds,peak_bytes"
        assert len(lines) == 1 + 2 * config.epochs
