"""Variational loss, both gradient arms, and the training loop."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from sdecub import (
    DimensionMismatch,
    DivergenceDetected,
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
)
from sdecub import TestBasis, preprocess, tape, training
from sdecub.estimator import tree_levels
from sdecub.ode import rk4_steps
from sdecub.partition import interval_slopes
from sdecub.recombination import Level, WeightTable
from sdecub.training import build_tree

from conftest import ZeroDiffusionFields, leaf_derivatives
from test_tape_nets import unfused_mismatch, unfused_misfit, unfused_mlp


def small_setup(d_x=1, k=3, width=4, seed=0, **cfg_kwargs):
    config = TrainConfig(d_x=d_x, k=k, width=width, **cfg_kwargs)
    spec = make_training_data(config)
    formula, partition, table = build_tree(config)
    nets = NetworkFields(d_x, width=width)
    theta = nets.init_params(seed)
    return config, spec, formula, partition, table, nets, theta


def variational_loss_terms(nets, theta, times, states, spec):
    """(reconstruction log-density R, drift-mismatch penalty K) of one path.

    ``states`` holds the path's latent state at ``times``, shape (n, d_x).
    """
    nodes = [tape.const(z[None]) for z in states]
    misfit, mismatch, const, _ = training._loss_graph(
        nets, nets.wrap(theta), [(times, nodes, np.ones(1))], spec, {}
    )
    kl = 0.0 if mismatch is None else float(mismatch.value)
    return -(float(misfit.value) + const), kl


def flat_path(spec, value=0.0, n=33):
    """(times, states): a constant latent path on a uniform grid."""
    return np.linspace(0.0, 1.0, n), np.full((n, spec.d_x), value)


class UnfusedFields(NetworkFields):
    """The networks recorded as one tape node per layer operation."""

    def _mlp(self, leaves, name, x, t, floor=None):
        params = [leaves[f"{name}.{p}"] for p in ("hidden.w", "hidden.b", "out.w", "out.b")]
        return unfused_mlp(x, *params, t, floor)


def reference_cubature(nets, theta, table, formula, partition, spec, steps_per_segment):
    """The cubature arm's level walk with every network evaluated afresh in
    the loss graph."""
    n_paths, levels = tree_levels(formula, partition, table)
    leaves = nets.wrap(theta)

    def rhs(t, z, g):
        return nets.drift_posterior(leaves, z, t) + nets.diffusion_diag(leaves, z, t) * g

    z = nets.initial_state(leaves, batch=1)
    pieces = []
    for interval, derivs, weights, rows in levels:
        z = tape.take(z, rows)
        times, states = [interval[0]], [z]
        for t, z in rk4_steps(rhs, interval, derivs, z, steps_per_segment):
            times.append(t)
            states.append(z)
        pieces.append((np.array(times), states, weights))
    return training._gradient_report(nets, leaves, pieces, spec, {}, n_paths)


def whole_leaf_cubature(nets, theta, table, formula, partition, spec, steps_per_segment):
    """The whole-leaf route: every surviving leaf solved from t=0 and its
    whole-path loss weighted by the table's leaf weight."""
    seg_times, derivs = leaf_derivatives(formula, partition, table.prefixes(table.k))
    leaves = nets.wrap(theta)

    def rhs(t, z, g):
        return nets.drift_posterior(leaves, z, t) + nets.diffusion_diag(leaves, z, t) * g

    z0 = nets.initial_state(leaves, batch=derivs.shape[0])
    times, states = [seg_times[0]], [z0]
    for t, z in rk4_steps(rhs, seg_times, derivs, z0, steps_per_segment):
        times.append(t)
        states.append(z)
    piece = (np.array(times), states, table.levels[-1].weight)
    return training._gradient_report(nets, leaves, [piece], spec, {}, table.n_leaves)


def scaled_table(table, factor):
    """The table with every level's weights multiplied by ``factor``."""
    return dataclasses.replace(
        table, levels=tuple(level._replace(weight=factor * level.weight) for level in table.levels)
    )


def relative_errors(rep, ref):
    """(relative loss error, relative gradient error in norm) of ``rep``."""
    loss = abs(rep.loss - ref.loss) / abs(ref.loss)
    grad = np.linalg.norm(rep.gradient - ref.gradient) / np.linalg.norm(ref.gradient)
    return loss, grad


def reference_mc(nets, theta, n_paths, grid, seed, spec):
    """The Monte Carlo arm with every network evaluated afresh in the loss graph."""
    h = 1.0 / grid
    noise = np.random.default_rng(seed).standard_normal((grid, n_paths, nets.d_x)) * math.sqrt(h)
    leaves = nets.wrap(theta)
    z = nets.initial_state(leaves, batch=n_paths)
    times = np.linspace(0.0, 1.0, grid + 1)
    states = [z]
    for step in range(grid):
        f = nets.drift_posterior(leaves, z, times[step])
        g = nets.diffusion_diag(leaves, z, times[step])
        z = z + f * h + g * noise[step]
        states.append(z)
    weights = np.full(n_paths, 1.0 / n_paths)
    return training._gradient_report(nets, leaves, [(times, states, weights)], spec, {}, n_paths)


def unfused_loss_graph(nets, leaves, pieces, spec, evaluated):
    """``training._loss_graph`` with each loss term one node per operation:
    the reference the fused loss nodes are checked against."""
    inv_two_var = 1.0 / (2.0 * spec.obs_noise**2)
    log_norm = 0.5 * nets.d_x * math.log(2.0 * math.pi * spec.obs_noise**2)
    misfit = mismatch = None
    const = 0.0
    row_losses = []
    for times, states, batch_weights in pieces:
        ybar, spread = training._resampled_stats(spec, times)
        tau = training._trapezoid_weights(times)
        row_loss = np.zeros(batch_weights.shape[0])
        for i, (t, z) in enumerate(zip(times, states)):
            w = tau[i] * batch_weights
            term, rows = unfused_misfit(z, ybar[i], w * inv_two_var)
            misfit = term if misfit is None else misfit + term
            row_loss += (tau[i] * inv_two_var) * rows.value
            if spec.kl_weight != 0.0:
                f_prior = nets.drift_prior(leaves, z, t)
                f_post, g = training._posterior_fields(nets, leaves, evaluated, z, t)
                term, rows = unfused_mismatch(f_prior, f_post, g, 0.5 * w)
                mismatch = term if mismatch is None else mismatch + term
                row_loss += (0.5 * tau[i] * spec.kl_weight) * rows.value
        row_losses.append(row_loss)
        const += float(batch_weights.sum()) * float(np.dot(tau, log_norm + spread * inv_two_var))
    return misfit, mismatch, const, row_losses


def recorded_tape(monkeypatch) -> list:
    """Collect the node order of every ``tape.backward`` call from here on."""
    orders = []
    backward = tape.backward

    def recording(root):
        orders.append(backward(root))
        return orders[-1]

    monkeypatch.setattr(tape, "backward", recording)
    return orders


def count_network_calls(monkeypatch) -> Counter:
    """Count calls of the three ``NetworkFields`` evaluators from here on."""
    counts = Counter()
    for name in ("drift_prior", "drift_posterior", "diffusion_diag"):

        def counted(self, *args, _name=name, _original=getattr(NetworkFields, name)):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(NetworkFields, name, counted)
    return counts


class TestVariationalLoss:
    def test_zero_mismatch_kills_kl(self):
        _, spec, _, _, _, nets, theta = small_setup()
        # copy the posterior parameters into the prior: identical drifts
        for part in ("hidden.w", "hidden.b", "out.w", "out.b"):
            theta[nets.layout[f"prior.{part}"][0]] = theta[nets.layout[f"posterior.{part}"][0]]
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
        nets = ZeroDiffusionFields(1, width=4)
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

    def test_networks_of_another_dimension_raise(self):
        # 2-d networks on a 1-d table and 1-d data gave a loss, no error
        config, spec, formula, partition, table, _, _ = small_setup()
        nets = NetworkFields(2, width=4)
        theta = nets.init_params(0)
        with pytest.raises(DimensionMismatch, match="formula dim 1 != driving dim 2"):
            loss_and_gradient_cubature(nets, theta, table, formula, partition, spec)
        with pytest.raises(DimensionMismatch, match="data dim 1 != state dim 2"):
            loss_and_gradient_mc(nets, theta, 4, 24, 11, spec)

    def test_data_of_another_dimension_raises(self):
        config, _, formula, partition, table, nets, theta = small_setup(d_x=2, k=2)
        spec = make_training_data(TrainConfig(d_x=1))
        with pytest.raises(DimensionMismatch, match="data dim 1 != state dim 2"):
            loss_and_gradient_cubature(nets, theta, table, formula, partition, spec)

    def test_empty_table_zero_gradient(self):
        config, spec, formula, partition, table, nets, theta = small_setup()
        empty = WeightTable(
            k=table.k,
            levels=tuple(
                Level(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
                for _ in table.levels
            ),
            survivor_counts=(0,) * table.k,
            radii=table.radii,
            moment_defects=table.moment_defects,
            seconds=0.0,
            manifest=table.manifest,
        )
        rep = loss_and_gradient_cubature(nets, theta, empty, formula, partition, spec)
        assert rep.loss == 0.0
        assert np.all(rep.gradient == 0.0)
        assert rep.n_paths == 0

    def test_gradient_affine_in_table_weights(self):
        # level 1 is weighted by the formula, every later level by the table,
        # so L(2T) - 2 L(T) + L(0 T) vanishes for the loss and the gradient
        config, spec, formula, partition, table, nets, theta = small_setup()
        r1, r2, r0 = (
            loss_and_gradient_cubature(
                nets, theta, scaled_table(table, c), formula, partition, spec
            )
            for c in (1.0, 2.0, 0.0)
        )
        assert r2.loss - 2.0 * r1.loss + r0.loss == pytest.approx(0.0, abs=1e-12 * abs(r1.loss))
        second = r2.gradient - 2.0 * r1.gradient + r0.gradient
        assert np.all(np.abs(second) <= 1e-9 * np.abs(r1.gradient) + 1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_diffusion_raises_before_dividing(self):
        config, spec, formula, partition, table, _, theta = small_setup()
        nets = ZeroDiffusionFields(1, width=4)
        assert spec.kl_weight > 0
        with pytest.raises(SingularDiffusion, match="at t=0"):
            loss_and_gradient_cubature(nets, theta, table, formula, partition, spec)
        with pytest.raises(SingularDiffusion, match="at t=0"):
            loss_and_gradient_mc(nets, theta, 4, 24, 11, spec)

    def test_table_for_other_gamma_rejected(self):
        # the k=3 table is built at gamma 0.6; a gamma-1.0 partition moves the
        # knots the leaves are scaled onto
        config, spec, formula, partition, table, nets, theta = small_setup()
        assert table.manifest["gamma"] == 0.6
        other = make_partition(partition.horizon, 3, 1.0)
        with pytest.raises(ManifestMismatch, match="gamma"):
            loss_and_gradient_cubature(nets, theta, table, formula, other, spec)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_mc_path_count_below_one_rejected(self, n_paths):
        config, spec, _, _, _, nets, theta = small_setup()
        with pytest.raises(InvalidParameter, match=f"n_paths must be >= 1, got {n_paths}$"):
            loss_and_gradient_mc(nets, theta, n_paths, 8, 11, spec)

    @pytest.mark.parametrize("grid", [0, -1])
    def test_non_positive_mc_grid_rejected(self, grid):
        config, spec, _, _, _, nets, theta = small_setup()
        with pytest.raises(InvalidParameter, match=f"grid size must be >= 1, got {grid}$"):
            loss_and_gradient_mc(nets, theta, 4, grid, 11, spec)

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_non_positive_mc_horizon_rejected(self, T):
        config, spec, _, _, _, nets, theta = small_setup()
        with pytest.raises(InvalidParameter, match=f"horizon T must be positive, got {T}"):
            loss_and_gradient_mc(nets, theta, 4, 8, 11, spec, T=T)

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
        nets = ZeroDiffusionFields(1, width=4)
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


class TestFusedSharedTape:
    """One fused node per network call and one evaluation per state, against
    the unfused tape that evaluates every network afresh in the loss graph."""

    CONFIGS = {
        "small": TrainConfig(d_x=1, k=3, width=4),
        "train_d8": TrainConfig(d_x=8, k=2, basis_degree=1, width=8),
    }

    @staticmethod
    def assert_same(rep, ref):
        assert rep.loss == ref.loss
        err = np.linalg.norm(rep.gradient - ref.gradient)
        assert err <= 1e-13 * np.linalg.norm(ref.gradient)

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_cubature_matches_reference_tape(self, name):
        config = self.CONFIGS[name]
        spec = make_training_data(config)
        formula, partition, table = build_tree(config)
        nets = NetworkFields(config.d_x, width=config.width)
        theta = nets.init_params(config.seed)
        rep = loss_and_gradient_cubature(nets, theta, table, formula, partition, spec)
        ref = reference_cubature(
            UnfusedFields(config.d_x, width=config.width),
            theta, table, formula, partition, spec, config.steps_per_segment,
        )
        self.assert_same(rep, ref)

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_mc_matches_reference_tape(self, name):
        config = self.CONFIGS[name]
        spec = make_training_data(config)
        nets = NetworkFields(config.d_x, width=config.width)
        theta = nets.init_params(config.seed)
        rep = loss_and_gradient_mc(nets, theta, 16, config.mc_grid, 3, spec)
        ref = reference_mc(
            UnfusedFields(config.d_x, width=config.width), theta, 16, config.mc_grid, 3, spec
        )
        self.assert_same(rep, ref)

    def test_mc_evaluates_each_network_once_per_state(self, monkeypatch):
        config, spec, _, _, _, nets, theta = small_setup()
        counts = count_network_calls(monkeypatch)
        grid = 24
        loss_and_gradient_mc(nets, theta, 4, grid, 11, spec)
        # the Euler step's evaluations at states 0..grid-1 serve the loss graph
        assert counts == {"drift_prior": grid + 1, "drift_posterior": grid + 1,
                          "diffusion_diag": grid + 1}

    def test_cubature_evaluates_each_network_once_per_state(self, monkeypatch):
        config, spec, formula, partition, table, nets, theta = small_setup()
        counts = count_network_calls(monkeypatch)
        loss_and_gradient_cubature(
            nets, theta, table, formula, partition, spec, steps_per_segment=4
        )
        seg_times, _ = interval_slopes(formula, partition)
        n_steps = 4 * (seg_times.shape[0] - 1)
        k = partition.k
        # RK4's first stage at every step start serves the loss graph there;
        # each level's last state is evaluated afresh
        assert counts == {"drift_prior": n_steps + k, "drift_posterior": 4 * n_steps + k,
                          "diffusion_diag": 4 * n_steps + k}

    def test_report_carries_loss_terms_and_gradient_norm(self):
        config, spec, formula, partition, table, nets, theta = small_setup()
        for rep in (
            loss_and_gradient_cubature(nets, theta, table, formula, partition, spec),
            loss_and_gradient_mc(nets, theta, 4, 24, 11, spec),
        ):
            assert rep.mismatch > 0.0
            assert rep.loss == pytest.approx(
                -rep.reconstruction + spec.kl_weight * rep.mismatch, rel=1e-13
            )
            assert rep.grad_norm == np.linalg.norm(rep.gradient)


class TestFusedLoss:
    """One fused tape node per state and loss term, against the unfused
    chains it replaced."""

    @staticmethod
    def both_arms(config):
        spec = make_training_data(config)
        formula, partition, table = build_tree(config)
        nets = NetworkFields(config.d_x, width=config.width)
        theta = nets.init_params(config.seed)
        return (
            loss_and_gradient_cubature(nets, theta, table, formula, partition, spec,
                                       steps_per_segment=4),
            loss_and_gradient_mc(nets, theta, 6, 24, 11, spec),
        )

    @pytest.mark.parametrize("kl_weight", [1.0, 0.0], ids=["kl", "kl_off"])
    def test_arms_bitwise_unfused_loss_graph(self, kl_weight, monkeypatch):
        config = TrainConfig(d_x=2, k=2, width=4, kl_weight=kl_weight)
        fused = self.both_arms(config)
        monkeypatch.setattr(training, "_loss_graph", unfused_loss_graph)
        unfused = self.both_arms(config)
        for rep, ref in zip(fused, unfused):
            assert (rep.loss, rep.reconstruction, rep.mismatch, rep.grad_norm) == (
                ref.loss, ref.reconstruction, ref.mismatch, ref.grad_norm
            )
            assert np.array_equal(rep.gradient, ref.gradient)
        assert fused[1].stderr == unfused[1].stderr

    def test_mc_tape_size_from_shapes(self, monkeypatch):
        # per Euler step: posterior and diffusion calls, two scalings and two
        # additions; per state: the prior call, the two loss nodes and two
        # additions into their sums.  The loss keeps no (B, d) array and no
        # per-state weights: the batch weights are kept once.
        config, spec, _, _, _, nets, theta = small_setup(d_x=2, width=3)
        B, d, W = 5, nets.d_x, nets.width
        orders = recorded_tape(monkeypatch)
        for grid in (8, 9):
            rep = loss_and_gradient_mc(nets, theta, B, grid, 11, spec)
            assert len(orders[-1]) == 11 * grid + 21
            step = 8 * B * d + 2 * B * W  # 6 values, the noise, the diffusion sigmoid, 2 hidden
            state = B * d + B * W + (1 + d) + 1  # prior call; misfit and its data mean; mismatch
            # leaves, z0, the last state's posterior and diffusion calls, the
            # batch weights, the root
            rest = nets.n_params + B * d + 2 * (B * d + B * W) + B * d + B + 2
            floats = grid * step + (grid + 1) * state + 2 * grid + rest
            assert rep.tape_bytes == tape.tape_bytes(orders[-1]) == 8 * floats


class TestLossStandardError:
    def test_mc_stderr_is_that_of_the_per_path_losses(self):
        config, spec, _, _, _, nets, theta = small_setup(d_x=2)
        n_paths, grid, seed = 7, 16, 5
        rep = loss_and_gradient_mc(nets, theta, n_paths, grid, seed, spec)
        # numpy reference: the same Euler-Maruyama paths, then each path's
        # trapezoid misfit and mismatch
        leaves = nets.wrap(theta)
        times, h = np.linspace(0.0, 1.0, grid + 1), 1.0 / grid
        noise = np.random.default_rng(seed).standard_normal((grid, n_paths, 2)) * math.sqrt(h)
        ybar, _ = training._resampled_stats(spec, times)
        tau = training._trapezoid_weights(times)
        z = np.tile(theta[nets.layout["z0"][0]], (n_paths, 1))
        per_path = np.zeros(n_paths)
        for i, t in enumerate(times):
            f_prior, f_post, g = (
                f(leaves, tape.const(z), t).value
                for f in (nets.drift_prior, nets.drift_posterior, nets.diffusion_diag)
            )
            misfit = np.sum((z - ybar[i]) ** 2, axis=1) / (2.0 * spec.obs_noise**2)
            mismatch = 0.5 * np.sum(((f_prior - f_post) / g) ** 2, axis=1)
            per_path += tau[i] * (misfit + spec.kl_weight * mismatch)
            if i < grid:
                z = z + f_post * h + g * noise[i]
        want = np.std(per_path, ddof=1) / math.sqrt(n_paths)
        assert rep.stderr == pytest.approx(want, rel=1e-12)

    def test_no_stderr_for_one_path_or_cubature(self):
        config, spec, formula, partition, table, nets, theta = small_setup()
        assert loss_and_gradient_mc(nets, theta, 1, 16, 5, spec).stderr is None
        assert loss_and_gradient_mc(nets, theta, 2, 16, 5, spec).stderr > 0.0
        rep = loss_and_gradient_cubature(nets, theta, table, formula, partition, spec)
        assert rep.stderr is None


class TestLevelWalk:
    """The cubature arm walks the estimator's levels; thresholds were fixed
    before either test was run."""

    UNREDUCED = {
        "small": TrainConfig(d_x=1, k=3, width=4),
        "train_d8": TrainConfig(d_x=8, k=2, basis_degree=1, width=8),
        "c8_1d": TrainConfig(d_x=1, k=5, epochs=200, lr=1e-2),
    }

    @pytest.mark.parametrize("name", list(UNREDUCED))
    def test_equals_whole_leaf_route_on_unreduced_tables(self, name):
        # without reduction each level's weights sum its leaves' weights, so
        # both routes weight the same paths and differ by rounding only
        config = self.UNREDUCED[name]
        spec = make_training_data(config)
        formula, partition, table = build_tree(config)
        assert table.n_leaves == formula.q**config.k
        nets = NetworkFields(config.d_x, width=config.width)
        theta = nets.init_params(config.seed)
        rep = loss_and_gradient_cubature(nets, theta, table, formula, partition, spec)
        ref = whole_leaf_cubature(
            nets, theta, table, formula, partition, spec, config.steps_per_segment
        )
        loss_err, grad_err = relative_errors(rep, ref)
        assert loss_err <= 1e-13
        assert grad_err <= 1e-13

    @pytest.mark.parametrize("seed", [7, 8])
    def test_recombined_k10_close_to_raw_tree(self, seed):
        # recombination keeps moments at the knots only: weighting whole
        # leaves by the k=10 table misses the raw tree's gradient by 2%,
        # weighting each interval by the level before it does not
        config = TrainConfig(k=10)
        spec = make_training_data(config)
        formula, partition, table = build_tree(config)
        raw = preprocess(
            formula, partition, TestBasis(config.d_x, config.basis_degree),
            p_star=config.p_star, radius_mode="singleton",
        )
        assert table.n_leaves < raw.n_leaves == formula.q**config.k
        nets = NetworkFields(config.d_x, width=config.width)
        theta = nets.init_params(seed)
        ref = loss_and_gradient_cubature(nets, theta, raw, formula, partition, spec)
        rep = loss_and_gradient_cubature(nets, theta, table, formula, partition, spec)
        loss_err, grad_err = relative_errors(rep, ref)
        assert grad_err <= 1e-2
        assert loss_err <= 5e-3
        whole = whole_leaf_cubature(
            nets, theta, table, formula, partition, spec, config.steps_per_segment
        )
        assert relative_errors(whole, ref)[1] > 1e-2


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
        nets = ZeroDiffusionFields(1, width=4)
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
        assert all(r.peak_bytes > 0 for r in log.rows if r.arm == "cubature")

    def test_data_of_another_dimension_raises(self):
        spec = make_training_data(TrainConfig(d_x=1))
        with pytest.raises(DimensionMismatch, match="data dim 1 != config d_x 2"):
            train(TrainConfig(d_x=2, epochs=1), spec)

    def test_divergence_raises(self):
        config = TrainConfig(d_x=1, k=3, n_data=2, mc_grid=20, lr=50.0)
        with pytest.raises(DivergenceDetected, match=r"cubature loss \S+ at epoch 2"):
            train(config)

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
        assert lines[0] == "epoch,arm,loss,seconds,peak_bytes,reconstruction,mismatch,grad_norm"
        assert len(lines) == 1 + 2 * config.epochs
