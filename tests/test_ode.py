"""Stratonovich conversion, controlled ODE solves, and the MC baseline."""

import math

import numpy as np
import pytest

from sdecub import (
    DimensionMismatch,
    InvalidParameter,
    NonFiniteState,
    PiecewisePath,
    degree3_formula,
    ito_to_stratonovich,
    make_field,
    make_partition,
)
from sdecub import tape
from sdecub.estimator import PathFunctional, cubature_estimate
from sdecub.fields import brownian_field, drift_only_field, scaled_diffusion_field
from sdecub.ode import (
    forward_difference_jacobian,
    rk4_steps,
    solve_controlled_ode_batch,
    solve_sde_mc_batch,
)
from conftest import leaf_path


def line_path(slope=1.0):
    return PiecewisePath([0.0, 1.0], [[0.0, 0.0], [1.0, slope]])


def zero_path():
    return PiecewisePath([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]])


def solve_path(fields, path, x0, steps_per_segment=32):
    """One path through the batched solver: (times, states (n, d_x+1))."""
    derivs = path.increments()[:, 1:] / np.diff(path.breakpoints)[:, None]
    times, states = solve_controlled_ode_batch(
        fields, path.breakpoints, derivs[None], x0, steps_per_segment
    )
    return times, states[0]


def mc_path(spec, T, grid, seed):
    """One seeded Euler-Maruyama path: (times, states (grid+1, d_x))."""
    times, paths = solve_sde_mc_batch(
        spec.mu, spec.sigma, spec.x0, T, grid, np.random.default_rng(seed), 1
    )
    return times, paths[0]


class TestItoToStratonovich:
    def test_constant_sigma_no_correction(self):
        spec = brownian_field(1.0)
        fields = spec.stratonovich()
        x = np.array([[0.3, 0.7]])
        drift = fields.drift(x)
        assert drift[0, 0] == 1.0  # time component
        assert drift[0, 1] == 0.0  # mu = 0, no correction

    def test_scaled_diffusion_correction(self):
        # sigma(x) = x, mu = 0: corrected drift is -x/2
        spec = scaled_diffusion_field(1.0)
        fields = spec.stratonovich()
        x = np.array([[0.0, 2.0]])
        assert fields.drift(x)[0, 1] == pytest.approx(-1.0)

    def test_correction_independent_of_mu(self):
        def mu_a(t, x):
            return np.zeros_like(x)

        def mu_b(t, x):
            return np.full_like(x, 0.7)

        def sig(t, x):
            return x[:, :, None]

        fa = ito_to_stratonovich(mu_a, sig, 1, 1)
        fb = ito_to_stratonovich(mu_b, sig, 1, 1)
        x = np.array([[0.2, 1.3]])
        assert fb.drift(x)[0, 1] - fa.drift(x)[0, 1] == pytest.approx(0.7, rel=1e-7)

    def test_forward_difference_matches_analytic(self):
        spec = scaled_diffusion_field(0.8)
        x = np.array([[1.7]])
        fd = forward_difference_jacobian(spec.sigma, np.zeros(1), x)
        exact = spec.sigma_jacobian(np.zeros(1), x)
        assert fd == pytest.approx(exact, abs=1e-6)

    def test_dimension_mismatch(self):
        def mu(t, x):
            return np.zeros((x.shape[0], 3))

        def sig(t, x):
            return np.zeros((x.shape[0], 1, 1))

        with pytest.raises(DimensionMismatch):
            ito_to_stratonovich(mu, sig, 1, 1)


class TestSolveControlledOde:
    def test_constant_fields(self):
        spec = brownian_field(1.0)
        fields = spec.stratonovich()
        _, states = solve_path(fields, line_path(0.8), np.zeros(2))
        # phi(t) = (t, 0.8 t) for constant unit diffusion
        assert states[-1, 0] == pytest.approx(1.0, abs=1e-12)
        assert states[-1, 1] == pytest.approx(0.8, abs=1e-12)

    def test_scalar_exponential(self):
        # dx = x domega with omega = t: x(1) = e
        def mu(t, x):
            return x

        def sig(t, x):
            return np.zeros((x.shape[0], 1, 1))

        fields = ito_to_stratonovich(mu, sig, 1, 1)
        x0 = np.array([0.0, 1.0])
        _, states = solve_path(fields, zero_path(), x0, steps_per_segment=100)
        assert states[-1, 1] == pytest.approx(math.e, rel=1e-8)

    def test_fourth_order_convergence(self):
        def mu(t, x):
            return x

        def sig(t, x):
            return np.zeros((x.shape[0], 1, 1))

        fields = ito_to_stratonovich(mu, sig, 1, 1)
        x0 = np.array([0.0, 1.0])
        errors = []
        steps = [8, 16, 32, 64]
        for n in steps:
            _, states = solve_path(fields, zero_path(), x0, steps_per_segment=n)
            errors.append(abs(states[-1, 1] - math.e))
        order = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert -order >= 3.8

    def test_stratonovich_zero_path_flow(self):
        # Ito sigma(x)=x, mu=0: along a zero path the corrected drift gives
        # exp(-t/2) * x0
        spec = scaled_diffusion_field(1.0)
        _, states = solve_path(
            spec.stratonovich(), zero_path(), np.array([0.0, 1.0]),
            steps_per_segment=64,
        )
        assert states[-1, 1] == pytest.approx(math.exp(-0.5), rel=1e-8)

    def test_time_component_exact(self):
        spec = scaled_diffusion_field(0.5)
        part = make_partition(1.0, 3, 0.6)
        cp = leaf_path(degree3_formula(1), part, (1, 2, 1))
        times, states = solve_path(spec.stratonovich(), cp, np.array([0.0, 1.0]))
        assert np.max(np.abs(states[:, 0] - times)) <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_state(self):
        def mu(t, x):
            return x * x * 1e4  # super-linear blow-up

        def sig(t, x):
            return np.zeros((x.shape[0], 1, 1))

        fields = ito_to_stratonovich(mu, sig, 1, 1)
        with pytest.raises(NonFiniteState):
            solve_path(
                fields, zero_path(), np.array([0.0, 10.0]), steps_per_segment=4
            )

    @pytest.mark.parametrize("steps", [0, -1])
    def test_non_positive_steps_per_segment_rejected(self, steps):
        fields = brownian_field(1.0).stratonovich()
        with pytest.raises(InvalidParameter):
            solve_path(fields, line_path(), np.zeros(2), steps_per_segment=steps)


class TestRk4Steps:
    def test_array_and_tape_states_agree_bitwise(self):
        # one right-hand side written with operators serves both state types
        def rhs(t, x, g):
            return g * x + (0.3 * t) * (x * x) + 0.1

        rng = np.random.default_rng(4)
        seg_times = np.array([0.0, 0.3, 0.55, 1.0])
        derivs = rng.normal(size=(5, 3, 2))
        x0 = rng.normal(size=(5, 2))
        plain = list(rk4_steps(rhs, seg_times, derivs, x0, 3))
        taped = list(rk4_steps(rhs, seg_times, derivs, tape.const(x0), 3))
        assert len(plain) == len(taped) == 9
        for (t_a, x_a), (t_b, x_b) in zip(plain, taped):
            assert isinstance(x_b, tape.Var)
            assert t_a == t_b
            assert np.array_equal(x_a, x_b.value)
        # each segment ends exactly on its knot
        assert [plain[i][0] for i in (2, 5, 8)] == seg_times[1:].tolist()


class TestDegree3Exactness:
    def test_second_moment_of_brownian(self):
        # two leaves +-1 at T=1: sum lambda f(phi(1)) = 1 = E[B_1^2]
        spec = brownian_field(1.0)
        sq = PathFunctional("terminal_sq", lambda t, v: v[:, -1, 1] ** 2)
        rep = cubature_estimate(
            sq, spec.stratonovich(), degree3_formula(1), make_partition(1.0, 1, 1.0),
            None, x0=spec.x0,
        )
        assert rep.value == pytest.approx(1.0, abs=1e-12)

    def test_second_moment_k2_tree(self):
        # four-leaf tree: the weighted terminal second moment is still exact
        spec = brownian_field(1.0)
        sq = PathFunctional("terminal_sq", lambda t, v: v[:, -1, 1] ** 2)
        rep = cubature_estimate(
            sq, spec.stratonovich(), degree3_formula(1), make_partition(1.0, 2, 1.0),
            None, x0=spec.x0,
        )
        assert rep.n_paths == 4
        assert rep.value == pytest.approx(1.0, abs=1e-12)

    def test_linear_functional_exact_for_linear_fields(self):
        # dX = -0.5 X dt + 0.3 dB: E X_T = e^{-0.5 T} x0, met to solver error
        spec = make_field("ou", rate=0.5, mean=0.0, sigma=0.3, x0=1.0)
        term = PathFunctional("terminal", lambda t, v: v[:, -1, 1])
        rep = cubature_estimate(
            term, spec.stratonovich(), degree3_formula(1), make_partition(1.0, 2, 1.0),
            None, x0=spec.x0, steps_per_segment=64,
        )
        assert rep.value == pytest.approx(math.exp(-0.5), abs=1e-10)


class TestSolveSdeMc:
    def test_zero_sigma_is_deterministic(self):
        spec = drift_only_field(rate=1.0, d=1, x0=1.0)
        _, p1 = mc_path(spec, 1.0, 256, seed=1)
        _, p2 = mc_path(spec, 1.0, 256, seed=2)
        assert np.array_equal(p1, p2)
        assert p1[-1, 0] == pytest.approx(math.exp(-1.0), abs=5e-3)

    def test_seeded_reproducibility(self):
        spec = brownian_field(1.0)
        _, p1 = mc_path(spec, 1.0, 128, seed=77)
        _, p2 = mc_path(spec, 1.0, 128, seed=77)
        assert np.array_equal(p1, p2)

    def test_sample_moments(self):
        spec = brownian_field(1.0)
        rng = np.random.default_rng(123)
        _, paths = solve_sde_mc_batch(spec.mu, spec.sigma, spec.x0, 1.0, 64, rng, 100000)
        terminal = paths[:, -1, 0]
        assert abs(terminal.mean()) <= 4.0 / math.sqrt(100000)
        assert (terminal**2).mean() == pytest.approx(1.0, abs=0.02)

    def test_trajectory_starts_at_x0(self):
        spec = brownian_field(1.0, x0=0.4)
        times, path = mc_path(spec, 1.0, 16, seed=5)
        assert path[0, 0] == 0.4
        assert times[0] == 0.0
