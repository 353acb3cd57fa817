"""Stratonovich conversion, controlled ODE solves, and the MC baseline."""

import itertools
import math
import re
import sys
import threading
import time

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
from sdecub import ode, tape
from sdecub.estimator import PathFunctional, cubature_estimate, mc_estimate
from sdecub.fields import brownian_field, drift_only_field, ou_field, scaled_diffusion_field
from sdecub.ode import (
    em_grid,
    em_steps,
    gaussian_increments,
    rk4_steps,
    solve_controlled_ode_batch,
    solve_sde_mc_batch,
)
from conftest import (
    leaf_path,
    reference_em,
    reference_stage_solve,
    solve_trajectory,
    terminal_functional,
)


def line_path(slope=1.0):
    return PiecewisePath([0.0, 1.0], [[0.0, 0.0], [1.0, slope]])


def zero_path():
    return PiecewisePath([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]])


def zero_jacobian(t, x):
    return np.zeros((x.shape[0], 1, 1, 1))


def solve_path(fields, path, x0, steps_per_segment=32):
    """One path through the batched solver: (times, path (n, d_x+1)) as (t, x)."""
    derivs = path.increments()[:, 1:] / np.diff(path.breakpoints)[:, None]
    times, states = solve_trajectory(
        fields, path.breakpoints, derivs[None], x0, steps_per_segment
    )
    return times, states[0]


def mc_paths(mu, sigma, x0, T, grid, rng, n_paths):
    """The streamed Euler-Maruyama states stacked: (times, states (B, grid+1, d_x))."""
    times, states = solve_sde_mc_batch(mu, sigma, x0, T, grid, rng, n_paths)
    return times, np.stack(list(states), axis=1)


def mc_path(spec, T, grid, seed):
    """One seeded Euler-Maruyama path: (times, states (grid+1, d_x))."""
    times, paths = mc_paths(
        spec.mu, spec.sigma, spec.x0, T, grid, np.random.default_rng(seed), 1
    )
    return times, paths[0]


class TestItoToStratonovich:
    def test_constant_sigma_no_correction(self):
        spec = brownian_field(1.0)
        fields = spec.stratonovich()
        t, x = np.array([0.3]), np.array([[0.7]])
        drift = fields.drift(t, x, fields.diffusion(t, x))
        assert drift.shape == (1, 1)
        assert drift[0, 0] == 0.0  # mu = 0, no correction

    def test_scaled_diffusion_correction(self):
        # sigma(x) = x, mu = 0: corrected drift is -x/2
        spec = scaled_diffusion_field(1.0)
        fields = spec.stratonovich()
        t, x = np.zeros(1), np.array([[2.0]])
        assert fields.drift(t, x, fields.diffusion(t, x))[0, 0] == pytest.approx(-1.0)

    def test_correction_independent_of_mu(self):
        def mu_a(t, x):
            return np.zeros_like(x)

        def mu_b(t, x):
            return np.full_like(x, 0.7)

        def sig(t, x):
            return x[:, :, None]

        def jac(t, x):
            return np.ones((x.shape[0], 1, 1, 1))

        fa = ito_to_stratonovich(mu_a, sig, 1, 1, jac)
        fb = ito_to_stratonovich(mu_b, sig, 1, 1, jac)
        t, x = np.array([0.2]), np.array([[1.3]])
        s = fa.diffusion(t, x)
        assert fb.drift(t, x, s)[0, 0] - fa.drift(t, x, s)[0, 0] == pytest.approx(0.7, rel=1e-7)

    def test_dimension_mismatch(self):
        def zeros(*shape):
            return lambda t, x: np.zeros((x.shape[0], *shape))

        # (mu, sigma, d_x, d_b, sigma_jacobian) and the shape the error names
        cases = [
            ((zeros(3), zeros(1, 1), 1, 1, zeros(1, 1, 1)), "mu returned shape (1, 3)"),
            # a (B, 1, 1, 1) Jacobian on a 2-d field broadcast inside the
            # correction and gave a wrong estimate with no error
            (
                (zeros(2), zeros(2, 2), 2, 2, zeros(1, 1, 1)),
                "sigma_jacobian returned shape (1, 1, 1, 1), expected (1, 2, 2, 2)",
            ),
            # a (B, d_x, d_b) Jacobian died inside numpy's einsum
            (
                (zeros(2), zeros(2, 2), 2, 2, zeros(2, 2)),
                "sigma_jacobian returned shape (1, 2, 2), expected (1, 2, 2, 2)",
            ),
        ]
        for args, message in cases:
            with pytest.raises(DimensionMismatch, match=re.escape(message)):
                ito_to_stratonovich(*args)


class TestSolveControlledOde:
    def test_constant_fields(self):
        spec = brownian_field(1.0)
        fields = spec.stratonovich()
        _, states = solve_path(fields, line_path(0.8), np.zeros(1))
        # phi(t) = (t, 0.8 t) for constant unit diffusion
        assert states[-1, 0] == pytest.approx(1.0, abs=1e-12)
        assert states[-1, 1] == pytest.approx(0.8, abs=1e-12)

    def test_scalar_exponential(self):
        # dx = x domega with omega = t: x(1) = e
        def mu(t, x):
            return x

        def sig(t, x):
            return np.zeros((x.shape[0], 1, 1))

        fields = ito_to_stratonovich(mu, sig, 1, 1, zero_jacobian)
        x0 = np.array([1.0])
        _, states = solve_path(fields, zero_path(), x0, steps_per_segment=100)
        assert states[-1, 1] == pytest.approx(math.e, rel=1e-8)

    def test_fourth_order_convergence(self):
        def mu(t, x):
            return x

        def sig(t, x):
            return np.zeros((x.shape[0], 1, 1))

        fields = ito_to_stratonovich(mu, sig, 1, 1, zero_jacobian)
        x0 = np.array([1.0])
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
            spec.stratonovich(), zero_path(), np.array([1.0]),
            steps_per_segment=64,
        )
        assert states[-1, 1] == pytest.approx(math.exp(-0.5), rel=1e-8)

    def test_time_component_exact(self):
        spec = scaled_diffusion_field(0.5)
        part = make_partition(1.0, 3, 0.6)
        cp = leaf_path(degree3_formula(1), part, (1, 2, 1))
        times, states = solve_path(spec.stratonovich(), cp, np.array([1.0]))
        assert np.array_equal(states[:, 0], times)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_state(self):
        def mu(t, x):
            return x * x * 1e4  # super-linear blow-up

        def sig(t, x):
            return np.zeros((x.shape[0], 1, 1))

        fields = ito_to_stratonovich(mu, sig, 1, 1, zero_jacobian)
        with pytest.raises(NonFiniteState):
            solve_path(fields, zero_path(), np.array([10.0]), steps_per_segment=4)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_non_positive_steps_per_segment_rejected(self, steps):
        fields = brownian_field(1.0).stratonovich()
        with pytest.raises(InvalidParameter):
            solve_path(fields, line_path(), np.zeros(1), steps_per_segment=steps)

    def test_fields_read_the_stage_time(self):
        # dx = cos(2 pi t) dt + t domega along omega(t) = c t on [0, T]:
        # x(T) = x0 + sin(2 pi T) / (2 pi) + c T^2 / 2.  RK4 integrates the
        # right-hand side as Simpson's rule does, so the error is fourth order.
        def mu(t, x):
            assert t.shape == x.shape[:1]
            return np.cos(2.0 * math.pi * t)[:, None] + 0.0 * x

        def sig(t, x):
            assert t.shape == x.shape[:1]
            return t[:, None, None] + 0.0 * x[:, :, None]

        fields = ito_to_stratonovich(mu, sig, 1, 1, zero_jacobian)
        T, slopes, x0 = 0.8, np.array([-1.0, 0.5, 2.0]), 0.3
        exact = x0 + math.sin(2.0 * math.pi * T) / (2.0 * math.pi) + slopes * T * T / 2.0
        seg_times = np.array([0.0, T])
        errors = []
        for steps in (4, 8, 16, 32):
            times, states = solve_trajectory(
                fields, seg_times, slopes[:, None, None], np.array([x0]), steps
            )
            assert times[-1] == T
            errors.append(np.max(np.abs(states[:, -1, 1] - exact)))
        assert errors[-1] < 1e-6
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders > 3.8)


STAGE_FIELDS = {
    "scaled_diffusion": scaled_diffusion_field(0.6),
    "brownian": brownian_field(0.8, x0=0.2),
    "ou_2d": ou_field(2.0, -0.5, 0.8, d=2, x0=0.3),
}


@pytest.mark.parametrize("spec", list(STAGE_FIELDS.values()), ids=list(STAGE_FIELDS))
class TestOneCallStage:
    def test_diffusion_is_sigma_body(self, spec):
        fields = spec.stratonovich()
        rng = np.random.default_rng(2)
        t, x = rng.uniform(size=6), rng.normal(size=(6, spec.d_x))
        assert fields.diffusion is spec.sigma
        s = fields.diffusion(t, x)
        assert s.shape == (6, spec.d_x, spec.d_b)
        assert fields.drift(t, x, s).shape == (6, spec.d_x)

    def test_states_equal_two_call_reference(self, spec):
        rng = np.random.default_rng(9)
        seg_times = np.array([0.0, 0.3, 0.55, 1.0])
        derivs = rng.normal(size=(7, 3, spec.d_b))
        times, states = solve_trajectory(spec.stratonovich(), seg_times, derivs, spec.x0, 3)
        ref = reference_stage_solve(spec, seg_times, derivs, spec.x0, 3)
        assert states.shape == (7, 10, spec.d_x + 1)
        assert np.array_equal(states[:, :, 1:], ref)
        assert np.array_equal(states[:, :, 0], np.broadcast_to(times, (7, 10)))


def test_each_coefficient_evaluated_once_per_stage():
    spec = scaled_diffusion_field(0.9)
    calls = {"mu": 0, "sigma": 0, "sigma_jacobian": 0}

    def counted(name):
        def coefficient(t, x):
            calls[name] += 1
            return getattr(spec, name)(t, x)

        return coefficient

    fields = ito_to_stratonovich(
        counted("mu"), counted("sigma"), 1, 1, counted("sigma_jacobian")
    )
    calls.update(dict.fromkeys(calls, 0))  # drop the shape probes
    seg_times = np.array([0.0, 1.0])
    solve_controlled_ode_batch(fields, seg_times, np.ones((3, 1, 1)), np.ones(1), 2, list)
    assert calls == dict.fromkeys(calls, 2 * 4)  # two RK4 steps of four stages


CONSTANT_COEFFICIENTS = {
    "brownian": (brownian_field(0.7), ("sigma", "sigma_jacobian")),
    "ou_3d": (ou_field(sigma=0.4, d=3), ("sigma", "sigma_jacobian")),
    "drift_only": (drift_only_field(d=2), ("sigma", "sigma_jacobian")),
    "scaled_diffusion": (scaled_diffusion_field(0.5), ("sigma_jacobian",)),
}


@pytest.mark.parametrize("case", list(CONSTANT_COEFFICIENTS))
def test_constant_coefficients_are_one_read_only_view(case):
    spec, names = CONSTANT_COEFFICIENTS[case]
    x = np.linspace(-1.0, 1.0, 5 * spec.d_x).reshape(5, spec.d_x)
    t = np.zeros(5)
    for name in names:
        coefficient = getattr(spec, name)
        a, b = coefficient(t, x), coefficient(t[:2], x[:2])
        assert a.shape[0] == 5 and b.shape[0] == 2
        assert not a.flags.writeable
        assert np.shares_memory(a, b)
    if case == "ou_3d":
        assert np.array_equal(spec.sigma(t, x), np.broadcast_to(0.4 * np.eye(3), (5, 3, 3)))


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


class TestEmSteps:
    def test_array_and_tape_states_agree_bitwise(self):
        # one diagonal-noise field written with operators serves both state types
        calls = []

        def coefficients(t, x, dw):
            calls.append(t)
            return x * (-0.7) + 0.2 * t, (x * x * 0.1 + 0.3) * dw

        rng = np.random.default_rng(9)
        times, h = em_grid(0.8, 6)
        x0 = rng.normal(size=(5, 2))
        noise = rng.normal(size=(6, 5, 2)) * math.sqrt(h)
        plain = list(em_steps(coefficients, times, h, x0, noise))
        assert calls == times[:-1].tolist()
        taped = list(em_steps(coefficients, times, h, tape.const(x0), noise))
        assert calls == 2 * times[:-1].tolist()
        assert len(plain) == len(taped) == 6
        for (t_a, x_a), (t_b, x_b), t in zip(plain, taped, times[1:]):
            assert isinstance(x_b, tape.Var)
            assert t_a == t_b == t
            assert np.array_equal(x_a, x_b.value)


class TestDegree3Exactness:
    def test_second_moment_of_brownian(self):
        # two leaves +-1 at T=1: sum lambda f(phi(1)) = 1 = E[B_1^2]
        spec = brownian_field(1.0)
        sq = PathFunctional("terminal_sq", terminal=lambda x: x[:, 1] ** 2)
        rep = cubature_estimate(
            sq, spec.stratonovich(), degree3_formula(1), make_partition(1.0, 1, 1.0),
            None, x0=spec.x0,
        )
        assert rep.value == pytest.approx(1.0, abs=1e-12)

    def test_second_moment_k2_tree(self):
        # four-leaf tree: the weighted terminal second moment is still exact
        spec = brownian_field(1.0)
        sq = PathFunctional("terminal_sq", terminal=lambda x: x[:, 1] ** 2)
        rep = cubature_estimate(
            sq, spec.stratonovich(), degree3_formula(1), make_partition(1.0, 2, 1.0),
            None, x0=spec.x0,
        )
        assert rep.n_paths == 4
        assert rep.value == pytest.approx(1.0, abs=1e-12)

    def test_linear_functional_exact_for_linear_fields(self):
        # dX = -0.5 X dt + 0.3 dB: E X_T = e^{-0.5 T} x0, met to solver error
        spec = make_field("ou", rate=0.5, mean=0.0, sigma=0.3, x0=1.0)
        term = terminal_functional()
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
        _, states = solve_sde_mc_batch(spec.mu, spec.sigma, spec.x0, 1.0, 64, rng, 100000)
        for end in states:
            pass
        terminal = end[:, 0]
        assert abs(terminal.mean()) <= 4.0 / math.sqrt(100000)
        assert (terminal**2).mean() == pytest.approx(1.0, abs=0.02)

    def test_trajectory_starts_at_x0(self):
        spec = brownian_field(1.0, x0=0.4)
        times, path = mc_path(spec, 1.0, 16, seed=5)
        assert path[0, 0] == 0.4
        assert times[0] == 0.0

    @pytest.mark.parametrize(
        "spec",
        [scaled_diffusion_field(0.6), ou_field(2.0, -0.5, 0.8, d=2, x0=0.3)],
        ids=["scaled_diffusion", "ou_2d"],
    )
    def test_paths_equal_path_major_reference(self, spec):
        times, paths = mc_paths(
            spec.mu, spec.sigma, spec.x0, 1.0, 48, np.random.default_rng(31), 257
        )
        ref_times, ref = reference_em(
            spec.mu, spec.sigma, spec.x0, 1.0, 48, np.random.default_rng(31), 257
        )
        assert np.array_equal(times, ref_times)
        assert paths.shape == ref.shape
        assert np.array_equal(paths, ref)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_state_names_first_step_and_path_count(self):
        # dx = x^3 dt + dB from 0: paths that stray far blow up, at different steps
        def mu(t, x):
            return x**3

        def sig(t, x):
            return np.ones((x.shape[0], 1, 1))

        x0, grid, n_paths = np.zeros(1), 32, 257
        with np.errstate(over="ignore"):
            times, ref = reference_em(mu, sig, x0, 1.0, grid, np.random.default_rng(3), n_paths)
        bad = ~np.all(np.isfinite(ref), axis=2)  # (path, grid point)
        point = int(np.argmax(bad.any(axis=0)))
        assert point > 0 and bad[:, -1].any()
        _, states = solve_sde_mc_batch(mu, sig, x0, 1.0, grid, np.random.default_rng(3), n_paths)
        seen = []
        with pytest.raises(NonFiniteState) as info:
            for x in states:
                seen.append(x)
        assert len(seen) == point  # the states up to the last finite one
        assert np.array_equal(np.stack(seen, axis=1), ref[:, :point])
        assert info.value.segment == point - 1
        assert str(info.value) == (
            f"Euler-Maruyama state left the finite range after step {point - 1} of {grid} "
            f"(t = {times[point]:.6g}) in {bad[:, point].sum()} of {n_paths} paths"
        )


def in_bounded_thread(work, timeout=60.0):
    """Run ``work()`` on a daemon thread; fail rather than hang past ``timeout``."""
    result = []
    runner = threading.Thread(target=lambda: result.append(work()), daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"work still running after {timeout} s"
    assert result, "work raised; see the thread's traceback above"
    return result[0]


class TestGaussianIncrements:
    @pytest.mark.parametrize(
        "steps, block_steps", [(7, 3), (9, 3), (2, 5), (1, 1)],
        ids=["remainder", "whole_blocks", "fewer_steps_than_a_block", "one_step"],
    )
    def test_equals_per_step_draws(self, monkeypatch, steps, block_steps):
        shape = (5, 2)
        monkeypatch.setattr(ode, "NOISE_BLOCK_BYTES", 8 * 10 * block_steps)
        rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
        got = [dw.copy() for dw in gaussian_increments(rng, steps, shape, 0.3)]
        want = [ref_rng.standard_normal(shape) * 0.3 for _ in range(steps)]
        assert len(got) == steps
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_no_steps_draws_nothing(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert list(gaussian_increments(rng, 0, (4, 1), 1.0)) == []
        assert rng.bit_generator.state == state


class TestNoiseWorker:
    """The increments are drawn one block ahead on a second thread; the
    trajectory and the generator's state are those of per-step draws."""

    @pytest.mark.parametrize("d_b", [1, 2])
    @pytest.mark.parametrize("block_steps", [1, 5], ids=["one_step_blocks", "remainder_block"])
    def test_bitwise_under_fast_thread_switching(self, monkeypatch, d_b, block_steps):
        spec = scaled_diffusion_field(0.6) if d_b == 1 else ou_field(2.0, -0.5, 0.8, d=2, x0=0.3)
        grid, n_paths = 48, 257  # 48 steps: 9 blocks of 5 and a remainder of 3
        monkeypatch.setattr(ode, "NOISE_BLOCK_BYTES", 8 * n_paths * d_b * block_steps)
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, paths = in_bounded_thread(
                lambda: mc_paths(spec.mu, spec.sigma, spec.x0, 1.0, grid, rng, n_paths)
            )
        finally:
            sys.setswitchinterval(interval)
        _, ref = reference_em(spec.mu, spec.sigma, spec.x0, 1.0, grid, ref_rng, n_paths)
        assert np.array_equal(paths, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @staticmethod
    def threads_after_joins(before):
        """The thread count once any worker past ``before`` is gone, or 10 s."""
        deadline = time.monotonic() + 10.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        return threading.active_count()

    @pytest.mark.parametrize("fails", ["mu", "sigma"])
    def test_worker_joined_when_a_field_raises(self, monkeypatch, fails):
        monkeypatch.setattr(ode, "NOISE_BLOCK_BYTES", 8 * 64 * 2)  # blocks of two steps
        spec = brownian_field(1.0)
        calls = []

        def failing(field):
            def call(t, x):
                calls.append(t)
                if len(calls) == 6:  # step 5, or step 4 past sigma's shape probe
                    raise RuntimeError(f"{fails} failed")
                return field(t, x)

            return call

        mu = failing(spec.mu) if fails == "mu" else spec.mu
        sig = failing(spec.sigma) if fails == "sigma" else spec.sigma
        before = threading.active_count()
        _, states = solve_sde_mc_batch(mu, sig, spec.x0, 1.0, 32, np.random.default_rng(2), 64)
        with pytest.raises(RuntimeError, match=f"{fails} failed") as info:
            for _ in states:
                pass
        assert self.threads_after_joins(before) == before
        assert info.traceback  # the traceback, and every frame it holds, is still alive

    def test_worker_joined_when_the_consumer_closes_the_stream(self, monkeypatch):
        monkeypatch.setattr(ode, "NOISE_BLOCK_BYTES", 8 * 64 * 2)  # blocks of two steps
        spec = brownian_field(1.0)
        before = threading.active_count()
        _, states = solve_sde_mc_batch(
            spec.mu, spec.sigma, spec.x0, 1.0, 32, np.random.default_rng(2), 64
        )
        first = list(itertools.islice(states, 5))
        assert len(first) == 5
        assert threading.active_count() == before + 1  # the worker is drawing ahead
        states.close()
        assert self.threads_after_joins(before) == before
        assert first  # the states taken, and the stream, are still alive

    def test_worker_joined_when_running_raises_in_mc_estimate(self, monkeypatch):
        monkeypatch.setattr(ode, "NOISE_BLOCK_BYTES", 8 * 64 * 2)  # blocks of two steps
        calls = []

        def running(times, states):
            calls.append(times)
            if len(calls) == 6:
                raise RuntimeError("running failed")
            return states[:, :, 1] ** 2

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="running failed") as info:
            mc_estimate(PathFunctional("failing", running=running), brownian_field(1.0), 64, 32, 2)
        assert self.threads_after_joins(before) == before
        assert info.traceback
