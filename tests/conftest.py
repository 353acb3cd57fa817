"""Shared test oracles."""

import math

import numpy as np
from hypothesis import settings

from sdecub import NetworkFields, PathFunctional, PiecewisePath, tape
from sdecub.ode import rk4_steps, solve_controlled_ode_batch
from sdecub.partition import interval_slopes

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def grid_iterated_integral(path, word, resolution=2**16):
    """Iterated integral by cumulative trapezoid quadrature on a fine grid.

    Independent of the per-segment composition rule used by the library:
    each letter adds one cumulative integration against the interpolated
    path component, so agreement checks the algebra, not the arithmetic.
    """
    grid = np.union1d(
        np.linspace(path.breakpoints[0], path.breakpoints[-1], resolution + 1),
        path.breakpoints,
    )
    comps = np.empty((grid.shape[0], path.values.shape[1]))
    for c in range(path.values.shape[1]):
        comps[:, c] = np.interp(grid, path.breakpoints, path.values[:, c])
    level = np.ones(grid.shape[0])
    for letter in word:
        increments = np.diff(comps[:, letter])
        midpoints = 0.5 * (level[1:] + level[:-1])
        level = np.concatenate([[0.0], np.cumsum(midpoints * increments)])
    return level[-1]


def leaf_derivatives(formula, partition, ivs):
    """Shared segment grid and per-leaf path slopes for a batch of tree leaves.

    ``ivs`` holds one index vector per leaf (a sequence or an (n_leaves, k)
    array), each with one 1-based formula path index per subinterval.
    Returns the grid of ``interval_slopes`` and each leaf's slopes
    ``derivs`` (n_leaves, S, d_b), gathered from its per-interval slopes:
    the whole-leaf form that the level walk is checked against.
    """
    k = partition.k
    idx = np.asarray(ivs, dtype=int).reshape(len(ivs), k) - 1
    seg_times, slopes = interval_slopes(formula, partition)
    derivs = slopes[np.arange(k)[None, :], idx].reshape(idx.shape[0], -1, formula.dim)
    return seg_times, derivs


class ZeroDiffusionFields(NetworkFields):
    """Networks whose diffusion is exactly zero: deterministic dynamics."""

    def diffusion_diag(self, leaves, x, t):
        return tape.const(np.zeros((x.value.shape[0], self.d_x)))


def terminal_functional(component=0):
    """Value of one spatial component at the final time (linear functional)."""

    def terminal(values):
        return values[:, 1 + component]

    return PathFunctional(name=f"terminal_x{component}", terminal=terminal)


def leaf_path(formula, partition, iv):
    """One tree leaf as a path, integrated from the slopes of ``leaf_derivatives``.

    The time component is the segment grid itself; the Brownian components
    accumulate slope times segment length from the origin.
    """
    seg_times, derivs = leaf_derivatives(formula, partition, [iv])
    values = np.zeros((seg_times.shape[0], formula.dim + 1))
    values[:, 0] = seg_times
    values[1:, 1:] = np.cumsum(derivs[0] * np.diff(seg_times)[:, None], axis=0)
    return PiecewisePath(seg_times, values)


def reference_em(mu, sigma, x0, T, grid, rng, n_paths):
    """Path-major Euler-Maruyama: (times, states (B, grid+1, d_x)).

    The straightforward loop that ``solve_sde_mc_batch`` must match bit for
    bit: one (B, d_b) normal draw per step and ``x + drift*h + noise`` on a
    fresh state array, stored into the path-major trajectory.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d_x = x0.shape[0]
    h = T / grid
    root_h = math.sqrt(h)
    times = np.linspace(0.0, T, grid + 1)
    out = np.empty((n_paths, grid + 1, d_x))
    state = np.broadcast_to(x0, (n_paths, d_x)).copy()
    out[:, 0] = state
    d_b = sigma(np.zeros(1), state[:1]).shape[2]
    for step in range(grid):
        t = np.full(n_paths, times[step])
        dw = rng.standard_normal((n_paths, d_b)) * root_h
        drift = mu(t, state)
        diff = sigma(t, state)
        state = state + drift * h + np.einsum("bdi,bi->bd", diff, dw)
        out[:, step + 1] = state
    return times, out


def reference_stage_solve(spec, seg_times, derivs, x0, steps_per_segment):
    """Two-call RK4 stage on the spatial state: states (B, n_steps+1, d_x).

    The stage that ``solve_controlled_ode_batch`` must match bit for bit:
    ``drift(t, x) + sigma(t, x) . g`` at the stage time ``t``, where the
    corrected drift evaluates sigma itself.
    """

    def drift(t, x):
        correction = 0.5 * np.einsum("bjid,bdi->bj", spec.sigma_jacobian(t, x), spec.sigma(t, x))
        return spec.mu(t, x) - correction

    def rhs(t, x, g):
        clock = np.full(x.shape[0], t)
        return drift(clock, x) + np.einsum("bdi,bi->bd", spec.sigma(clock, x), g)

    state = np.broadcast_to(x0, (derivs.shape[0], x0.shape[-1])).copy()
    steps = rk4_steps(rhs, seg_times, derivs, state, steps_per_segment)
    return np.stack([state] + [x for _, x in steps], axis=1)


def solve_trajectory(fields, seg_times, derivs, x0, steps_per_segment=32):
    """A batched controlled solve stored whole: (times (n,), paths (B, n, d_x+1)).

    The streamed ``(t, x)`` pairs of ``solve_controlled_ode_batch`` stacked,
    the step grid in column 0 and the states in columns 1:.
    """
    pairs = solve_controlled_ode_batch(fields, seg_times, derivs, x0, steps_per_segment, list)
    times = np.array([t for t, _ in pairs])
    paths = np.empty((derivs.shape[0], times.size, pairs[0][1].shape[1] + 1))
    paths[:, :, 0] = times
    paths[:, :, 1:] = np.stack([x for _, x in pairs], axis=1)
    return times, paths


def trapezoid_running(functional, times, paths):
    """``np.trapezoid`` of the running cost over stored paths (B, n, d_x+1): (B,)."""
    if functional.running is None:
        return np.zeros(paths.shape[0])
    return np.trapezoid(functional.running(times, paths), times, axis=1)
