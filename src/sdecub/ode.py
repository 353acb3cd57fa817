"""Controlled ODE solves along piecewise-linear paths and the MC baseline.

The solver state is spatial, (B, d_x), and the clock is RK4's stage time:
:func:`rk4_steps` hands every stage its time, and the fields are evaluated
there.  Controlled equations ``dphi = sum_i V_i(t, phi) domega^i`` driven by
piecewise-linear paths reduce to classical ODEs with piecewise-constant path
derivatives.  Each RK4 stage evaluates sigma once and hands it to the
corrected drift, so mu, sigma and the sigma-Jacobian are each evaluated once
per stage.  :func:`rk4_steps` is the package's one fourth-order integrator:
it steps numpy arrays for the batched estimator here and tape nodes for the
training arm in :mod:`sdecub.training`.  :func:`solve_controlled_ode_batch`
streams each step's ``(t, x)`` into a consumer, the estimator's running-cost
sum, which hands a path functional one (B, 1, d_x+1) point at a time; no
trajectory is stored, so memory does not grow with the step count.
:func:`em_steps` is the package's one Euler-Maruyama step, on the grid that
:func:`em_grid` builds and checks: it steps numpy arrays for the Monte Carlo
baseline here and tape nodes for the training arm's pathwise gradient.
:func:`solve_sde_mc_batch` streams the baseline's states one grid time at a
time and stores no trajectory, so its memory does not grow with the grid.
:func:`gaussian_increments` is the Monte Carlo baseline's noise source: it
draws the Brownian increments one block ahead on a second thread, in the
generator's own stream order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NonFiniteState

NOISE_BLOCK_BYTES = 1 << 20  # size of each of gaussian_increments' two buffers


@dataclass(frozen=True)
class VectorFieldSet:
    """Stratonovich fields on the spatial state R^{d_x}, evaluated at time t.

    ``diffusion(t, x)`` is sigma itself, (B,) and (B, d_x) -> (B, d_x, d_b).
    ``drift(t, x, s)`` takes that value and returns the corrected drift as a
    fresh (B, d_x) array, which the caller may update in place.  Evaluators
    must be pure and safe to call concurrently.
    """

    state_dim: int
    driving_dim: int
    drift: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray, np.ndarray], np.ndarray]


def ito_to_stratonovich(mu, sigma, d_x: int, d_b: int, sigma_jacobian) -> VectorFieldSet:
    """Convert Ito coefficients to Stratonovich fields on the spatial state.

    ``mu(t, x)`` returns (B, d_x), ``sigma(t, x)`` (B, d_x, d_b) and
    ``sigma_jacobian(t, x)`` (B, d_x, d_b, d_x), the derivative of sigma in
    the state.  The corrected drift is ``mu - (1/2) sum_i J_{sigma_i}
    sigma_i`` at the solver's clock; it reads sigma from the value
    ``diffusion`` returned for the same stage, so sigma is not evaluated
    twice.  Each coefficient is probed at one point, and a shape that does
    not fit ``d_x`` and ``d_b`` raises ``DimensionMismatch``.
    """
    probe_t = np.zeros(1)
    probe_x = np.zeros((1, d_x))
    expected = {
        "mu": (mu, (1, d_x)),
        "sigma": (sigma, (1, d_x, d_b)),
        "sigma_jacobian": (sigma_jacobian, (1, d_x, d_b, d_x)),
    }
    for name, (coefficient, shape) in expected.items():
        got = np.shape(coefficient(probe_t, probe_x))
        if got != shape:
            raise DimensionMismatch(f"{name} returned shape {got}, expected {shape}")

    def drift(t, x, s):
        return mu(t, x) - 0.5 * np.einsum("bjid,bdi->bj", sigma_jacobian(t, x), s)

    return VectorFieldSet(state_dim=d_x, driving_dim=d_b, drift=drift, diffusion=sigma)


def rk4_steps(rhs, seg_times, derivs, x0, steps_per_segment: int):
    """Classical RK4 over shared segments with constant path slopes.

    ``seg_times`` is the segment grid (S+1,), ``derivs`` the path slopes per
    path and segment, shape (B, S, d_b); ``rhs(t, x, g)`` is the vector
    field at stage time ``t`` for slopes ``g`` (B, d_b).  Yields ``(t, x)``
    after every step, each segment's last step snapped onto its knot.  The
    state may be an ndarray or a ``tape.Var``: the step uses only ``+`` and
    ``*``, so the same loop serves estimation and tape training.
    """
    # checked on the call, not on the first step, so a bad count raises
    # before any consumer is handed the stream
    if steps_per_segment < 1:
        raise InvalidParameter("steps_per_segment must be >= 1")

    def steps():
        x = x0
        for seg in range(seg_times.shape[0] - 1):
            t0 = seg_times[seg]
            h = (seg_times[seg + 1] - t0) / steps_per_segment
            g = derivs[:, seg, :]
            for step in range(steps_per_segment):
                t = t0 + step * h
                k1 = rhs(t, x, g)
                k2 = rhs(t + 0.5 * h, x + (0.5 * h) * k1, g)
                k3 = rhs(t + 0.5 * h, x + (0.5 * h) * k2, g)
                k4 = rhs(t + h, x + h * k3, g)
                x = x + (h / 6.0) * ((k1 + k4) + 2.0 * (k2 + k3))
                last = step == steps_per_segment - 1
                yield (seg_times[seg + 1] if last else t0 + (step + 1) * h), x

    return steps()


def solve_controlled_ode_batch(
    fields: VectorFieldSet,
    seg_times: np.ndarray,
    derivs: np.ndarray,
    x0: np.ndarray,
    steps_per_segment: int,
    consume: Callable[[Iterator[tuple[float, np.ndarray]]], Any],
) -> Any:
    """Integrate ``dphi = sum_i V_i(t, phi) domega^i`` along a batch of paths.

    The paths share one segment grid and are linear on each segment, so every
    segment is a classical ODE solved with :func:`rk4_steps` on the spatial
    state, started from ``x0`` ((d_x,) or one row per path); the fields see
    each stage's time as a (B,) array.  ``consume`` is handed the stream of
    ``(t, x)``, the start and then the (B, d_x) state after every step, and
    its result is returned once the solve is done.  Each step's state is
    checked before it is handed on: ``NonFiniteState`` names the segment in
    which some path's state first leaves the finite range.
    """

    def rhs(t, x, g):
        clock = np.full(x.shape[0], t)
        s = fields.diffusion(clock, x)
        v = fields.drift(clock, x, s)
        v += np.einsum("bdi,bi->bd", s, g)
        return v

    x0 = np.asarray(x0, float)
    state = np.broadcast_to(x0, (derivs.shape[0], x0.shape[-1])).copy()
    steps = rk4_steps(rhs, seg_times, derivs, state, steps_per_segment)

    def checked():
        yield seg_times[0], state
        for pos, (t, x) in enumerate(steps):
            if not np.all(np.isfinite(x)):
                seg = pos // steps_per_segment
                raise NonFiniteState(f"state left the finite range in segment {seg}", segment=seg)
            yield t, x

    return consume(checked())


def gaussian_increments(rng: np.random.Generator, steps: int, shape, scale: float):
    """Yield ``rng.standard_normal(shape) * scale`` for each of ``steps`` steps.

    A one-worker thread fills the next block of steps into one of two
    buffers of about ``NOISE_BLOCK_BYTES`` while the caller reads the other,
    so drawing overlaps the caller's work.  One block's draw takes the
    generator's stream in the order the per-step draws would, so every
    value and the generator's state afterwards are bitwise those of
    ``steps`` separate draws; the block size never enters a result.  Each
    yielded array is a view that may be overwritten once the next one is
    requested.  The buffers are allocated in the calling thread; close the
    generator (``contextlib.closing``) to join the worker when stopping
    early.
    """
    block = max(1, min(steps, NOISE_BLOCK_BYTES // (8 * max(1, math.prod(shape)))))
    buffers = (np.empty((block, *shape)), np.empty((block, *shape)))
    n_blocks = -(-steps // block)

    def fill(i):
        buf = buffers[i % 2][: min(block, steps - i * block)]
        rng.standard_normal(out=buf)
        buf *= scale
        return buf

    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(fill, 0) if n_blocks else None
        for i in range(n_blocks):
            ready = pending.result()
            # the caller has asked for block i's first step, so it is done
            # with block i-1, whose buffer fill(i + 1) reuses
            if i + 1 < n_blocks:
                pending = pool.submit(fill, i + 1)
            yield from ready


def em_grid(T: float, grid: int) -> tuple[np.ndarray, float]:
    """The Monte Carlo grid of ``grid`` equal steps on [0, T] and its step."""
    if grid < 1:
        raise InvalidParameter(f"grid size must be >= 1, got {grid}")
    if T <= 0:
        raise InvalidParameter(f"horizon T must be positive, got {T}")
    return np.linspace(0.0, T, grid + 1), T / grid


def em_steps(coefficients, times, h: float, x0, noise):
    """Euler-Maruyama on ``times`` with step ``h``, driven by ``noise``.

    ``noise`` yields one increment per step, and ``coefficients(t, x, dw)``
    returns the drift and the noise term.  Yields ``(t, x)`` after every
    step ``x + drift * h + noise_term``.  The state may be an ndarray or a
    ``tape.Var``: the step uses only ``+`` and ``*``, so the same loop serves
    estimation and tape training.
    """
    x = x0
    for t0, t1, dw in zip(times[:-1], times[1:], noise):
        drift, noise_term = coefficients(t0, x, dw)
        x = x + drift * h + noise_term
        yield t1, x


def solve_sde_mc_batch(
    mu,
    sigma,
    x0: np.ndarray,
    T: float,
    grid: int,
    rng: np.random.Generator,
    n_paths: int,
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Euler-Maruyama for a batch of paths; returns (times, states).

    ``states`` is a generator of the (B, d_x) state at each of the
    ``grid + 1`` times, ``x0`` first, stepped by :func:`em_steps`; only the
    current state is kept, and each yielded array is fresh.  The increments
    come from :func:`gaussian_increments`, so the stream is one
    ``(n_paths, d_b)`` draw per step, and its worker is joined when the
    stream ends, raises or is closed (``contextlib.closing``).  Memory is
    the two noise buffers (about ``2 * NOISE_BLOCK_BYTES``) and a few
    states.  Every step's state is checked before it is yielded:
    ``NonFiniteState`` names the first step after which some path's state
    is not finite, in ``segment``.
    """
    times, h = em_grid(T, grid)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    start = np.broadcast_to(x0, (n_paths, x0.shape[0])).copy()
    d_b = sigma(np.zeros(1), start[:1]).shape[2]

    def coefficients(t, x, dw):
        clock = np.full(n_paths, t)
        return mu(clock, x), np.einsum("bdi,bi->bd", sigma(clock, x), dw)

    def states():
        yield start
        with closing(gaussian_increments(rng, grid, (n_paths, d_b), math.sqrt(h))) as noise:
            for step, (t, x) in enumerate(em_steps(coefficients, times, h, start, noise)):
                if not np.all(np.isfinite(x)):
                    bad = np.count_nonzero(~np.all(np.isfinite(x), axis=1))
                    raise NonFiniteState(
                        f"Euler-Maruyama state left the finite range after step {step} of "
                        f"{grid} (t = {t:.6g}) in {bad} of {n_paths} paths",
                        segment=step,
                    )
                yield x

    return times, states()
