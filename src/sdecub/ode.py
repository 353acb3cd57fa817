"""Controlled ODE solves along piecewise-linear paths and the MC baseline.

States are time-augmented: component 0 is physical time, which the drift
advances at rate 1 and the diffusion leaves alone.  Controlled equations
``dphi = sum_i V_i(phi) domega^i`` driven by piecewise-linear paths reduce to
classical ODEs with piecewise-constant path derivatives.  Each RK4 stage
evaluates sigma's body once and hands it to the corrected drift, so mu,
sigma and the sigma-Jacobian are each evaluated once per stage.
:func:`rk4_steps` is the package's one fourth-order integrator: it steps
numpy arrays for the batched estimator here and tape nodes for the training
arm in :mod:`sdecub.training`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NonFiniteState


@dataclass(frozen=True)
class VectorFieldSet:
    """Stratonovich fields on the augmented state R^{d_x+1}.

    ``diffusion(x)`` maps (B, d_x+1) -> (B, d_x, d_b), sigma's body: the time
    component has no diffusion row.  ``drift(x, s)`` takes that body and
    returns a fresh (B, d_x+1) array, component 0 equal to 1, which the
    caller may update in place.  Evaluators must be pure and safe to call
    concurrently.
    """

    state_dim: int
    driving_dim: int
    drift: Callable[[np.ndarray, np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]


def forward_difference_jacobian(sigma, t, x, base):
    """Forward-difference Jacobian of sigma in the state, shape (B, d_x, d_b, d_x).

    ``base`` is ``sigma(t, x)``, which the caller already holds.  Step
    sqrt(machine eps) * (1 + |x_j|) per coordinate.
    """
    x = np.atleast_2d(x)
    d_x = x.shape[1]
    d_b = base.shape[2]
    jac = np.empty((x.shape[0], base.shape[1], d_b, d_x))
    root_eps = math.sqrt(np.finfo(float).eps)
    for j in range(d_x):
        h = root_eps * (1.0 + np.abs(x[:, j]))
        shifted = x.copy()
        shifted[:, j] += h
        jac[:, :, :, j] = (sigma(t, shifted) - base) / h[:, None, None]
    return jac


def ito_to_stratonovich(
    mu,
    sigma,
    d_x: int,
    d_b: int,
    sigma_jacobian=None,
) -> VectorFieldSet:
    """Convert Ito coefficients to augmented Stratonovich fields.

    ``mu(t, x)`` returns (B, d_x), ``sigma(t, x)`` returns (B, d_x, d_b).
    The corrected drift is ``mu - (1/2) sum_i J_{sigma_i} sigma_i``; the time
    derivative of sigma drops out because the diffusion fields carry no time
    component.  The drift reads sigma from the body ``diffusion`` returned
    for the same state, so sigma is not evaluated twice.  Without an
    analytic ``sigma_jacobian(t, x)`` the Jacobian is taken by forward
    differences from that body.
    """
    probe_t = np.zeros(1)
    probe_x = np.zeros((1, d_x))
    mu_shape = np.shape(mu(probe_t, probe_x))
    sig_shape = np.shape(sigma(probe_t, probe_x))
    if mu_shape != (1, d_x):
        raise DimensionMismatch(f"mu returned shape {mu_shape}, expected (1, {d_x})")
    if sig_shape != (1, d_x, d_b):
        raise DimensionMismatch(
            f"sigma returned shape {sig_shape}, expected (1, {d_x}, {d_b})"
        )
    if sigma_jacobian is None:
        jac = lambda t, x, s: forward_difference_jacobian(sigma, t, x, s)
    else:
        jac = lambda t, x, s: sigma_jacobian(t, x)

    def diffusion(x):
        return sigma(x[:, 0], x[:, 1:])

    def drift(x, s):
        t, body = x[:, 0], x[:, 1:]
        out = np.empty_like(x)
        out[:, 0] = 1.0
        out[:, 1:] = mu(t, body) - 0.5 * np.einsum("bjid,bdi->bj", jac(t, body, s), s)
        return out

    return VectorFieldSet(state_dim=d_x, driving_dim=d_b, drift=drift, diffusion=diffusion)


def rk4_steps(rhs, seg_times, derivs, x0, steps_per_segment: int):
    """Classical RK4 over shared segments with constant path slopes.

    ``seg_times`` is the segment grid (S+1,), ``derivs`` the path slopes per
    path and segment, shape (B, S, d_b); ``rhs(t, x, g)`` is the vector
    field at stage time ``t`` for slopes ``g`` (B, d_b).  Yields ``(t, x)``
    after every step, each segment's last step snapped onto its knot.  The
    state may be an ndarray or a ``tape.Var``: the step uses only ``+`` and
    ``*``, so the same loop serves estimation and tape training.
    """
    # checked on the call, not on the first step, so a caller may size its
    # output from steps_per_segment before iterating
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
    steps_per_segment: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``dphi = sum_i V_i(phi) domega^i`` along a batch of paths.

    The paths share one segment grid and are linear on each segment, so every
    segment is a classical autonomous ODE solved with :func:`rk4_steps`.
    Returns the step grid and the augmented states (B, n_steps+1, d_x+1).
    """

    def rhs(t, x, g):
        s = fields.diffusion(x)
        v = fields.drift(x, s)
        v[:, 1:] += np.einsum("bdi,bi->bd", s, g)
        return v

    x0 = np.asarray(x0, float)
    batch, d_aug = derivs.shape[0], x0.shape[-1]
    state = np.broadcast_to(x0, (batch, d_aug)).copy()
    steps = rk4_steps(rhs, seg_times, derivs, state, steps_per_segment)
    n_total = (seg_times.shape[0] - 1) * steps_per_segment
    out_times = np.empty(n_total + 1)
    out = np.empty((batch, n_total + 1, d_aug))
    out_times[0] = seg_times[0]
    out[:, 0] = state
    for pos, (t, state) in enumerate(steps, 1):
        out_times[pos] = t
        out[:, pos] = state
        if pos % steps_per_segment == 0 and not np.all(np.isfinite(state)):
            seg = pos // steps_per_segment - 1
            raise NonFiniteState(f"state left the finite range in segment {seg}", segment=seg)
    return out_times, out


def solve_sde_mc_batch(
    mu,
    sigma,
    x0: np.ndarray,
    T: float,
    grid: int,
    rng: np.random.Generator,
    n_paths: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama for a batch of paths; returns (times, states (B, n+1, d_x)).

    The states are a time-major buffer (n+1, B, d_x) seen as (B, n+1, d_x).
    A step fills its slab with ``drift*h + x``, bitwise ``x + drift*h``
    since IEEE addition commutes, then adds the noise term.
    """
    if grid < 1:
        raise InvalidParameter("grid size must be >= 1")
    if T <= 0:
        raise InvalidParameter(f"horizon T must be positive, got {T}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    h = T / grid
    root_h = math.sqrt(h)
    times = np.linspace(0.0, T, grid + 1)
    out = np.empty((grid + 1, n_paths, x0.shape[0]))
    out[0] = x0
    d_b = sigma(np.zeros(1), out[0, :1]).shape[2]
    for step, (state, nxt) in enumerate(zip(out, out[1:])):
        t = np.full(n_paths, times[step])
        dw = rng.standard_normal((n_paths, d_b)) * root_h
        drift = mu(t, state)
        diff = sigma(t, state)
        np.add(np.multiply(drift, h, out=nxt), state, out=nxt)
        nxt += np.einsum("bdi,bi->bd", diff, dw)
    if not np.all(np.isfinite(out[-1])):
        raise NonFiniteState("Euler-Maruyama state left the finite range")
    return times, out.transpose(1, 0, 2)
