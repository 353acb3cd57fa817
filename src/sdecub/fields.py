"""Closed-form drift/diffusion presets with batched evaluators.

These small Lipschitz fields drive the estimator benchmarks and tests; the
trainable network fields live in :mod:`sdecub.training`.  Each preset knows
its Ito coefficients, an analytic diffusion Jacobian, and (where available)
the exact value of the sine-tracking functional for exact-oracle benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameter
from .ode import VectorFieldSet, ito_to_stratonovich

_ZERO = np.zeros(())


@dataclass(frozen=True)
class FieldSpec:
    """An Ito SDE preset: coefficients, start point, and optional oracle.

    A constant ``sigma`` or ``sigma_jacobian`` returns a read-only broadcast
    view of one small array, not a fresh (B, ...) array per call.
    """

    name: str
    d_x: int
    d_b: int
    mu: Callable
    sigma: Callable
    sigma_jacobian: Callable
    x0: np.ndarray
    sine_tracking_value: float | None = None

    def stratonovich(self) -> VectorFieldSet:
        return ito_to_stratonovich(
            self.mu, self.sigma, self.d_x, self.d_b, self.sigma_jacobian
        )


def brownian_field(sigma: float = 1.0, x0: float = 0.0) -> FieldSpec:
    """dX = sigma dB: the driftless constant-diffusion reference case.

    Exact sine-tracking value: x0**2 + 1/2 + sigma**2/2 on [0, 1].
    """
    sigma_row = np.full((1, 1), float(sigma))

    def mu(t, x):
        return np.zeros_like(x)

    def sig(t, x):
        return np.broadcast_to(sigma_row, (x.shape[0], 1, 1))

    def jac(t, x):
        return np.broadcast_to(_ZERO, (x.shape[0], 1, 1, 1))

    return FieldSpec(
        name="brownian",
        d_x=1,
        d_b=1,
        mu=mu,
        sigma=sig,
        sigma_jacobian=jac,
        x0=np.array([x0]),
        sine_tracking_value=x0 * x0 + 0.5 + 0.5 * sigma * sigma,
    )


def scaled_diffusion_field(sigma: float = 1.0, x0: float = 1.0) -> FieldSpec:
    """dX = sigma * X dB: state-proportional diffusion (exponential moments).

    Second moment e**(sigma^2 t) * x0^2 gives the exact sine-tracking value
    x0**2 * (e**(sigma**2) - 1) / sigma**2 + 1/2 on [0, 1].
    """
    if sigma == 0:
        raise InvalidParameter("sigma must be nonzero for the scaled preset")
    jac_row = np.full((1, 1, 1), float(sigma))

    def mu(t, x):
        return np.zeros_like(x)

    def sig(t, x):
        return (sigma * x)[:, :, None]

    def jac(t, x):
        return np.broadcast_to(jac_row, (x.shape[0], 1, 1, 1))

    value = x0 * x0 * (math.exp(sigma * sigma) - 1.0) / (sigma * sigma) + 0.5
    return FieldSpec(
        name="scaled_diffusion",
        d_x=1,
        d_b=1,
        mu=mu,
        sigma=sig,
        sigma_jacobian=jac,
        x0=np.array([x0]),
        sine_tracking_value=value,
    )


def ou_field(
    rate: float = 1.0,
    mean: float = 0.0,
    sigma: float = 0.5,
    d: int = 1,
    x0: float | np.ndarray = 0.0,
) -> FieldSpec:
    """dX = rate * (mean - X) dt + sigma dB, independent per coordinate."""
    sigma_rows = np.diag(np.full(d, float(sigma)))

    def mu(t, x):
        return rate * (mean - x)

    def sig(t, x):
        return np.broadcast_to(sigma_rows, (x.shape[0], d, d))

    def jac(t, x):
        return np.broadcast_to(_ZERO, (x.shape[0], d, d, d))

    start = np.full(d, x0, dtype=float) if np.isscalar(x0) else np.asarray(x0, float)
    return FieldSpec(
        name="ou",
        d_x=d,
        d_b=d,
        mu=mu,
        sigma=sig,
        sigma_jacobian=jac,
        x0=start,
    )


def drift_only_field(rate: float = 1.0, d: int = 1, x0: float = 1.0) -> FieldSpec:
    """dX = -rate * X dt: deterministic dynamics (zero diffusion)."""

    def mu(t, x):
        return -rate * x

    def sig(t, x):
        return np.broadcast_to(_ZERO, (x.shape[0], d, d))

    def jac(t, x):
        return np.broadcast_to(_ZERO, (x.shape[0], d, d, d))

    return FieldSpec(
        name="drift_only",
        d_x=d,
        d_b=d,
        mu=mu,
        sigma=sig,
        sigma_jacobian=jac,
        x0=np.full(d, x0, dtype=float),
    )


PRESETS = {
    "brownian": brownian_field,
    "scaled_diffusion": scaled_diffusion_field,
    "ou": ou_field,
    "drift_only": drift_only_field,
}


def make_field(name: str, **kwargs) -> FieldSpec:
    if not isinstance(name, str) or name not in PRESETS:
        raise InvalidParameter(f"unknown field preset {name!r}; have {sorted(PRESETS)}")
    return PRESETS[name](**kwargs)
