"""Trainable vector fields: small tanh networks on the reverse-mode tape.

Three two-layer networks share one flat parameter vector: the generative
drift, the variational drift, and a diagonal diffusion head (softplus plus a
floor keeps it invertible).  A learned initial state completes the parameter
set.  The evaluators exist once, on the tape: training differentiates
through them, and reporting wraps plain arrays with ``tape.const``.  Each
call, diffusion head included, records one fused :func:`sdecub.tape.mlp`
node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .errors import InvalidParameter
from .tape import Var

DIFFUSION_FLOOR = 0.05  # added to the softplus head so g stays invertible


@dataclass(frozen=True)
class _Layer:
    w_slice: slice
    b_slice: slice
    shape: tuple[int, int]


@dataclass(frozen=True)
class _Net:
    hidden: _Layer
    out: _Layer


def _mlp_layout(offset: int, d_in: int, width: int, d_out: int) -> tuple[_Net, int]:
    w1 = slice(offset, offset + d_in * width)
    offset = w1.stop
    b1 = slice(offset, offset + width)
    offset = b1.stop
    w2 = slice(offset, offset + width * d_out)
    offset = w2.stop
    b2 = slice(offset, offset + d_out)
    offset = b2.stop
    return _Net(_Layer(w1, b1, (d_in, width)), _Layer(w2, b2, (width, d_out))), offset


class NetworkFields:
    """Parameter layout and evaluators for the three field networks.

    ``d_b`` equals ``d_x`` so the diagonal diffusion is invertible wherever
    the KL penalty needs its inverse.
    """

    def __init__(self, d_x: int, width: int = 8):
        if d_x < 1 or width < 1:
            raise InvalidParameter("d_x and width must be >= 1")
        self.d_x = d_x
        self.d_b = d_x
        self.width = width
        offset = 0
        self.prior, offset = _mlp_layout(offset, d_x + 1, width, d_x)
        self.posterior, offset = _mlp_layout(offset, d_x + 1, width, d_x)
        self.diffusion, offset = _mlp_layout(offset, d_x + 1, width, d_x)
        self.z0_slice = slice(offset, offset + d_x)
        self.n_params = offset + d_x

    def _tensors(self):
        """(leaf name, slice of the flat vector, shape) of every parameter tensor."""
        for name in ("prior", "posterior", "diffusion"):
            net = getattr(self, name)
            for part, layer in (("hidden", net.hidden), ("out", net.out)):
                yield f"{name}.{part}.w", layer.w_slice, layer.shape
                yield f"{name}.{part}.b", layer.b_slice, layer.shape[1:]
        yield "z0", self.z0_slice, (self.d_x,)

    def init_params(self, seed: int) -> np.ndarray:
        """Scaled normal weights; biases and the initial state start at zero."""
        rng = np.random.default_rng(seed)
        theta = np.zeros(self.n_params)
        for name, sl, shape in self._tensors():
            if name.endswith(".w"):
                theta[sl] = rng.normal(0.0, 0.5 / np.sqrt(shape[0]), sl.stop - sl.start)
        return theta

    def wrap(self, theta: np.ndarray) -> dict[str, Var]:
        """Wrap a flat parameter vector into tape leaves (one per tensor)."""
        if theta.shape != (self.n_params,):
            raise InvalidParameter(
                f"parameter vector has shape {theta.shape}, expected ({self.n_params},)"
            )
        return {name: tape.const(theta[sl].reshape(shape)) for name, sl, shape in self._tensors()}

    def collect_grad(self, leaves: dict[str, Var]) -> np.ndarray:
        grad = np.zeros(self.n_params)
        for name, sl, _ in self._tensors():
            g = leaves[name].grad
            if g is not None:
                grad[sl] = np.asarray(g).ravel()
        return grad

    def _mlp(self, leaves: dict[str, Var], name: str, x: Var, t: float, floor=None) -> Var:
        return tape.mlp(
            x,
            leaves[f"{name}.hidden.w"],
            leaves[f"{name}.hidden.b"],
            leaves[f"{name}.out.w"],
            leaves[f"{name}.out.b"],
            t,
            floor,
        )

    def drift_prior(self, leaves, x: Var, t: float) -> Var:
        return self._mlp(leaves, "prior", x, t)

    def drift_posterior(self, leaves, x: Var, t: float) -> Var:
        return self._mlp(leaves, "posterior", x, t)

    def diffusion_diag(self, leaves, x: Var, t: float) -> Var:
        """Diagonal diffusion: softplus(head) + DIFFUSION_FLOOR."""
        return self._mlp(leaves, "diffusion", x, t, DIFFUSION_FLOOR)

    def initial_state(self, leaves, batch: int) -> Var:
        z0 = leaves["z0"]
        return Var(
            np.broadcast_to(z0.value, (batch, self.d_x)).copy(),
            (z0,),
            lambda g: (g.sum(axis=0),),
        )
