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

import math

import numpy as np

from . import tape
from .errors import InvalidParameter
from .tape import Var

DIFFUSION_FLOOR = 0.05  # added to the softplus head so g stays invertible


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
        shapes: dict[str, tuple[int, ...]] = {}
        for net in ("prior", "posterior", "diffusion"):
            shapes |= {f"{net}.hidden.w": (d_x + 1, width), f"{net}.hidden.b": (width,),
                       f"{net}.out.w": (width, d_x), f"{net}.out.b": (d_x,)}
        shapes["z0"] = (d_x,)
        # every parameter tensor: name -> (slice of the flat vector, shape), in its order
        self.layout: dict[str, tuple[slice, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in shapes.items():
            self.layout[name] = (slice(offset, offset + math.prod(shape)), shape)
            offset += math.prod(shape)
        self.n_params = offset

    def init_params(self, seed: int) -> np.ndarray:
        """Scaled normal weights; biases and the initial state start at zero."""
        rng = np.random.default_rng(seed)
        theta = np.zeros(self.n_params)
        for name, (sl, shape) in self.layout.items():
            if name.endswith(".w"):
                theta[sl] = rng.normal(0.0, 0.5 / np.sqrt(shape[0]), sl.stop - sl.start)
        return theta

    def wrap(self, theta: np.ndarray) -> dict[str, Var]:
        """Wrap a flat parameter vector into tape leaves (one per tensor)."""
        if theta.shape != (self.n_params,):
            raise InvalidParameter(
                f"parameter vector has shape {theta.shape}, expected ({self.n_params},)"
            )
        return {name: tape.const(theta[sl].reshape(shape))
                for name, (sl, shape) in self.layout.items()}

    def collect_grad(self, leaves: dict[str, Var]) -> np.ndarray:
        grad = np.zeros(self.n_params)
        for name, (sl, _) in self.layout.items():
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
