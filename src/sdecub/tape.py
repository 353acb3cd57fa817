"""Minimal reverse-mode differentiation on numpy arrays.

Each operation records a node with its parents and a vector-Jacobian
callback; :func:`backward` replays the recorded tape once.  Only the small
operation set needed by the network fields and the fixed-step solvers is
provided, all batched over the leading axis.  Tapes are plain object graphs,
confined to the thread that built them.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteGradient


class Var:
    """A tape node: value, parent nodes, and the VJP into those parents.

    ``+`` and ``*`` record :func:`add`/:func:`mul` against another node and
    :func:`cadd`/:func:`cmul` against a constant, so code written with
    operators runs unchanged on plain arrays and on the tape.
    """

    __slots__ = ("value", "parents", "vjp", "grad")
    # numpy scalars and arrays defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.grad = None

    def __add__(self, other):
        return add(self, other) if isinstance(other, Var) else cadd(self, other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Var) else cmul(self, other)

    __radd__ = __add__
    __rmul__ = __mul__


def const(value) -> Var:
    return Var(np.asarray(value, dtype=float))


def add(a: Var, b: Var) -> Var:
    return Var(a.value + b.value, (a, b), lambda g: (g, g))


def sub(a: Var, b: Var) -> Var:
    return Var(a.value - b.value, (a, b), lambda g: (g, -g))


def mul(a: Var, b: Var) -> Var:
    return Var(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def cadd(a: Var, c) -> Var:
    """Add a constant array or scalar (no gradient into the constant)."""
    return Var(a.value + c, (a,), lambda g: (g,))


def cmul(a: Var, c) -> Var:
    """Multiply by a constant array or scalar."""
    return Var(a.value * c, (a,), lambda g: (g * c,))


def matmul(a: Var, b: Var) -> Var:
    """(B, n) @ (n, m)."""
    return Var(
        a.value @ b.value,
        (a, b),
        lambda g: (g @ b.value.T, a.value.T @ g),
    )


def add_row(a: Var, b: Var) -> Var:
    """(B, n) + (n,) broadcast; the bias gradient sums over the batch."""
    return Var(a.value + b.value, (a, b), lambda g: (g, g.sum(axis=0)))


def tanh(a: Var) -> Var:
    y = np.tanh(a.value)
    return Var(y, (a,), lambda g: (g * (1.0 - y * y),))


def softplus(a: Var) -> Var:
    y = np.logaddexp(0.0, a.value)
    sig = 1.0 / (1.0 + np.exp(-a.value))
    return Var(y, (a,), lambda g: (g * sig,))


def reciprocal(a: Var) -> Var:
    y = 1.0 / a.value
    return Var(y, (a,), lambda g: (-g * y * y,))


def square(a: Var) -> Var:
    return Var(a.value * a.value, (a,), lambda g: (2.0 * g * a.value,))


def with_time(x: Var, t: float) -> Var:
    """Prepend a constant time column: (B, d) -> (B, 1 + d)."""
    col = np.full((x.value.shape[0], 1), t)
    return Var(
        np.concatenate([col, x.value], axis=1),
        (x,),
        lambda g: (g[:, 1:],),
    )


def row_sumsq(a: Var) -> Var:
    """Sum of squares along axis 1: (B, d) -> (B,)."""
    return Var(
        np.sum(a.value * a.value, axis=1),
        (a,),
        lambda g: (2.0 * g[:, None] * a.value,),
    )


def wsum(a: Var, w) -> Var:
    """Weighted sum of a batch vector with constant weights -> scalar."""
    w = np.asarray(w, dtype=float)
    return Var(np.float64(a.value @ w), (a,), lambda g: (g * w,))


def ssum(a: Var) -> Var:
    shape = a.value.shape
    return Var(np.float64(a.value.sum()), (a,), lambda g: (np.broadcast_to(g, shape),))


def topo_order(root: Var) -> list[Var]:
    """Post-order of the graph below ``root`` (parents before children)."""
    order: list[Var] = []
    seen: set[Var] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    push, pop, emit, mark = stack.append, stack.pop, order.append, seen.add
    while stack:
        node, expanded = pop()
        if expanded:
            emit(node)
            continue
        if node in seen:
            continue
        mark(node)
        push((node, True))
        for p in node.parents:
            if p not in seen:
                push((p, False))
    return order


def backward(root: Var) -> list[Var]:
    """Accumulate gradients of a scalar root into every node; returns the tape."""
    order = topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.float64(1.0)
    for node in reversed(order):
        if node.grad is None or node.vjp is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if parent.grad is None:
                # a fresh copy, as one vjp may hand the same array to two
                # parents; 0.0 + g has the bits of zeros + g
                parent.grad = g + 0.0
            else:
                parent.grad += g
    return order


def tape_bytes(order: list[Var]) -> int:
    """Bytes held by node values: the tape's memory high-water mark."""
    total = 0
    for node in order:
        v = node.value
        total += v.nbytes if isinstance(v, np.ndarray) else 8
    return total


def check_finite_gradient(grad: np.ndarray):
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("gradient contains NaN or infinity")
