"""Minimal reverse-mode differentiation on numpy arrays.

Each operation records a node with its parents and a vector-Jacobian
callback; :func:`backward` replays the recorded tape once.  Only the small
operation set needed by the network fields, the fixed-step solvers and the
training loss is provided, all batched over the leading axis.  A network
call is one node, :func:`mlp`, with one hand-written VJP into its input and
its four weight tensors, and so is each per-state loss term, :func:`misfit`
or :func:`mismatch`.  A node keeps the arrays its VJP needs beyond node
values in ``saved``, and :func:`tape_bytes` counts them; the fused nodes
rebuild their intermediates in the VJP instead.  Tapes are plain object
graphs, confined to the thread that built them.
"""

from __future__ import annotations

import numpy as np


class Var:
    """A tape node: value, parent nodes, the VJP into those parents, and the
    arrays other than node values that the VJP keeps (``saved``).

    ``+`` and ``*`` record :func:`add`/:func:`mul` against another node and
    :func:`cadd`/:func:`cmul` against a constant, and indexing records
    :func:`take`, so code written with operators and indexing runs unchanged
    on plain arrays and on the tape.
    """

    __slots__ = ("value", "parents", "vjp", "saved", "grad")
    # numpy scalars and arrays defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None, saved=()):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.saved = saved
        self.grad = None

    def __add__(self, other):
        return add(self, other) if isinstance(other, Var) else cadd(self, other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Var) else cmul(self, other)

    __radd__ = __add__
    __rmul__ = __mul__

    def __getitem__(self, key):
        return take(self, key)


def const(value) -> Var:
    return Var(np.asarray(value, dtype=float))


def add(a: Var, b: Var) -> Var:
    return Var(a.value + b.value, (a, b), lambda g: (g, g))


def mul(a: Var, b: Var) -> Var:
    return Var(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def cadd(a: Var, c) -> Var:
    """Add a constant array or scalar (no gradient into the constant)."""
    return Var(a.value + c, (a,), lambda g: (g,))


def cmul(a: Var, c) -> Var:
    """Multiply by a constant array or scalar."""
    saved = (c,) if isinstance(c, np.ndarray) else ()
    return Var(a.value * c, (a,), lambda g: (g * c,), saved)


def take(a: Var, key) -> Var:
    """``a.value[key]``; the VJP scatters back with ``np.add.at``, so rows
    taken more than once (one parent state for q children) sum their gradients."""

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, key, g)
        return (out,)

    saved = (key,) if isinstance(key, np.ndarray) else ()
    return Var(a.value[key], (a,), vjp, saved)


def mlp(
    x: Var, w1: Var, b1: Var, w2: Var, b2: Var, t: float, softplus_floor: float | None = None
) -> Var:
    """One call of a two-layer tanh network as one node.

    The input is ``x`` (B, d) with the time ``t`` prepended as column 0; the
    output is ``tanh([t, x] @ w1 + b1) @ w2 + b2``, or with a
    ``softplus_floor`` that head passed through softplus plus the floor.
    The node keeps the hidden activations and, for the softplus head, its
    sigmoid; the VJP rebuilds ``[t, x]`` from ``x``.
    """

    def tx():
        return np.concatenate([np.full((x.value.shape[0], 1), t), x.value], axis=1)

    h = np.tanh(tx() @ w1.value + b1.value)
    head = h @ w2.value + b2.value
    if softplus_floor is None:
        y, saved = head, (h,)
    else:
        soft = np.logaddexp(0.0, head)
        y = soft + softplus_floor
        # the sigmoid as exp(head - softplus(head)): 1 / (1 + exp(-head))
        # overflows for heads below about -709
        sig = np.exp(head - soft)
        saved = (h, sig)

    def vjp(g):
        if softplus_floor is not None:
            g = g * sig
        gh = (g @ w2.value.T) * (1.0 - h * h)
        return (gh @ w1.value.T)[:, 1:], tx().T @ gh, gh.sum(axis=0), h.T @ g, g.sum(axis=0)

    return Var(y, (x, w1, b1, w2, b2), vjp, saved)


def misfit(z: Var, y: np.ndarray, w: np.ndarray, scale: float, factor: float) -> tuple:
    """``row_sumsq(z - y) @ ((scale * w) * factor)`` as one node, and the row
    sums (B,).  It keeps the constant ``y`` (d,) and the row weights ``w``
    (B,), which every state of a piece shares; the VJP rebuilds ``z - y``."""
    rows = np.sum(np.square(z.value - y), axis=1)

    def vjp(g):
        return (2.0 * (g * ((scale * w) * factor))[:, None] * (z.value - y),)

    return Var(np.float64(rows @ ((scale * w) * factor)), (z,), vjp, (y, w)), rows


def mismatch(a: Var, b: Var, c: Var, w: np.ndarray, scale: float, factor: float) -> tuple:
    """``row_sumsq((a - b) * (1 / c)) @ ((scale * w) * factor)`` as one node,
    and the row sums (B,).  It keeps ``w``; the VJP rebuilds ``a - b`` and
    ``1 / c`` in the order of the forward pass."""
    rows = np.sum(np.square((a.value - b.value) * (1.0 / c.value)), axis=1)

    def vjp(g):
        diff, inv = a.value - b.value, 1.0 / c.value
        g_diff = 2.0 * (g * ((scale * w) * factor))[:, None] * (diff * inv)
        g_a = g_diff * inv
        return g_a, -g_a, -(g_diff * diff) * inv * inv

    return Var(np.float64(rows @ ((scale * w) * factor)), (a, b, c), vjp, (w,)), rows


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
    """Accumulate gradients of a scalar root into the leaves; returns the tape.

    An interior node's gradient is dropped once its VJP has run, so only the
    leaves (nodes without a VJP) hold a gradient afterwards.
    """
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
        node.grad = None
    return order


def tape_bytes(order: list[Var]) -> int:
    """Bytes held by node values and saved arrays: the tape's memory high-water mark.

    A saved array kept by several nodes (one segment's path slopes in every
    RK4 stage) counts once.  Gradients are not counted; :func:`backward`
    holds those of the leaves and of the nodes whose VJP has not run yet.
    """
    total = 0
    saved: dict[int, int] = {}
    for node in order:
        v = node.value
        total += v.nbytes if isinstance(v, np.ndarray) else 8
        for a in node.saved:
            saved[id(a)] = a.nbytes
    return total + sum(saved.values())
