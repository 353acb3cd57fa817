"""Reverse-mode tape primitives and the network field evaluators."""

import math
import warnings

import numpy as np
import pytest

from sdecub import NetworkFields
from sdecub import tape as tp
from sdecub.nets import DIFFUSION_FLOOR
from sdecub.tape import Var

# Two nodes the tests build graphs with; the package itself needs neither.


def square(a):
    return Var(a.value * a.value, (a,), lambda g: (2.0 * g * a.value,))


def ssum(a):
    """Sum of every entry -> scalar, the root of a test graph."""
    shape = a.value.shape
    return Var(np.float64(a.value.sum()), (a,), lambda g: (np.broadcast_to(g, shape),))


# The unfused network composition, one node per layer operation, kept as the
# reference that the fused ``tape.mlp`` node is checked against.


def with_time(x, t):
    col = np.full((x.value.shape[0], 1), t)
    return Var(np.concatenate([col, x.value], axis=1), (x,), lambda g: (g[:, 1:],))


def matmul(a, b):
    return Var(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def add_row(a, b):
    return Var(a.value + b.value, (a, b), lambda g: (g, g.sum(axis=0)))


def tanh(a):
    y = np.tanh(a.value)
    return Var(y, (a,), lambda g: (g * (1.0 - y * y),))


def softplus(a):
    y = np.logaddexp(0.0, a.value)
    sig = 1.0 / (1.0 + np.exp(-a.value))
    return Var(y, (a,), lambda g: (g * sig,))


def unfused_mlp(x, w1, b1, w2, b2, t, softplus_floor=None):
    """``tape.mlp`` composed from one node per operation."""
    h = tanh(add_row(matmul(with_time(x, t), w1), b1))
    head = add_row(matmul(h, w2), b2)
    return head if softplus_floor is None else tp.cadd(softplus(head), softplus_floor)


# The unfused loss terms, one node per operation, kept as the reference that
# the fused ``tape.misfit`` and ``tape.mismatch`` nodes are checked against.


def sub(a, b):
    return Var(a.value - b.value, (a, b), lambda g: (g, -g))


def reciprocal(a):
    y = 1.0 / a.value
    return Var(y, (a,), lambda g: (-g * y * y,))


def row_sumsq(a):
    """Sum of squares along axis 1: (B, d) -> (B,)."""
    return Var(np.sum(a.value * a.value, axis=1), (a,), lambda g: (2.0 * g[:, None] * a.value,))


def wsum(a, w):
    """Weighted sum of a batch vector with constant weights -> scalar."""
    w = np.asarray(w, dtype=float)
    return Var(np.float64(a.value @ w), (a,), lambda g: (g * w,), (w,))


def unfused_misfit(z, y, w):
    """``tape.misfit`` composed from one node per operation, with the row sums
    and the row weights formed by the caller."""
    rows = row_sumsq(tp.cadd(z, -y))
    return wsum(rows, w), rows


def unfused_mismatch(a, b, c, w):
    """``tape.mismatch`` composed from one node per operation, with the row sums
    and the row weights formed by the caller."""
    rows = row_sumsq(tp.mul(sub(a, b), reciprocal(c)))
    return wsum(rows, w), rows


LOSS_SCALE, LOSS_FACTOR = 0.37, 3.125  # the row weights' scalars


def loss_term_arrays(seed, batch=4, d=3):
    """(z, y, a, b, c, w) for one state's two loss terms; the diffusion ``c``
    sits within 0.01 above ``DIFFUSION_FLOOR``."""
    rng = np.random.default_rng(seed)
    z, a, b = (rng.normal(size=(batch, d)) for _ in range(3))
    c = DIFFUSION_FLOOR + 0.01 * rng.uniform(size=(batch, d))
    return z, rng.normal(size=d), a, b, c, rng.uniform(0.1, 1.0, size=batch)


def mlp_arrays(seed, batch=5, d=2, width=4, d_out=2):
    """(x, w1, b1, w2, b2) for one network call."""
    rng = np.random.default_rng(seed)
    shapes = [(batch, d), (1 + d, width), (width,), (width, d_out), (d_out,)]
    return [rng.normal(size=s) for s in shapes]


_X, *_WEIGHTS = mlp_arrays(5, batch=3)


def mlp(a):
    """The fused network node as a function of its input alone."""
    return tp.mlp(a, *map(tp.const, _WEIGHTS), 0.3)


def mlp_softplus(a):
    return tp.mlp(a, *map(tp.const, _WEIGHTS), 0.3, softplus_floor=0.05)


def take_rows(a):
    """Indexing on the tape: row 2 taken three times, row 1 never."""
    return a[np.array([2, 0, 2, 2])]


def reference_mlp(theta, layout, net, x, t):
    """Independent numpy evaluation of one two-layer tanh network."""

    def tensor(part):
        sl, shape = layout[f"{net}.{part}"]
        return theta[sl].reshape(shape)

    inp = np.concatenate([np.full((x.shape[0], 1), t), x], axis=1)
    h = np.tanh(inp @ tensor("hidden.w") + tensor("hidden.b"))
    return h @ tensor("out.w") + tensor("out.b")


def numeric_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


class TestTapeOps:
    @pytest.mark.parametrize(
        "op",
        [
            mlp, mlp_softplus, square, lambda a: tp.cmul(a, 1.7), lambda a: tp.cadd(a, 0.3),
            take_rows,
        ],
    )
    def test_unary_ops_against_numeric(self, op):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 2))

        def f(arr):
            return float(ssum(op(tp.const(arr))).value)

        root = ssum(op(leaf := tp.const(x)))
        tp.backward(root)
        assert leaf.grad == pytest.approx(numeric_grad(f, x), abs=1e-8)

    def test_misfit_against_numeric(self):
        z, y, _, _, _, w = loss_term_arrays(1)
        node, rows = tp.misfit(leaf := tp.const(z), y, w, LOSS_SCALE, LOSS_FACTOR)
        assert np.array_equal(rows, np.sum((z - y) ** 2, axis=1))
        tp.backward(node)

        def f(arr):
            return float(tp.misfit(tp.const(arr), y, w, LOSS_SCALE, LOSS_FACTOR)[0].value)

        assert leaf.grad == pytest.approx(numeric_grad(f, z), rel=1e-7, abs=1e-9)

    def test_mismatch_against_numeric_near_the_diffusion_floor(self):
        # 1/c is about 20 here, where the mismatch is steepest in c
        _, _, *arrays, w = loss_term_arrays(2)
        leaves = [tp.const(x) for x in arrays]
        node, rows = tp.mismatch(*leaves, w, LOSS_SCALE, LOSS_FACTOR)
        a, b, c = arrays
        assert np.array_equal(rows, np.sum(((a - b) * (1.0 / c)) ** 2, axis=1))
        tp.backward(node)
        for i, leaf in enumerate(leaves):

            def f(arr, i=i):
                args = [tp.const(x) for x in arrays]
                args[i] = tp.const(arr)
                return float(tp.mismatch(*args, w, LOSS_SCALE, LOSS_FACTOR)[0].value)

            assert leaf.grad == pytest.approx(numeric_grad(f, arrays[i]), rel=1e-7, abs=1e-9)

    def test_matmul_and_bias(self):
        # the fused node's gradient into its input and all four weight
        # tensors, for both heads, against central differences
        arrays = mlp_arrays(1, batch=4, d=2, width=3)
        for floor in (None, 0.05):
            leaves = [tp.const(a) for a in arrays]
            tp.backward(ssum(square(tp.mlp(*leaves, 0.6, floor))))
            for i, leaf in enumerate(leaves):

                def f(arr, i=i):
                    args = [tp.const(a) for a in arrays]
                    args[i] = tp.const(arr)
                    return float(np.sum(tp.mlp(*args, 0.6, floor).value ** 2))

                assert leaf.grad == pytest.approx(numeric_grad(f, arrays[i]), abs=1e-7)

    def test_shared_node_accumulates(self):
        x = tp.const(np.array([2.0]))
        y = tp.add(tp.mul(x, x), x)  # x^2 + x: d/dx = 2x + 1 = 5
        tp.backward(ssum(y))
        assert x.grad == pytest.approx(np.array([5.0]))

    def test_interior_gradients_dropped(self):
        arrays = mlp_arrays(4, batch=3, d=2)
        leaves = [tp.const(a) for a in arrays]
        y = tp.mlp(*leaves, 0.3, 0.05)
        order = tp.backward(ssum(square(y) + y))
        interior = [node for node in order if node.vjp is not None]
        assert len(interior) == 4
        assert all(node.grad is None for node in interior)
        assert all(leaf.grad is not None for leaf in leaves)

    @pytest.mark.parametrize("term", ["misfit", "mismatch"])
    def test_loss_term_matches_unfused_reference(self, term):
        # the same operations in the same order: the value, the row sums and
        # the gradient into every parent are bitwise the chain's
        z, y, a, b, c, w = loss_term_arrays(3, batch=6)
        weights = (LOSS_SCALE * w) * LOSS_FACTOR
        if term == "misfit":
            fused_leaves, unfused_leaves = [tp.const(z)], [tp.const(z)]
            fused = tp.misfit(*fused_leaves, y, w, LOSS_SCALE, LOSS_FACTOR)
            unfused = unfused_misfit(*unfused_leaves, y, weights)
        else:
            fused_leaves = [tp.const(x) for x in (a, b, c)]
            unfused_leaves = [tp.const(x) for x in (a, b, c)]
            fused = tp.mismatch(*fused_leaves, w, LOSS_SCALE, LOSS_FACTOR)
            unfused = unfused_mismatch(*unfused_leaves, weights)
        assert fused[0].value == unfused[0].value
        assert np.array_equal(fused[1], unfused[1].value)
        tp.backward(tp.cmul(fused[0], 1.7))
        tp.backward(tp.cmul(unfused[0], 1.7))
        for leaf, ref in zip(fused_leaves, unfused_leaves):
            assert np.array_equal(leaf.grad, ref.grad)

    @pytest.mark.parametrize("term", ["misfit", "mismatch"])
    def test_loss_term_keeps_only_its_constants(self, term):
        batch, d = 5, 3
        z, y, a, b, c, w = loss_term_arrays(4, batch, d)
        if term == "misfit":
            node, _ = tp.misfit(tp.const(z), y, w, LOSS_SCALE, LOSS_FACTOR)
            kept = d + batch
        else:
            node, _ = tp.mismatch(*map(tp.const, (a, b, c)), w, LOSS_SCALE, LOSS_FACTOR)
            kept = batch
        assert tp.tape_bytes([node]) == 8 * (1 + kept)

    def test_with_time_column(self):
        # only the first-layer row of the time column is nonzero: every
        # output row is the network of t alone, and x gets no gradient
        x, w1, b1, w2, b2 = mlp_arrays(2, batch=2, d=3)
        w1[1:] = 0.0
        xl = tp.const(x)
        y = tp.mlp(xl, *map(tp.const, (w1, b1, w2, b2)), 0.7)
        expected = np.tanh(0.7 * w1[0] + b1) @ w2 + b2
        assert y.value.shape == (2, 2)
        assert y.value == pytest.approx(np.tile(expected, (2, 1)), abs=1e-15)
        tp.backward(ssum(y))
        assert np.all(xl.grad == 0.0)

    def test_operators_with_numpy_operands(self):
        # numpy scalars and arrays on either side still record tape nodes
        rng = np.random.default_rng(2)
        x, c = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        leaf = tp.const(x)
        scaled = np.float64(2.0) * leaf
        shifted = c + leaf
        weighted = leaf * c
        for node in (scaled, shifted, weighted):
            assert isinstance(node, tp.Var)
        assert np.array_equal(scaled.value, 2.0 * x)
        assert np.array_equal(shifted.value, c + x)
        assert np.array_equal(weighted.value, x * c)
        tp.backward(ssum(tp.mul(tp.add(scaled, shifted), weighted)))

        def f(arr):
            return float(np.sum((2.0 * arr + c + arr) * (arr * c)))

        assert leaf.grad == pytest.approx(numeric_grad(f, x), abs=1e-7)

    def test_tape_bytes_positive(self):
        x = tp.const(np.ones((5, 2)))
        order = tp.backward(ssum(square(x)))
        assert tp.tape_bytes(order) >= 5 * 2 * 8 * 2

    @pytest.mark.parametrize("floor", [None, 0.05], ids=["linear", "softplus"])
    def test_mlp_tape_bytes_count_saved_arrays(self, floor):
        # the node keeps its hidden activations and the softplus sigmoid, not
        # its time-augmented input
        batch, d, width = 5, 2, 4
        node = tp.mlp(*map(tp.const, mlp_arrays(3, batch, d, width)), 0.2, floor)
        hidden, out = batch * width, batch * 2
        sig = 0 if floor is None else batch * 2
        assert tp.tape_bytes([node]) == 8 * (out + hidden + sig)

    def test_tape_bytes_count_shared_array_once(self):
        c = np.ones((4, 3))
        x = tp.const(np.ones((4, 3)))
        one, two = tp.cmul(x, c), tp.cmul(x, c)
        assert tp.tape_bytes([one]) == 2 * c.nbytes
        assert tp.tape_bytes([one, two]) == 3 * c.nbytes

    @pytest.mark.parametrize("floor", [None, 0.05], ids=["linear", "softplus"])
    def test_mlp_matches_unfused_reference(self, floor):
        arrays = mlp_arrays(4, batch=6, d=3, width=5, d_out=3)
        fused = [tp.const(a) for a in arrays]
        unfused = [tp.const(a) for a in arrays]
        y = tp.mlp(*fused, 0.4, floor)
        y_ref = unfused_mlp(*unfused, 0.4, floor)
        assert np.array_equal(y.value, y_ref.value)
        weights = np.random.default_rng(9).normal(size=y.value.shape)
        tp.backward(ssum(tp.cmul(y, weights)))
        tp.backward(ssum(tp.cmul(y_ref, weights)))
        for leaf, ref in zip(fused, unfused):
            assert np.max(np.abs(leaf.grad - ref.grad)) <= 1e-13 * np.max(np.abs(ref.grad))

    def test_softplus_head_far_below_zero(self):
        # a head of -800 overflowed 1 / (1 + exp(-head)) in the sigmoid
        x, w1, b1, w2, b2 = mlp_arrays(6)
        w2[:] = 0.0
        b2[:] = -800.0
        leaves = [tp.const(a) for a in (x, w1, b1, w2, b2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = tp.mlp(*leaves, 0.1, softplus_floor=0.05)
            tp.backward(ssum(y))
        assert np.all(y.value == 0.05)
        for leaf in leaves:
            assert np.all(np.isfinite(leaf.grad))
        assert np.all(leaves[4].grad == 0.0)


class TestNetworkFields:
    def test_zero_hidden_weights_return_output_bias(self):
        nets = NetworkFields(d_x=2, width=4)
        theta = np.zeros(nets.n_params)
        theta[nets.layout["prior.out.b"][0]] = [0.3, -0.1]
        x = tp.const(np.random.default_rng(0).normal(size=(5, 2)))
        out = nets.drift_prior(nets.wrap(theta), x, 0.5).value
        assert out == pytest.approx(np.tile([0.3, -0.1], (5, 1)))

    def test_tape_and_numpy_agree(self):
        nets = NetworkFields(d_x=2, width=4)
        theta = nets.init_params(3)
        x = np.random.default_rng(1).normal(size=(6, 2))
        leaves = nets.wrap(theta)
        on_tape = nets.drift_posterior(leaves, tp.const(x), 0.25).value
        plain = reference_mlp(theta, nets.layout, "posterior", x, 0.25)
        assert on_tape == pytest.approx(plain, abs=1e-15)

    def test_one_node_per_call(self):
        nets = NetworkFields(d_x=2, width=4)
        leaves = nets.wrap(nets.init_params(1))
        x = tp.const(np.ones((3, 2)))
        for name, method in (
            ("prior", nets.drift_prior),
            ("posterior", nets.drift_posterior),
            ("diffusion", nets.diffusion_diag),
        ):
            params = [leaves[f"{name}.{p}"] for p in ("hidden.w", "hidden.b", "out.w", "out.b")]
            assert method(leaves, x, 0.5).parents == (x, *params)

    def test_diffusion_positive_with_floor(self):
        nets = NetworkFields(d_x=1, width=4)
        theta = nets.init_params(0)
        g = nets.diffusion_diag(nets.wrap(theta), tp.const(np.array([[0.2], [-3.0]])), 0.1).value
        assert np.all(g >= 0.05)

    def test_parameter_round_trip(self):
        nets = NetworkFields(d_x=3, width=5)
        theta = nets.init_params(9)
        leaves = nets.wrap(theta)
        # gradient collection with no backward pass gives zeros
        assert nets.collect_grad(leaves) == pytest.approx(np.zeros(nets.n_params))
        assert leaves["z0"].value == pytest.approx(theta[nets.layout["z0"][0]])

    @pytest.mark.parametrize("d_x, width", [(1, 8), (3, 5)])
    def test_layout_tiles_the_parameter_vector(self, d_x, width):
        nets = NetworkFields(d_x=d_x, width=width)
        parts = [("hidden.w", (d_x + 1, width)), ("hidden.b", (width,)),
                 ("out.w", (width, d_x)), ("out.b", (d_x,))]
        want = [(f"{net}.{part}", shape) for net in ("prior", "posterior", "diffusion")
                for part, shape in parts] + [("z0", (d_x,))]
        assert [(name, shape) for name, (_, shape) in nets.layout.items()] == want
        stop = 0
        for sl, shape in nets.layout.values():
            assert sl.start == stop and sl.stop - sl.start == math.prod(shape)
            stop = sl.stop
        n = 3 * ((d_x + 1) * width + width + width * d_x + d_x) + d_x
        assert stop == nets.n_params == n

    def test_deterministic_init(self):
        nets = NetworkFields(d_x=2, width=4)
        assert np.array_equal(nets.init_params(5), nets.init_params(5))
