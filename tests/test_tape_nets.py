"""Reverse-mode tape primitives and the network field evaluators."""

import numpy as np
import pytest

from sdecub import NetworkFields
from sdecub import tape as tp


def reference_mlp(theta, net, x, t):
    """Independent numpy evaluation of one two-layer tanh network."""
    inp = np.concatenate([np.full((x.shape[0], 1), t), x], axis=1)
    w1 = theta[net.hidden.w_slice].reshape(net.hidden.shape)
    h = np.tanh(inp @ w1 + theta[net.hidden.b_slice])
    w2 = theta[net.out.w_slice].reshape(net.out.shape)
    return h @ w2 + theta[net.out.b_slice]


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
        [tp.tanh, tp.softplus, tp.square, lambda a: tp.cmul(a, 1.7), lambda a: tp.cadd(a, 0.3)],
    )
    def test_unary_ops_against_numeric(self, op):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 2))

        def f(arr):
            return float(tp.ssum(op(tp.const(arr))).value)

        root = tp.ssum(op(leaf := tp.const(x)))
        tp.backward(root)
        assert leaf.grad == pytest.approx(numeric_grad(f, x), abs=1e-8)

    def test_reciprocal(self):
        x = np.array([[0.5, 2.0]])
        leaf = tp.const(x)
        root = tp.ssum(tp.reciprocal(leaf))
        tp.backward(root)
        assert leaf.grad == pytest.approx(-1.0 / x**2)

    def test_matmul_and_bias(self):
        rng = np.random.default_rng(1)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
        xl, wl, bl = tp.const(x), tp.const(w), tp.const(b)
        root = tp.ssum(tp.square(tp.add_row(tp.matmul(xl, wl), bl)))
        tp.backward(root)

        def f_w(arr):
            return float(np.sum((x @ arr + b) ** 2))

        def f_b(arr):
            return float(np.sum((x @ w + arr) ** 2))

        assert wl.grad == pytest.approx(numeric_grad(f_w, w), abs=1e-7)
        assert bl.grad == pytest.approx(numeric_grad(f_b, b), abs=1e-7)

    def test_shared_node_accumulates(self):
        x = tp.const(np.array([2.0]))
        y = tp.add(tp.mul(x, x), x)  # x^2 + x: d/dx = 2x + 1 = 5
        tp.backward(tp.ssum(y))
        assert x.grad == pytest.approx(np.array([5.0]))

    def test_wsum_weights(self):
        v = tp.const(np.array([1.0, 2.0, 3.0]))
        w = np.array([0.2, 0.3, 0.5])
        root = tp.wsum(v, w)
        assert float(root.value) == pytest.approx(2.3)
        tp.backward(root)
        assert v.grad == pytest.approx(w)

    def test_with_time_column(self):
        x = tp.const(np.ones((2, 3)))
        y = tp.with_time(x, 0.7)
        assert y.value.shape == (2, 4)
        assert np.all(y.value[:, 0] == 0.7)
        tp.backward(tp.ssum(y))
        assert x.grad == pytest.approx(np.ones((2, 3)))

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
        tp.backward(tp.ssum(tp.mul(tp.add(scaled, shifted), weighted)))

        def f(arr):
            return float(np.sum((2.0 * arr + c + arr) * (arr * c)))

        assert leaf.grad == pytest.approx(numeric_grad(f, x), abs=1e-7)

    def test_tape_bytes_positive(self):
        x = tp.const(np.ones((5, 2)))
        order = tp.backward(tp.ssum(tp.tanh(x)))
        assert tp.tape_bytes(order) >= 5 * 2 * 8 * 2


class TestNetworkFields:
    def test_zero_hidden_weights_return_output_bias(self):
        nets = NetworkFields(d_x=2, width=4)
        theta = np.zeros(nets.n_params)
        theta[nets.prior.out.b_slice] = [0.3, -0.1]
        x = tp.const(np.random.default_rng(0).normal(size=(5, 2)))
        out = nets.drift_prior(nets.wrap(theta), x, 0.5).value
        assert out == pytest.approx(np.tile([0.3, -0.1], (5, 1)))

    def test_tape_and_numpy_agree(self):
        nets = NetworkFields(d_x=2, width=4)
        theta = nets.init_params(3)
        x = np.random.default_rng(1).normal(size=(6, 2))
        leaves = nets.wrap(theta)
        on_tape = nets.drift_posterior(leaves, tp.const(x), 0.25).value
        plain = reference_mlp(theta, nets.posterior, x, 0.25)
        assert on_tape == pytest.approx(plain, abs=1e-15)

    def test_diffusion_positive_with_floor(self):
        nets = NetworkFields(d_x=1, width=4)
        theta = nets.init_params(0)
        g = nets.diffusion_diag(nets.wrap(theta), tp.const(np.array([[0.2], [-3.0]])), 0.1).value
        assert np.all(g >= 0.05)

    def test_zero_diffusion_flag(self):
        nets = NetworkFields(d_x=1, width=4, zero_diffusion=True)
        theta = nets.init_params(0)
        g = nets.diffusion_diag(nets.wrap(theta), tp.const(np.ones((3, 1))), 0.0).value
        assert g.shape == (3, 1)
        assert np.all(g == 0.0)

    def test_parameter_round_trip(self):
        nets = NetworkFields(d_x=3, width=5)
        theta = nets.init_params(9)
        leaves = nets.wrap(theta)
        # gradient collection with no backward pass gives zeros
        assert nets.collect_grad(leaves) == pytest.approx(np.zeros(nets.n_params))
        assert leaves["z0"].value == pytest.approx(theta[nets.z0_slice])

    def test_deterministic_init(self):
        nets = NetworkFields(d_x=2, width=4)
        assert np.array_equal(nets.init_params(5), nets.init_params(5))
