"""Finite-difference verification of every autograd op and graph mechanics."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fnpred.autograd as ag
from fnpred.autograd import Tensor


def fd_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x."""
    g = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(*x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2.0 * eps)
    return g


def check_op(build, x: np.ndarray, rtol: float = 1e-6, atol: float = 1e-8) -> None:
    """build(Tensor) -> scalar Tensor; checks backward against FD."""
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    assert out.data.size == 1, "loss must be scalar"
    out.backward()
    numeric = fd_grad(lambda v: float(build(Tensor(v)).data), x)
    np.testing.assert_allclose(t.grad, numeric, rtol=rtol, atol=atol)


RNG = np.random.default_rng(42)


def weighted_sum(y: Tensor, seed: int = 0) -> Tensor:
    w = np.random.default_rng(seed).normal(size=y.data.shape)
    return ag.sum_(y * Tensor(w))


class TestElementwiseOps:
    def test_add(self):
        other = Tensor(RNG.normal(size=(3, 4)))
        check_op(lambda t: weighted_sum(t + other), RNG.normal(size=(3, 4)))

    def test_add_broadcast(self):
        other = Tensor(RNG.normal(size=(1, 4)))
        check_op(lambda t: weighted_sum(t + other), RNG.normal(size=(3, 4)))
        row = RNG.normal(size=(1, 4))
        t = Tensor(row, requires_grad=True)
        out = ag.sum_(t + Tensor(np.zeros((3, 4))))
        out.backward()
        np.testing.assert_allclose(t.grad, np.full((1, 4), 3.0))

    def test_mul(self):
        other = Tensor(RNG.normal(size=(3, 4)))
        check_op(lambda t: weighted_sum(t * other), RNG.normal(size=(3, 4)))

    def test_power(self):
        check_op(lambda t: weighted_sum(t ** 3.0), RNG.random(size=(3, 3)) + 0.5)

    def test_division_via_power(self):
        denom = Tensor(RNG.random(size=(3, 3)) + 1.0)
        check_op(lambda t: weighted_sum(t / denom), RNG.normal(size=(3, 3)))

    def test_relu_away_from_kink(self):
        x = RNG.normal(size=(4, 4))
        x[np.abs(x) < 0.05] = 0.5
        check_op(lambda t: weighted_sum(ag.relu(t)), x)

    def test_tanh(self):
        check_op(lambda t: weighted_sum(ag.tanh(t)), RNG.normal(size=(3, 4)))

    def test_softplus(self):
        check_op(lambda t: weighted_sum(ag.softplus(t)), RNG.normal(size=(3, 4)))

    def test_sigmoid_softplus_stable_at_extremes(self):
        # softplus' derivative is the sigmoid, so its gradient checks that too
        x = Tensor(np.array([[-1e4, 1e4]]), requires_grad=True)
        p = ag.softplus(x)
        assert np.all(np.isfinite(p.data))
        ag.sum_(p).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0]])
        np.testing.assert_allclose(p.data[0, 1], 1e4, rtol=1e-12)


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self):
        check_op(lambda t: weighted_sum(ag.sum_(t, axis=0, keepdims=True)), RNG.normal(size=(3, 4)))
        check_op(lambda t: weighted_sum(ag.sum_(t, axis=1, keepdims=True)), RNG.normal(size=(3, 4)))

    def test_mean(self):
        check_op(lambda t: weighted_sum(ag.mean(t, axis=0)), RNG.normal(size=(3, 4)))
        check_op(lambda t: ag.mean(t), RNG.normal(size=(3, 4)))

    def test_max_no_ties(self):
        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        check_op(lambda t: weighted_sum(ag.max_(t, axis=0)), x)

    def test_max_ties_split_gradient_equally(self):
        x = Tensor(np.array([[2.0, 1.0], [2.0, 0.0]]), requires_grad=True)
        ag.sum_(ag.max_(x, axis=0)).backward()
        np.testing.assert_allclose(x.grad, np.array([[0.5, 1.0], [0.5, 0.0]]))

    def test_transpose(self):
        check_op(lambda t: weighted_sum(ag.transpose(t)), RNG.normal(size=(3, 5)))

    def test_transpose_with_axes(self):
        check_op(lambda t: weighted_sum(ag.transpose(t, (1, 2, 0))), RNG.normal(size=(2, 3, 4)))

    def test_reshape(self):
        check_op(lambda t: weighted_sum(ag.reshape(t, (2, 6))), RNG.normal(size=(3, 4)))

    def test_concat(self):
        other = Tensor(RNG.normal(size=(2, 4)))
        check_op(lambda t: weighted_sum(ag.concat([t, other], axis=0)), RNG.normal(size=(3, 4)))
        check_op(lambda t: weighted_sum(ag.concat([other[:, :2], t], axis=1)), RNG.normal(size=(2, 3)))

    def test_slice(self):
        check_op(lambda t: weighted_sum(t[1:3, :2]), RNG.normal(size=(4, 3)))

    def test_take_rows_accumulates_repeats(self):
        x = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        ag.sum_(ag.take_rows(x, np.array([0, 0, 2]))).backward()
        np.testing.assert_allclose(x.grad, np.array([[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]))


class TestMatmulAndSoftmax:
    def test_matmul_both_sides(self):
        a = RNG.normal(size=(3, 4))
        b = Tensor(RNG.normal(size=(4, 2)))
        check_op(lambda t: weighted_sum(t @ b), a)
        a_t = Tensor(a)
        check_op(lambda t: weighted_sum(a_t @ t), RNG.normal(size=(4, 2)))

    def test_batched_matmul_both_sides(self):
        a = RNG.normal(size=(2, 3, 4))
        b = Tensor(RNG.normal(size=(2, 4, 5)))
        check_op(lambda t: weighted_sum(t @ b), a)
        a_t = Tensor(a)
        check_op(lambda t: weighted_sum(a_t @ t), RNG.normal(size=(2, 4, 5)))

    def test_matmul_rejects_mismatched_batch_shapes(self):
        a = Tensor(RNG.normal(size=(2, 3, 4)))
        with pytest.raises(ValueError, match="same batch shape"):
            a @ Tensor(RNG.normal(size=(3, 4, 5)))
        with pytest.raises(ValueError, match="same batch shape"):
            a @ Tensor(RNG.normal(size=(4, 5)))

    def test_softmax_rows_sum_to_one(self):
        x = RNG.normal(size=(3, 5))
        out = ag.softmax(Tensor(x), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(3), rtol=1e-12)
        check_op(lambda t: weighted_sum(ag.softmax(t, axis=-1)), x)

    def test_log_softmax(self):
        x = RNG.normal(size=(3, 5))
        out = ag.log_softmax(Tensor(x), axis=-1)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=-1), np.ones(3), rtol=1e-12)
        check_op(lambda t: weighted_sum(ag.log_softmax(t, axis=-1)), x)

    def test_log_softmax_stable_for_large_logits(self):
        out = ag.log_softmax(Tensor(np.array([[1e4, 0.0, -1e4]])), axis=-1)
        assert np.all(np.isfinite(out.data))


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(RNG.normal(size=(3, 4)))
        out = ag.dropout(x, 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_p_zero_is_identity(self):
        x = Tensor(RNG.normal(size=(3, 4)))
        out = ag.dropout(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_training_mask_scales_and_backprops(self):
        x = Tensor(np.ones((20, 20)), requires_grad=True)
        out = ag.dropout(x, 0.25, np.random.default_rng(7), training=True)
        kept = out.data != 0.0
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.75, rtol=1e-12)
        ag.sum_(out).backward()
        np.testing.assert_allclose(x.grad[kept], 1.0 / 0.75, rtol=1e-12)
        np.testing.assert_allclose(x.grad[~kept], 0.0)


class TestGraphMechanics:
    def test_reused_node_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x
        y.backward()
        np.testing.assert_allclose(x.grad, np.array([7.0]))

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([0.5]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = ag.relu(y)
        y.backward()
        np.testing.assert_allclose(x.grad, np.array([1.0]))

    def test_no_grad_leaf_stays_untouched(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        c = Tensor(np.ones((2, 2)))
        ag.sum_(x * c).backward()
        assert c.grad is None or not np.any(c.grad)

    def test_backward_frees_a_dropped_intermediate(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        hidden = ag.tanh(x * 3.0)
        ref = weakref.ref(hidden)
        loss = ag.sum_(hidden * hidden)
        del hidden
        gc.disable()  # the graph must die by reference counting alone
        try:
            assert ref() is not None  # the loss's graph still holds it
            loss.backward()
            assert ref() is None
        finally:
            gc.enable()

    def test_backward_is_one_shot_and_leaves_keep_grads(self):
        x = Tensor(np.array([0.5, -1.5]), requires_grad=True)
        c = Tensor(np.array([2.0, 3.0]))
        y = x * c
        z = ag.tanh(y)
        loss = ag.sum_(z * z)
        loss.backward()
        assert loss._parents == () and loss._backward is None
        for node in (loss, y, z):
            assert node.grad is None and node._parents == ()
        assert c.grad is None
        numeric = fd_grad(lambda v: float(np.sum(np.tanh(v * c.data) ** 2)), x.data)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-6, atol=1e-8)
        assert loss.item() == pytest.approx(float(np.sum(np.tanh([1.0, -4.5]) ** 2)))

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_composite_expression_matches_fd(rows, cols, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(rows, cols))
    w = Tensor(gen.normal(size=(cols, 3)))
    t = Tensor(x.copy(), requires_grad=True)
    const = np.random.default_rng(seed + 2).normal(size=(rows, 3))

    def loss(v: np.ndarray) -> float:
        h = np.tanh(v @ w.data)
        e = np.exp(h - h.max(axis=-1, keepdims=True))
        sm = e / e.sum(axis=-1, keepdims=True)
        return float((sm * const).sum() + (v * v).mean())

    out = ag.sum_(ag.softmax(ag.tanh(t @ w), axis=-1) * Tensor(const)) + ag.mean(t * t)
    out.backward()
    np.testing.assert_allclose(t.grad, fd_grad(loss, x), rtol=1e-5, atol=1e-7)
