"""Tests for the autodiff engine: forward fixtures, gradient checks, tape contracts.

Every analytic gradient is checked against a central finite-difference oracle
computed in float64. The oracle re-evaluates the forward expression only; it
never touches the backward rules it is checking.
"""

import math
import weakref

import numpy as np
import pytest

import roletune.tensor as rt
from roletune.data import visibility_mask
from roletune.errors import ShapeError
from roletune.tensor import Tape, Tensor
from roletune.training import PackedBatch, live_pairs

import _reference as ref


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def numeric_grads(build, params):
    """Central-difference gradients of a scalar expression, in float64.

    build(*tensors) -> scalar Tensor; params: list of float64 numpy arrays.
    Perturbation step scales with the entry magnitude: h = 1e-5 * (1 + |a|).
    """
    def eval_loss():
        return build(*[Tensor(p) for p in params]).item()

    grads = []
    for a in params:
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = a[ix]
            h = 1e-5 * (1.0 + abs(orig))
            a[ix] = orig + h
            fp = eval_loss()
            a[ix] = orig - h
            fm = eval_loss()
            a[ix] = orig
            g[ix] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def analytic_grads(build, params, dtype):
    """Backward-pass gradients for the same expression at the given dtype."""
    tensors = [Tensor(p.astype(dtype), requires_grad=True) for p in params]
    with Tape() as tape:
        loss = build(*tensors)
    grad_map = tape.backward(loss)
    return [grad_map[t] for t in tensors]


def max_rel_err(analytic, numeric):
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return float(np.max(np.abs(a - n) / (np.abs(a) + np.abs(n) + 1e-6)))


def assert_grads_match(build, params, dtype=np.float64, tol=1e-4):
    numeric = numeric_grads(build, [p.copy() for p in params])
    analytic = analytic_grads(build, params, dtype)
    for i, (g_a, g_n) in enumerate(zip(analytic, numeric)):
        assert g_a.shape == g_n.shape, f"param {i}: grad shape {g_a.shape} != {g_n.shape}"
        err = max_rel_err(g_a, g_n)
        assert err < tol, f"param {i}: relative gradient error {err:.3e} >= {tol}"


# ---------------------------------------------------------------------------
# Tensor basics
# ---------------------------------------------------------------------------

class TestTensorBasics:
    def test_float_dtypes_preserved(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32

    def test_non_float_input_becomes_float32(self):
        t = Tensor(np.arange(4))
        assert t.dtype == np.float32

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 0)))

    def test_detach_shares_data_and_drops_grad_flag(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert d.data is t.data
        assert not d.requires_grad

    def test_item_on_scalar(self):
        assert Tensor(np.asarray(2.5)).item() == 2.5

    def test_division_by_tensor_rejected(self):
        a = Tensor(np.ones(2))
        with pytest.raises(TypeError):
            a / a


# ---------------------------------------------------------------------------
# elementwise ops and broadcasting rules
# ---------------------------------------------------------------------------

class TestElementwise:
    def test_add_sub_mul_values(self):
        a = Tensor(np.array([1.0, 2.0, 3.0]))
        b = Tensor(np.array([4.0, 5.0, 6.0]))
        np.testing.assert_array_equal((a + b).data, [5.0, 7.0, 9.0])
        np.testing.assert_array_equal((a - b).data, [-3.0, -3.0, -3.0])
        np.testing.assert_array_equal((a * b).data, [4.0, 10.0, 18.0])
        np.testing.assert_array_equal((-a).data, [-1.0, -2.0, -3.0])

    def test_suffix_broadcast_add(self):
        a = Tensor(np.ones((2, 3, 4)))
        b = Tensor(np.arange(4, dtype=np.float64))
        out = (a + b).data
        np.testing.assert_array_equal(out[1, 2], [1.0, 2.0, 3.0, 4.0])

    def test_non_suffix_broadcast_rejected(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((2,)))  # matches leading, not trailing, axis
        with pytest.raises(ShapeError):
            a + b

    def test_size_one_stretching_rejected(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((2, 1)))
        with pytest.raises(ShapeError):
            a * b

    def test_mixed_dtype_rejected(self):
        a = Tensor(np.ones(2, dtype=np.float32))
        b = Tensor(np.ones(2, dtype=np.float64))
        with pytest.raises(TypeError):
            a + b

    def test_broadcast_backward_sums_leading_axes(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal(4)
        assert_grads_match(lambda t, u: (t * u).sum(), [x, b])

    def test_mul_computes_no_gradient_for_an_operand_without_grad(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        gate = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with Tape() as tape:
            loss = (x * gate).sum()
        g_x, g_gate = tape.entries[0].backward_fn(np.ones((2, 2)))
        assert g_gate is None
        np.testing.assert_array_equal(g_x, gate.data)
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads[x], gate.data)

    def test_scalar_division(self):
        a = Tensor(np.array([2.0, 4.0]))
        np.testing.assert_allclose((a / 2.0).data, [1.0, 2.0])


class TestSilu:
    def test_values(self):
        x = np.array([0.0, 1.0, -1.0])
        out = rt.silu(Tensor(x)).data
        expected = x / (1.0 + np.exp(-x))
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5))
        assert_grads_match(lambda t: rt.silu(t).sum(), [x])


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 6))
        w = rng.standard_normal((2, 3, 2))
        assert_grads_match(lambda t: (rt.reshape(t, (2, 3, 2)) * Tensor(w.astype(t.dtype))).sum(), [x])

    def test_swapaxes_values_and_gradient(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 4))
        out = rt.swapaxes(Tensor(x), 1, 2)
        np.testing.assert_array_equal(out.data, x.swapaxes(1, 2))
        w = rng.standard_normal((2, 4, 3))
        assert_grads_match(lambda t: (rt.swapaxes(t, 1, 2) * Tensor(w.astype(t.dtype))).sum(), [x])

    def test_concat_values_and_gradient(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 2))
        out = rt.concat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=1))
        w = rng.standard_normal((2, 5))

        def build(ta, tb):
            return (rt.concat([ta, tb], axis=1) * Tensor(w.astype(ta.dtype))).sum()

        assert_grads_match(build, [a, b])

    def test_concat_empty_list_rejected(self):
        with pytest.raises(ShapeError):
            rt.concat([], axis=0)

    def test_sum_and_mean_gradients(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4))
        assert_grads_match(lambda t: t.sum(), [x])
        assert_grads_match(lambda t: t.mean(), [x])


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

class TestMatmul:
    def test_two_by_two_times_column(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[5.0], [6.0]]))
        np.testing.assert_array_equal((a @ b).data, [[17.0], [39.0]])

    def test_identity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 3))
        out = Tensor(x) @ Tensor(np.eye(3))
        np.testing.assert_allclose(out.data, x, rtol=1e-12)

    def test_inner_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))

    def test_batch_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3, 4))) @ Tensor(np.ones((3, 4, 5)))

    def test_vector_operand_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones(3))

    def test_gradient_2d(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        assert_grads_match(lambda ta, tb: (ta @ tb).sum(), [a, b])

    def test_gradient_batched(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        assert_grads_match(lambda ta, tb: (ta @ tb).sum(), [a, b])

    def test_computes_no_gradient_for_a_frozen_operand(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)))
        g = rng.standard_normal((3, 2))
        with Tape() as tape:
            loss = ((a @ w) * Tensor(g)).sum()
        g_a, g_w = tape.entries[0].backward_fn(g)
        assert g_w is None
        np.testing.assert_array_equal(g_a, g @ w.data.T)
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads[a], g @ w.data.T)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def chained_linear(x: Tensor, w: Tensor) -> Tensor:
    """x @ W^T as the reshape, swapaxes, matmul, reshape chain of tape ops."""
    lead = x.shape[:-1]
    flat = rt.reshape(x, (int(np.prod(lead)), x.shape[-1]))
    return rt.reshape(rt.matmul(flat, rt.swapaxes(w, 0, 1)), lead + (w.shape[0],))


class TestLinear:
    def test_values(self):
        x = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])
        w = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, -2.0]])
        out = rt.linear(Tensor(x), Tensor(w))
        assert out.shape == (2, 1, 3)
        np.testing.assert_array_equal(out.data, x @ w.T)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            rt.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        with pytest.raises(ShapeError):
            rt.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 4, 3))))

    def test_gradient(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((5, 4))
        c = rng.standard_normal((2, 3, 5))
        assert_grads_match(lambda tx, tw: (rt.linear(tx, tw) * Tensor(c)).sum(), [x, w])

    def test_computes_no_gradient_for_a_frozen_operand(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 4)))
        g = rng.standard_normal((3, 2))
        with Tape() as tape:
            rt.linear(x, w)
        g_x, g_w = tape.entries[0].backward_fn(g)
        assert g_w is None
        np.testing.assert_array_equal(g_x, g @ w.data)
        with Tape() as tape:
            rt.linear(w, x.detach())
        assert tape.entries == []

    @pytest.mark.parametrize("x_shape,w_shape", [
        ((4, 204, 64), (64, 64)), ((4, 204, 64), (8, 64)), ((4, 204, 64), (512, 64)),
        ((1, 1, 64), (256, 64)),
    ])
    def test_equals_the_op_chain_bit_for_bit(self, x_shape, w_shape):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(x_shape).astype(np.float32)
        w = rng.standard_normal(w_shape).astype(np.float32)
        g = rng.standard_normal(x_shape[:-1] + w_shape[:1]).astype(np.float32)
        results = []
        for op in (rt.linear, chained_linear):
            tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            with Tape() as tape:
                out = op(tx, tw)
                loss = (out * Tensor(g)).sum()
            grads = tape.backward(loss)
            results.append([out.data, grads[tx], grads[tw]])
        for mine, chain in zip(*results):
            assert mine.shape == chain.shape and mine.tobytes() == chain.tobytes()
        # a frozen weight takes the cached transpose: same bytes again
        frozen = Tensor(w)
        for _ in range(2):
            assert rt.linear(Tensor(x), frozen).data.tobytes() == results[0][0].tobytes()

    def test_frozen_weight_is_transposed_once_per_array(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((2, 4)))
        rt.linear(x, w)
        cached = w._transposed
        rt.linear(x, w)
        assert w._transposed is cached
        # new data, new transpose
        w.data = rng.standard_normal((2, 4))
        np.testing.assert_array_equal(rt.linear(x, w).data, x.data @ w.data.T)
        assert w._transposed is not cached

    def test_trainable_weight_is_transposed_per_call(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        rt.linear(x, w)
        w.data[0, 0] += 1.0  # an optimizer may write a trainable weight in place
        np.testing.assert_array_equal(rt.linear(x, w).data, x.data @ w.data.T)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

class TestSoftmax:
    def test_uniform_logits(self):
        out = rt.softmax(Tensor(np.zeros(4))).data
        np.testing.assert_allclose(out, [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_log_three_fixture(self):
        out = rt.softmax(Tensor(np.array([0.0, math.log(3.0)]))).data
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 5))
        a = rt.softmax(Tensor(x)).data
        b = rt.softmax(Tensor(x + 123.456)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        for dtype, atol in ((np.float64, 1e-12), (np.float32, 1e-6)):
            x = rng.standard_normal((4, 7)).astype(dtype) * 10
            out = rt.softmax(Tensor(x)).data
            np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), atol=atol)

    def test_large_negative_mask_value_gives_exact_zero(self):
        x = np.array([0.0, rt.MASK_NEG], dtype=np.float32)
        out = rt.softmax(Tensor(x)).data
        assert out[1] == 0.0
        assert out[0] == 1.0

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            rt.softmax(Tensor(np.array([0.0, np.nan])))
        with pytest.raises(ValueError):
            rt.softmax(Tensor(np.array([0.0, np.inf])))

    def test_invalid_axis_rejected(self):
        with pytest.raises(ShapeError):
            rt.softmax(Tensor(np.zeros((2, 3))), axis=2)

    def test_gradient(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 6))
        w = rng.standard_normal((2, 6))
        assert_grads_match(lambda t: (rt.softmax(t) * Tensor(w.astype(t.dtype))).sum(), [x])

    def test_gradient_middle_axis(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((2, 3, 4))
        assert_grads_match(lambda t: (rt.softmax(t, axis=1) * Tensor(w.astype(t.dtype))).sum(), [x])


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

class TestAttention:
    B, H, S, T, D = 2, 2, 3, 5, 4

    def operands(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((self.B, self.H, self.S, self.D))
        k = rng.standard_normal((self.B, self.H, self.T, self.D))
        v = rng.standard_normal((self.B, self.H, self.T, self.D))
        visible = rng.random((self.B, self.S, self.T)) < 0.7
        visible[:, :, 0] = True
        mask = np.where(visible, 0.0, rt.MASK_NEG)
        w = rng.standard_normal((self.B, self.H, self.S, self.D))
        return q, k, v, mask, w

    def test_gradient(self):
        q, k, v, mask, w = self.operands(20)
        assert_grads_match(
            lambda tq, tk, tv: (rt.attention(tq, tk, tv, mask, 0.5) * Tensor(w)).sum(),
            [q, k, v])

    def test_live_pairs_match_two_branch_oracle(self):
        # dead pairs read k and v as if detached: scores and mixing each split
        # into a live branch and a detached branch built from existing ops
        q, k, v, mask, w = self.operands(21)
        live = np.random.default_rng(22).random((self.B, self.S, self.T)) < 0.5
        full = (self.B, self.H, self.S, self.T)
        g = Tensor(np.broadcast_to(live[:, None], full).astype(np.float64))
        not_g = Tensor(1.0 - g.data)
        mask_t = Tensor(np.broadcast_to(mask[:, None], full).copy())

        def oracle(tq, tk, tv):
            kd, vd = tk.detach(), tv.detach()
            scores = ((tq @ rt.swapaxes(tk, 2, 3)) * g + (tq @ rt.swapaxes(kd, 2, 3)) * not_g)
            probs = rt.softmax(scores * 0.5 + mask_t, axis=-1)
            out = (probs * g) @ tv + (probs * not_g) @ vd
            return (out * Tensor(w)).sum()

        def fused(tq, tk, tv):
            return (rt.attention(tq, tk, tv, mask, 0.5, live=live) * Tensor(w)).sum()

        expected = analytic_grads(oracle, [q, k, v], np.float64)
        got = analytic_grads(fused, [q, k, v], np.float64)
        assert fused(*map(Tensor, (q, k, v))).item() == pytest.approx(
            oracle(*map(Tensor, (q, k, v))).item(), abs=1e-12)
        for name, e, a in zip("qkv", expected, got):
            np.testing.assert_allclose(a, e, atol=1e-12, err_msg=name)

    def oracle_grads(self, q, k, v, mask, live, w):
        """q, k, v gradients of (attention * w).sum() by the two-branch
        oracle of test_live_pairs_match_two_branch_oracle."""
        full = (self.B, self.H, self.S, self.T)
        g = Tensor(np.broadcast_to(live[:, None], full).astype(np.float64))
        not_g = Tensor(1.0 - g.data)
        mask_t = Tensor(np.broadcast_to(mask[:, None], full).copy())

        def oracle(tq, tk, tv):
            kd, vd = tk.detach(), tv.detach()
            scores = ((tq @ rt.swapaxes(tk, 2, 3)) * g + (tq @ rt.swapaxes(kd, 2, 3)) * not_g)
            probs = rt.softmax(scores * 0.5 + mask_t, axis=-1)
            out = (probs * g) @ tv + (probs * not_g) @ vd
            return (out * Tensor(w)).sum()

        return analytic_grads(oracle, [q, k, v], np.float64)

    def test_frozen_key_gets_no_gradient(self):
        # layer 0's keys read the frozen embedding through frozen weights
        q, k, v, mask, w = self.operands(25)
        live = np.random.default_rng(26).random((self.B, self.S, self.T)) < 0.5
        expected_q, _, expected_v = self.oracle_grads(q, k, v, mask, live, w)
        with Tape() as tape:
            rt.attention(Tensor(q, requires_grad=True), Tensor(k),
                         Tensor(v, requires_grad=True), mask, 0.5, live=live)
        g_q, g_k, g_v = tape.entries[0].backward_fn(w)
        assert g_k is None
        np.testing.assert_allclose(g_q, expected_q, atol=1e-12)
        np.testing.assert_allclose(g_v, expected_v, atol=1e-12)

    def test_writes_into_no_input(self):
        q, k, v, mask, w = self.operands(27)
        live = np.random.default_rng(28).random((self.B, self.S, self.T)) < 0.5
        inputs = (q, k, v, mask, live)
        before = [a.copy() for a in inputs]
        for a in inputs:
            a.flags.writeable = False
        tensors = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        assert all(t.data is a for t, a in zip(tensors, inputs))
        with Tape() as tape:
            loss = (rt.attention(*tensors, mask, 0.5, live=live) * Tensor(w)).sum()
        grads = tape.backward(loss)
        assert all(t in grads for t in tensors)
        for a, b in zip(inputs, before):
            assert a.tobytes() == b.tobytes()

    def test_fully_masked_row_stays_finite(self):
        q, k, v, mask, w = self.operands(23)
        mask[0, 1, :] = rt.MASK_NEG
        tensors = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        with Tape() as tape:
            out = rt.attention(*tensors, mask, 0.5)
            loss = (out * Tensor(w)).sum()
        grads = tape.backward(loss)
        assert np.isfinite(out.data).all()
        assert all(np.isfinite(grads[t]).all() for t in tensors)

    def test_non_finite_scores_rejected(self):
        q, k, v, mask, _ = self.operands(24)
        q[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            rt.attention(Tensor(q), Tensor(k), Tensor(v), mask, 0.5)

    # grids of more than rt.ATTENTION_TILE query rows, against the untiled
    # formula of `_reference.attention`

    def tile_operands(self, seed, b, s, t):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((b, self.H, s, self.D))
        k = rng.standard_normal((b, self.H, t, self.D))
        v = rng.standard_normal((b, self.H, t, self.D))
        g = rng.standard_normal((b, self.H, s, self.D))
        return q, k, v, g

    def assert_matches_untiled(self, q, k, v, g, mask, live=None, frozen_k=False, atol=1e-12):
        expected = ref.attention(q, k, v, mask, 0.5, live, g)
        tensors = (Tensor(q, requires_grad=True), Tensor(k, requires_grad=not frozen_k),
                   Tensor(v, requires_grad=True))
        with Tape() as tape:
            out = rt.attention(*tensors, mask, 0.5, live=live)
        got = (out.data, *tape.entries[0].backward_fn(g))
        for name, e, a in zip(("out", "q", "k", "v"), expected, got):
            if name == "k" and frozen_k:
                assert a is None
                continue
            assert a.shape == e.shape, name
            np.testing.assert_allclose(a, e, rtol=0, atol=atol, err_msg=name)
        return got

    @staticmethod
    def packed(width=150):
        """Two rows: an 11-token instruction, then utterances of 5-16 tokens;
        the second row is padded after 120 valid tokens."""
        rng = np.random.default_rng(30)
        segments = np.zeros((2, width), dtype=np.int64)
        for row in segments:
            col, seg = 11, 1
            while col < width:
                n = int(rng.integers(5, 17))
                row[col:col + n] = seg
                col, seg = col + n, seg + 1
        validity = np.ones((2, width), dtype=bool)
        validity[1, 120:] = False
        tokens = np.zeros((2, width), dtype=np.int64)
        return PackedBatch(tokens, validity, validity.copy(), segments)

    @pytest.mark.parametrize("strict_cross_round", [False, True])
    @pytest.mark.parametrize("user_sees_instruction", [True, False])
    def test_round_masks_match_untiled(self, strict_cross_round, user_sees_instruction):
        packed = self.packed()
        mask = visibility_mask(packed.segments, packed.validity, packed.is_agent,
                               packed.segments, packed.validity, 0,
                               strict_cross_round, user_sees_instruction).astype(np.float64)
        live = live_pairs(packed)
        q, k, v, g = self.tile_operands(31, 2, 150, 150)
        self.assert_matches_untiled(q, k, v, g, mask, live)
        self.assert_matches_untiled(q, k, v, g, mask, live, frozen_k=True)
        self.assert_matches_untiled(q, k, v, g, mask)

    def test_causal_tiles_drop_the_upper_triangle(self):
        packed = self.packed()
        mask = visibility_mask(packed.segments, packed.validity, packed.is_agent,
                               packed.segments, packed.validity)
        assert rt._tile_extents(mask, 150, 150) == [(0, 64, 64), (64, 128, 128), (128, 150, 150)]

    def test_decode_shaped_grid_matches_untiled(self):
        # 90 new queries after 110 stored slots
        packed = self.packed(200)
        stored = 110
        new = slice(stored, None)
        mask = visibility_mask(packed.segments[:, new], packed.validity[:, new],
                               packed.is_agent[:, new], packed.segments, packed.validity,
                               stored).astype(np.float64)
        q, k, v, g = self.tile_operands(32, 2, 90, 200)
        assert [e for _, _, e in rt._tile_extents(mask, 90, 200)] == [174, 200]
        self.assert_matches_untiled(q, k, v, g, mask)

    def test_non_causal_mask_matches_untiled(self):
        rng = np.random.default_rng(33)
        visible = rng.random((2, 150, 150)) < 0.3
        visible[:, np.arange(150), np.arange(150)] = True
        visible[:, :64, 64:] = False
        visible[1, 10, 100] = True  # a key past the diagonal decides tile 0's extent
        mask = np.where(visible, 0.0, rt.MASK_NEG)
        live = rng.random((2, 150, 150)) < 0.5
        assert rt._tile_extents(mask, 150, 150)[0] == (0, 64, 101)
        q, k, v, g = self.tile_operands(34, 2, 150, 150)
        self.assert_matches_untiled(q, k, v, g, mask, live)

    def test_fully_masked_row_keeps_every_key(self):
        visible = np.tril(np.ones((150, 150), dtype=bool))
        mask = np.where(np.stack([visible, visible]), 0.0, rt.MASK_NEG)
        mask[1, 70, :] = rt.MASK_NEG
        assert [e for _, _, e in rt._tile_extents(mask, 150, 150)] == [64, 150, 150]
        q, k, v, g = self.tile_operands(35, 2, 150, 150)
        out = self.assert_matches_untiled(q, k, v, g, mask)[0]
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_tile_equals_the_untiled_formula_bit_for_bit(self, dtype):
        rng = np.random.default_rng(36)
        visible = rng.random((2, 64, 100)) < 0.6
        visible[:, :, 0] = True
        mask = np.where(visible, np.float32(0.0), np.float32(rt.MASK_NEG))
        live = rng.random((2, 64, 100)) < 0.5
        q, k, v, g = (a.astype(dtype) for a in self.tile_operands(37, 2, 64, 100))
        expected = ref.attention(q, k, v, mask, 0.5, live, g)
        got = self.assert_matches_untiled(q, k, v, g, mask, live, atol=0)
        for e, a in zip(expected, got):
            assert e.tobytes() == a.tobytes()


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        logits = np.full((1, 4), -50.0)
        logits[0, 2] = 50.0
        loss, n = rt.cross_entropy(Tensor(logits), np.array([2]))
        assert n == 1
        assert loss.item() < 1e-8

    def test_uniform_logits_give_log_vocab(self):
        loss, n = rt.cross_entropy(Tensor(np.zeros((3, 8))), np.array([0, 3, 7]))
        assert n == 3
        np.testing.assert_allclose(loss.item(), math.log(8.0), rtol=1e-12)

    def test_mask_selects_positions(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((1, 6, 5))
        targets = rng.integers(0, 5, size=(1, 6))
        mask = np.array([[1, 1, 1, 0, 0, 0]])
        loss, n = rt.cross_entropy(Tensor(logits), targets, mask)
        assert n == 3
        # oracle: mean NLL over the three scored positions only
        expected = 0.0
        for j in range(3):
            row = logits[0, j]
            expected += np.log(np.exp(row).sum()) - row[targets[0, j]]
        np.testing.assert_allclose(loss.item(), expected / 3, rtol=1e-10)

    def test_masked_out_invalid_target_ignored(self):
        logits = np.zeros((1, 2, 4))
        targets = np.array([[1, 99]])  # 99 out of vocab but masked out
        mask = np.array([[1, 0]])
        loss, n = rt.cross_entropy(Tensor(logits), targets, mask)
        assert n == 1
        np.testing.assert_allclose(loss.item(), math.log(4.0), rtol=1e-12)

    def test_masked_in_invalid_target_rejected(self):
        with pytest.raises(IndexError):
            rt.cross_entropy(Tensor(np.zeros((1, 4))), np.array([4]))
        with pytest.raises(IndexError):
            rt.cross_entropy(Tensor(np.zeros((1, 4))), np.array([-1]))

    def test_all_masked_returns_zero_and_count_zero(self):
        loss, n = rt.cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 1]), np.zeros(2))
        assert n == 0
        assert loss.item() == 0.0
        assert not loss.requires_grad

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            rt.cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 1, 2]))
        with pytest.raises(ShapeError):
            rt.cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 1]), np.ones(3))

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1000.0, -1000.0, 0.0]])
        loss, _ = rt.cross_entropy(Tensor(logits), np.array([1]))
        assert np.isfinite(loss.item())

    def test_gradient_with_mask(self):
        rng = np.random.default_rng(14)
        logits = rng.standard_normal((2, 4, 6))
        targets = rng.integers(0, 6, size=(2, 4))
        mask = rng.integers(0, 2, size=(2, 4))
        mask[0, 0] = 1  # keep at least one scored position
        assert_grads_match(lambda t: rt.cross_entropy(t, targets, mask)[0], [logits])

    def test_gradient_rows_sum_to_zero(self):
        # softmax minus one-hot sums to zero along the vocab axis
        rng = np.random.default_rng(15)
        logits = rng.standard_normal((3, 5))
        [g] = analytic_grads(lambda t: rt.cross_entropy(t, np.array([0, 2, 4]))[0], [logits], np.float64)
        np.testing.assert_allclose(g.sum(axis=-1), np.zeros(3), atol=1e-12)


class TestCrossEntropyMasks:
    """Several masks over one logits tensor against one call per mask."""

    def operands(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((2, 5, 7)).astype(np.float32)
        targets = rng.integers(0, 7, size=(2, 5))
        first = rng.random((2, 5)) < 0.5
        first[0, 0] = True
        second = ~first & (rng.random((2, 5)) < 0.8)
        second[1, 4] = True
        return logits, targets, first, second

    def losses_and_gradient(self, logits, targets, masks, joint, weights):
        x = Tensor(logits, requires_grad=True)
        with Tape() as tape:
            if joint:
                pairs = rt.cross_entropy(x, targets, *masks)
            else:
                pairs = [rt.cross_entropy(x, targets, m) for m in masks]
            total = pairs[0][0] * weights[0]
            for (loss, _), weight in zip(pairs[1:], weights[1:]):
                if weight:
                    total = total + loss * weight
        grads = tape.backward(total)
        return [(loss.data.tobytes(), loss.requires_grad, n) for loss, n in pairs], grads[x].tobytes()

    def test_two_masks_equal_two_calls_bit_for_bit(self):
        logits, targets, first, second = self.operands(40)
        masks = (first, second)
        assert (self.losses_and_gradient(logits, targets, masks, True, (1.0, 0.5))
                == self.losses_and_gradient(logits, targets, masks, False, (1.0, 0.5)))

    def test_empty_mask_gives_an_untracked_zero(self):
        logits, targets, first, _ = self.operands(41)
        masks = (first, np.zeros_like(first))
        joint = self.losses_and_gradient(logits, targets, masks, True, (1.0, 0.5))
        assert joint == self.losses_and_gradient(logits, targets, masks, False, (1.0, 0.5))
        zero, tracked, n = joint[0][1]
        assert n == 0 and not tracked
        assert zero == np.zeros((), dtype=np.float32).tobytes()

    def test_backprop_through_the_first_loss_only(self):
        # the beta = 0 path: the second loss is computed but never reaches the total
        logits, targets, first, second = self.operands(42)
        masks = (first, second)
        assert (self.losses_and_gradient(logits, targets, masks, True, (1.0, 0.0))
                == self.losses_and_gradient(logits, targets, masks, False, (1.0, 0.0)))

    def test_out_of_vocab_target_under_either_mask_rejected(self):
        logits, targets, first, second = self.operands(43)
        targets[0, 0] = 7  # scored by `first` only
        with pytest.raises(IndexError):
            rt.cross_entropy(Tensor(logits), targets, first, second)
        with pytest.raises(IndexError):
            rt.cross_entropy(Tensor(logits), targets, second, first)
        rt.cross_entropy(Tensor(logits), targets, second, second)


# ---------------------------------------------------------------------------
# embedding / rms_norm / rotary positions
# ---------------------------------------------------------------------------

class TestEmbedding:
    def test_gather_values(self):
        table = np.arange(12, dtype=np.float64).reshape(4, 3)
        out = rt.embedding(Tensor(table), np.array([[1, 3], [0, 0]]))
        np.testing.assert_array_equal(out.data[0, 1], [9.0, 10.0, 11.0])
        np.testing.assert_array_equal(out.data[1, 0], [0.0, 1.0, 2.0])

    def test_repeated_ids_accumulate_gradient(self):
        table = np.zeros((4, 3))
        ids = np.array([2, 2, 2])
        [g] = analytic_grads(lambda t: rt.embedding(t, ids).sum(), [table], np.float64)
        np.testing.assert_array_equal(g[2], [3.0, 3.0, 3.0])
        np.testing.assert_array_equal(g[0], [0.0, 0.0, 0.0])

    def test_gradient_matches_oracle(self):
        rng = np.random.default_rng(16)
        table = rng.standard_normal((5, 4))
        ids = np.array([[0, 4, 2], [2, 2, 1]])
        w = rng.standard_normal((2, 3, 4))
        assert_grads_match(lambda t: (rt.embedding(t, ids) * Tensor(w.astype(t.dtype))).sum(), [table])


class TestRmsNorm:
    def test_unit_scale_normalizes_rms(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 5, 8))
        out = rt.rms_norm(Tensor(x), Tensor(np.ones(8)), eps=0.0).data
        rms = np.sqrt((out * out).mean(axis=-1))
        np.testing.assert_allclose(rms, np.ones((2, 5)), rtol=1e-10)

    def test_scale_multiplies_channels(self):
        x = np.ones((1, 4))
        scale = np.array([1.0, 2.0, 3.0, 4.0])
        out = rt.rms_norm(Tensor(x), Tensor(scale), eps=0.0).data
        np.testing.assert_allclose(out, [[1.0, 2.0, 3.0, 4.0]], rtol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((2, 3, 6))
        scale = rng.standard_normal(6)
        w = rng.standard_normal((2, 3, 6))
        assert_grads_match(
            lambda tx, ts: (rt.rms_norm(tx, ts, eps=1e-6) * Tensor(w.astype(tx.dtype))).sum(),
            [x, scale],
        )

    def test_computes_no_gradient_for_a_frozen_scale(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((2, 3, 6))
        scale = rng.standard_normal(6)
        w = rng.standard_normal((2, 3, 6))
        g_x_live, _ = analytic_grads(lambda tx, ts: (rt.rms_norm(tx, ts, 1e-6) * Tensor(w)).sum(),
                                     [x, scale], np.float64)
        tx = Tensor(x, requires_grad=True)
        with Tape() as tape:
            rt.rms_norm(tx, Tensor(scale), 1e-6)
        g_x, g_scale = tape.entries[0].backward_fn(w)
        assert g_scale is None
        np.testing.assert_array_equal(g_x, g_x_live)


class TestRopeRotate:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((1, 2, 3, 8))
        pos = np.zeros((1, 3), dtype=np.int64)
        out = rt.rope_rotate(Tensor(x), pos, base=10000.0).data
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_norm_preserved_per_pair(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((1, 2, 4, 6))
        pos = np.arange(4, dtype=np.int64)[None, :] + 7
        out = rt.rope_rotate(Tensor(x), pos, base=10000.0).data
        n_in = (x[..., 0::2] ** 2 + x[..., 1::2] ** 2)
        n_out = (out[..., 0::2] ** 2 + out[..., 1::2] ** 2)
        np.testing.assert_allclose(n_out, n_in, rtol=1e-10)

    def test_first_pair_rotates_at_unit_frequency(self):
        # pair 0 spins exactly `pos` radians: e1 at position p -> (cos p, sin p)
        x = np.zeros((1, 1, 1, 4))
        x[0, 0, 0, 0] = 1.0
        p = 2
        out = rt.rope_rotate(Tensor(x), np.array([[p]]), base=10000.0).data
        np.testing.assert_allclose(out[0, 0, 0, :2], [math.cos(p), math.sin(p)], rtol=1e-12)

    def test_relative_rotation_composes(self):
        # rotating by p then by q on fresh data equals rotating once by p+q
        rng = np.random.default_rng(21)
        x = rng.standard_normal((1, 1, 1, 8))
        once = rt.rope_rotate(Tensor(x), np.array([[5]]), base=10000.0).data
        twice = rt.rope_rotate(
            rt.rope_rotate(Tensor(x), np.array([[2]]), base=10000.0),
            np.array([[3]]),
            base=10000.0,
        ).data
        np.testing.assert_allclose(twice, once, rtol=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 2, 3, 8))
        pos = rng.integers(0, 50, size=(2, 3))
        w = rng.standard_normal((2, 2, 3, 8))
        assert_grads_match(
            lambda t: (rt.rope_rotate(t, pos, base=10000.0) * Tensor(w.astype(t.dtype))).sum(),
            [x],
        )


# ---------------------------------------------------------------------------
# tape contracts
# ---------------------------------------------------------------------------

class TestTape:
    def test_product_rule(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        y = Tensor(np.asarray(3.0), requires_grad=True)
        with Tape() as tape:
            z = x * y
        grads = tape.backward(z)
        assert grads[x] == 3.0
        assert grads[y] == 2.0

    def test_reused_operand_accumulates(self):
        x = Tensor(np.asarray(3.0), requires_grad=True)
        with Tape() as tape:
            z = x * x  # d/dx = 2x
        grads = tape.backward(z)
        assert grads[x] == 6.0

    def test_detached_tensor_absent_from_gradients(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        with Tape() as tape:
            z = x.detach() * x
        grads = tape.backward(z)
        assert grads[x] == 2.0  # only the tracked factor contributes
        assert len(grads) == 1

    def test_frozen_tensor_absent_from_gradients(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        w = Tensor(np.asarray(5.0))
        with Tape() as tape:
            z = x * w
        grads = tape.backward(z)
        assert w not in grads
        assert grads[x] == 5.0

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = x * x
        with pytest.raises(ValueError):
            tape.backward(y)

    def test_tape_single_use(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        with Tape() as tape:
            z = x * x
        tape.backward(z)
        with pytest.raises(RuntimeError):
            tape.backward(z)

    def test_each_entry_visited_once(self):
        x = Tensor(np.asarray(1.5), requires_grad=True)
        with Tape() as tape:
            y = rt.silu(x * x + x)
            z = (y * y).sum()
        calls = [0] * len(tape.entries)
        for i, entry in enumerate(tape.entries):
            def counted(g, i=i, backward_fn=entry.backward_fn):
                calls[i] += 1
                return backward_fn(g)
            entry.backward_fn = counted
        tape.backward(z)
        assert len(calls) == len(tape.entries) > 0
        assert all(c == 1 for c in calls)

    def test_ops_outside_tape_record_nothing(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            pass
        y = x * x  # after exit: plain evaluation
        assert not y.requires_grad
        assert len(tape.entries) == 0

    def test_nested_tapes_restore_outer(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        with Tape() as outer:
            _ = x * x
            with Tape() as inner:
                _ = x * x
            _ = x * x
        assert len(inner.entries) == 1
        assert len(outer.entries) == 2

    def test_leaf_grad_survives_for_optimizer(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        with Tape() as tape:
            z = x * x
        tape.backward(z)
        assert x.grad == 4.0
        x.zero_grad()
        assert x.grad is None

    def test_grad_accumulates_across_tapes(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        for _ in range(3):
            with Tape() as tape:
                z = x * x
            tape.backward(z)
        assert x.grad == 12.0

    def test_intermediate_grads_freed(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        with Tape() as tape:
            y = x * x
            z = y * y
        tape.backward(z)
        assert y.grad is None
        assert z.grad is None

    def test_backward_frees_intermediates_while_tape_is_held(self):
        x = Tensor(np.linspace(-1.0, 1.0, 5), requires_grad=True)
        with Tape() as tape:
            y = rt.silu(x * x)
            loss = (y * y).sum()
        probe = weakref.ref(y.data)
        del y
        tape.backward(loss)
        assert probe() is None
        assert x.grad is not None

    def test_later_output_grads_are_freed_before_each_backward(self):
        x = Tensor(np.linspace(-1.0, 1.0, 5), requires_grad=True)
        with Tape() as tape:
            y = x * x
            loss = (rt.silu(y) * y + x).sum()
        outputs = [entry.output for entry in tape.entries]
        ran = []
        for i, entry in enumerate(tape.entries):
            def checked(g, i=i, backward_fn=entry.backward_fn):
                assert all(out.grad is None for out in outputs[i + 1:])
                ran.append(i)
                return backward_fn(g)
            entry.backward_fn = checked
        tape.backward(loss)
        assert ran == list(range(len(outputs)))[::-1]

    def test_backward_keeps_entry_count_and_leaf_order(self):
        a, b, c = (Tensor(np.full(3, v), requires_grad=True) for v in (1.0, 2.0, 3.0))
        frozen = Tensor(np.full(3, 4.0))
        with Tape() as tape:
            loss = (b * c + frozen * a * b).sum()  # first read: b, c, then a
        recorded = len(tape.entries)
        grads = tape.backward(loss)
        assert len(tape.entries) == recorded == 5
        assert len(grads) == 3
        assert all(got is want for got, want in zip(grads, (b, c, a)))
        with pytest.raises(RuntimeError):
            tape.backward(loss)


# ---------------------------------------------------------------------------
# composite expressions: whole-graph gradient checks
# ---------------------------------------------------------------------------

def _attention_like(tx, tw, tv):
    """Tiny attention-shaped composite: softmax(x @ w / 2) @ v, then masked CE."""
    scores = (tx @ tw) / 2.0
    probs = rt.softmax(scores)
    mixed = probs @ tv
    return (rt.silu(mixed)).mean()

def test_composite_expression_gradients_float64():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((2, 3, 4))
    w = rng.standard_normal((2, 4, 3))
    v = rng.standard_normal((2, 3, 5))
    assert_grads_match(_attention_like, [x, w, v], dtype=np.float64, tol=1e-4)


def test_composite_expression_gradients_float32():
    rng = np.random.default_rng(24)
    x = rng.standard_normal((2, 3, 4))
    w = rng.standard_normal((2, 4, 3))
    v = rng.standard_normal((2, 3, 5))
    assert_grads_match(_attention_like, [x, w, v], dtype=np.float32, tol=1e-2)


def test_normalized_projection_gradients_float32():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((2, 4, 8))
    scale = rng.standard_normal(8) * 0.5 + 1.0
    w = rng.standard_normal((8, 6))
    targets = rng.integers(0, 6, size=(2, 4))

    def build(tx, ts, tw):
        h = rt.rms_norm(tx, ts, eps=1e-6)
        logits = rt.reshape(rt.reshape(h, (8, 8)) @ tw, (2, 4, 6))
        return rt.cross_entropy(logits, targets)[0]

    assert_grads_match(build, [x, scale, w], dtype=np.float64, tol=1e-4)
    assert_grads_match(build, [x, scale, w], dtype=np.float32, tol=1e-2)
