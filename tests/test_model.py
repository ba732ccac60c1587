"""Tests for the transformer backbone, low-rank deltas, and rotary positions."""

import math

import numpy as np
import pytest

import roletune.tensor as rt
from roletune.errors import CapacityError, ConfigError, ShapeError
from roletune.model import (
    BaseWeights,
    LoraDelta,
    ModelConfig,
    RoleAdapters,
    Transformer,
    linear,
    lora_linear,
    rope_apply,
)
from roletune.tensor import Tape, Tensor

import _reference as ref


TINY = ModelConfig(d_model=8, n_layers=2, n_heads=2, d_ff=16, vocab_size=16, max_positions=64)


def make_model(config=TINY, seed=0, rank=2, nonzero=True):
    model = Transformer.create(config, seed)
    adapters = RoleAdapters(config, rank=rank, alpha=4.0, seed=seed)
    if nonzero:
        rng = np.random.default_rng(99)
        for t in adapters.trainable_parameters().values():
            t.data = rng.normal(0.0, 0.3, size=t.shape).astype(np.float32)
    return model, adapters


def adapters_as_arrays(adapters):
    out = dict(adapters.named_arrays())
    out["alpha"] = adapters.alpha
    return out


class TestModelConfig:
    def test_defaults(self):
        c = ModelConfig()
        assert (c.d_model, c.n_layers, c.n_heads, c.d_ff, c.vocab_size) == (64, 2, 4, 256, 512)
        assert c.max_positions == 2048
        assert c.rope_base == 10000.0
        assert c.head_dim == 16

    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=64, n_heads=5)

    def test_even_head_dim_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=12, n_heads=4)  # head dim 3

    def test_positive_fields_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=0)

    def test_round_trips_through_dict(self):
        c = ModelConfig(d_model=32, n_heads=2)
        assert ModelConfig.from_dict(c.to_dict()) == c


class TestLoraDelta:
    def test_rank_mismatch_rejected(self):
        A = Tensor(np.zeros((2, 4)))
        B = Tensor(np.zeros((4, 3)))
        with pytest.raises(ConfigError):
            LoraDelta(A, B, alpha=1.0)

    def test_rank_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            LoraDelta.create(4, 4, rank=0, alpha=1.0, rng=rng)
        with pytest.raises(ConfigError):
            LoraDelta.create(4, 4, rank=5, alpha=1.0, rng=rng)

    def test_fresh_delta_is_exact_noop(self):
        rng = np.random.default_rng(1)
        delta = LoraDelta.create(6, 6, rank=2, alpha=16.0, rng=rng)
        W = Tensor(rng.normal(size=(6, 6)).astype(np.float32))
        x = Tensor(rng.normal(size=(3, 6)).astype(np.float32))
        np.testing.assert_array_equal(lora_linear(x, W, delta).data, linear(x, W).data)

    def test_hand_computed_rank_one_delta(self):
        # alpha/r * B @ A = [[2,0],[0,0]]; x=[1,1] -> y=[2,0]
        delta = LoraDelta(Tensor(np.array([[1.0, 0.0]])), Tensor(np.array([[2.0], [0.0]])), alpha=1.0)
        W = Tensor(np.zeros((2, 2)))
        x = Tensor(np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(lora_linear(x, W, delta).data, [[2.0, 0.0]])

    def test_delta_contribution_linear_in_alpha(self):
        rng = np.random.default_rng(2)
        A = Tensor(rng.normal(size=(2, 5)))
        B = Tensor(rng.normal(size=(4, 2)))
        W = Tensor(rng.normal(size=(4, 5)))
        x = Tensor(rng.normal(size=(3, 5)))
        base = linear(x, W).data
        d1 = lora_linear(x, W, LoraDelta(A, B, alpha=3.0)).data - base
        d2 = lora_linear(x, W, LoraDelta(A, B, alpha=6.0)).data - base
        np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-5)

    def test_scaling_is_alpha_over_rank(self):
        delta = LoraDelta(Tensor(np.zeros((8, 4))), Tensor(np.zeros((4, 8))), alpha=16.0)
        assert delta.scaling == 2.0


class TestRoleAdapters:
    def test_default_target_census(self):
        c = ModelConfig()
        adapters = RoleAdapters(c, rank=8, alpha=16.0, seed=0)
        assert len(adapters.deltas["agent"]) == 2 * c.n_layers
        assert len(adapters.deltas["user"]) == c.n_layers
        assert all(proj in ("q", "v") for (_, proj) in adapters.deltas["agent"])
        assert all(proj == "q" for (_, proj) in adapters.deltas["user"])

    def test_user_role_never_adapts_values(self):
        adapters = RoleAdapters(ModelConfig(), seed=0)
        assert all(proj != "v" for (_, proj) in adapters.deltas["user"])

    def test_parameter_count_per_projection(self):
        c = ModelConfig()
        r = 8
        adapters = RoleAdapters(c, rank=r, seed=0)
        per_projection = r * (c.d_model + c.d_model)  # A: r*d_in, B: d_out*r
        assert adapters.parameter_count("agent") == 2 * c.n_layers * per_projection
        assert adapters.parameter_count("user") == c.n_layers * per_projection

    def test_unknown_role_or_projection_rejected(self):
        with pytest.raises(ConfigError):
            RoleAdapters(TINY, targets={"narrator": ("q",)})
        with pytest.raises(ConfigError):
            RoleAdapters(TINY, targets={"agent": ("z",)})

    def test_custom_targets_honored(self):
        adapters = RoleAdapters(TINY, rank=2, targets={"agent": ("q", "k", "v", "o"), "user": ("q",)})
        assert len(adapters.deltas["agent"]) == 4 * TINY.n_layers

    def test_agent_init_independent_of_user_targets(self):
        # the agent stream must not shift when the user adapter set changes
        both = RoleAdapters(TINY, rank=2, seed=7)
        agent_only = RoleAdapters(TINY, rank=2, seed=7, targets={"agent": ("q", "v")})
        for key, delta in both.deltas["agent"].items():
            np.testing.assert_array_equal(delta.A.data, agent_only.deltas["agent"][key].A.data)

    def test_trainable_parameter_order_deterministic(self):
        a1 = RoleAdapters(TINY, rank=2, seed=0)
        a2 = RoleAdapters(TINY, rank=2, seed=0)
        assert list(a1.trainable_parameters()) == list(a2.trainable_parameters())
        first = next(iter(a1.trainable_parameters()))
        assert first == "user.layer0.q.A"

    def test_all_trainables_require_grad(self):
        adapters = RoleAdapters(TINY, rank=2, seed=0)
        assert all(t.requires_grad for t in adapters.trainable_parameters().values())


class TestRopeApply:
    def test_position_zero_identity(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(1, 2, 3, 4)).astype(np.float32))
        out = rope_apply(x, np.zeros((1, 3), dtype=int), base=10000.0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_odd_head_dim_rejected(self):
        x = Tensor(np.zeros((1, 1, 2, 3)))
        with pytest.raises(ShapeError):
            rope_apply(x, np.zeros((1, 2), dtype=int), base=10000.0)

    def test_position_shape_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 1, 2, 4)))
        with pytest.raises(ShapeError):
            rope_apply(x, np.zeros((1, 3), dtype=int), base=10000.0)

    def test_head_dim_two_is_plain_rotation_matrix(self):
        # at head dim 2 the single pair spins exactly m radians
        m = 5
        x = np.array([0.3, -0.7], dtype=np.float64).reshape(1, 1, 1, 2)
        out = rope_apply(Tensor(x), np.array([[m]]), base=123.0).data[0, 0, 0]
        R = np.array([[math.cos(m), -math.sin(m)], [math.sin(m), math.cos(m)]])
        np.testing.assert_allclose(out, R @ x.reshape(2), rtol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 5, 8)).astype(np.float32)
        pos = rng.integers(0, 100, size=(2, 5))
        out = rope_apply(Tensor(x), pos, base=10000.0).data
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-6
        )

    def test_dot_products_depend_only_on_relative_offset(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(1, 1, 1, 8)).astype(np.float32)
        k = rng.normal(size=(1, 1, 1, 8)).astype(np.float32)

        def dot(m, n):
            qr = rope_apply(Tensor(q), np.array([[m]]), base=10000.0).data
            kr = rope_apply(Tensor(k), np.array([[n]]), base=10000.0).data
            return float((qr * kr).sum())

        for delta in (1, 7, 23):
            assert abs(dot(3, 11) - dot(3 + delta, 11 + delta)) < 1e-5


class TestForwardSegment:
    def test_logits_shape(self):
        model, adapters = make_model()
        tokens = np.array([[1, 2, 3], [4, 5, 6]])
        pos = np.tile(np.arange(3), (2, 1))
        logits, new_kv = model.forward_segment(tokens, pos, "agent", adapters)
        assert logits.shape == (2, 3, TINY.vocab_size)
        assert len(new_kv) == TINY.n_layers
        assert new_kv[0][0].shape == (2, TINY.n_heads, 3, TINY.head_dim)

    def test_zero_delta_roles_identical(self):
        model, adapters = make_model(nonzero=False)  # B = 0 everywhere
        tokens = np.array([[3, 1, 4, 1]])
        pos = np.arange(4)[None, :]
        la, _ = model.forward_segment(tokens, pos, "agent", adapters)
        lu, _ = model.forward_segment(tokens, pos, "user", adapters)
        np.testing.assert_array_equal(la.data, lu.data)

    def test_roles_differ_with_nonzero_deltas(self):
        model, adapters = make_model(nonzero=True)
        tokens = np.array([[3, 1, 4, 1]])
        pos = np.arange(4)[None, :]
        la, _ = model.forward_segment(tokens, pos, "agent", adapters)
        lu, _ = model.forward_segment(tokens, pos, "user", adapters)
        assert np.abs(la.data - lu.data).max() > 1e-4

    def test_unknown_role_rejected(self):
        model, adapters = make_model()
        with pytest.raises(ConfigError):
            model.forward_segment(np.array([[1]]), np.array([[0]]), "narrator", adapters)

    def test_token_out_of_vocab_rejected(self):
        model, adapters = make_model()
        with pytest.raises(IndexError):
            model.forward_segment(np.array([[TINY.vocab_size]]), np.array([[0]]), "agent", adapters)

    def test_position_overflow_rejected(self):
        model, adapters = make_model()
        with pytest.raises(CapacityError):
            model.forward_segment(np.array([[1]]), np.array([[TINY.max_positions]]), "agent", adapters)

    def test_cache_without_mask_rejected(self):
        model, adapters = make_model()
        _, kv = model.forward_segment(np.array([[1, 2]]), np.arange(2)[None, :], "agent", adapters)
        with pytest.raises(ShapeError):
            model.forward_segment(np.array([[3]]), np.array([[2]]), "agent", adapters, cache=kv)

    def test_matches_reference_single_pass(self):
        # whole-segment forward against the independent numpy transcription
        model, adapters = make_model(nonzero=True)
        rng = np.random.default_rng(6)
        tokens = rng.integers(0, TINY.vocab_size, size=(3, 10))
        pos = np.tile(np.arange(10), (3, 1))
        for role, code in (("agent", 1), ("user", 0)):
            logits, _ = model.forward_segment(tokens, pos, role, adapters)
            expected = ref.forward_full(
                TINY.to_dict(), model.base.named_arrays(), adapters_as_arrays(adapters),
                tokens, pos, np.full_like(tokens, code),
            )
            np.testing.assert_allclose(logits.data, expected, atol=1e-5)

    def test_no_adapters_matches_reference(self):
        model, _ = make_model()
        tokens = np.array([[7, 8, 9, 10]])
        pos = np.arange(4)[None, :]
        logits, _ = model.forward_segment(tokens, pos, "agent", adapters=None)
        expected = ref.forward_full(
            TINY.to_dict(), model.base.named_arrays(), None, tokens, pos, np.ones_like(tokens),
        )
        np.testing.assert_allclose(logits.data, expected, atol=1e-5)

    def test_argmax_invariant_under_constant_logit_shift(self):
        model, adapters = make_model()
        tokens = np.array([[1, 2, 3]])
        pos = np.arange(3)[None, :]
        logits, _ = model.forward_segment(tokens, pos, "agent", adapters)
        np.testing.assert_array_equal(
            logits.data.argmax(axis=-1), (logits.data + 17.5).argmax(axis=-1)
        )

    def test_base_weights_untouched_by_forward(self):
        model, adapters = make_model()
        before = {k: v.copy() for k, v in model.base.named_arrays().items()}
        tokens = np.array([[1, 2, 3]])
        model.forward_segment(tokens, np.arange(3)[None, :], "agent", adapters)
        for k, v in model.base.named_arrays().items():
            np.testing.assert_array_equal(v, before[k])

    def test_base_weights_are_read_only(self):
        # linear caches a frozen weight's transpose; an in-place write must
        # raise rather than leave it stale
        model, _ = make_model()
        for name, t in model.base.params.items():
            with pytest.raises(ValueError):
                t.data[0] = 1.0


def _cast_to_f64(model, adapters):
    for t in model.base.params.values():
        t.data = t.data.astype(np.float64)
    for t in adapters.trainable_parameters().values():
        t.data = t.data.astype(np.float64)


def test_adapter_gradients_match_finite_differences():
    """End-to-end wiring check: loss gradients for every delta scalar, f64."""
    model, adapters = make_model(nonzero=True)
    _cast_to_f64(model, adapters)
    rng = np.random.default_rng(7)
    tokens = rng.integers(0, TINY.vocab_size, size=(2, 6))
    pos = np.tile(np.arange(6), (2, 1))
    targets = rng.integers(0, TINY.vocab_size, size=(2, 6))

    def loss_value():
        logits, _ = model.forward_segment(tokens, pos, "agent", adapters)
        loss, _ = rt.cross_entropy(logits, targets)
        return loss.item()

    with Tape() as tape:
        logits, _ = model.forward_segment(tokens, pos, "agent", adapters)
        loss, _ = rt.cross_entropy(logits, targets)
    grads = tape.backward(loss)

    for name, t in adapters.trainable_parameters(roles=("agent",)).items():
        analytic = grads[t]
        numeric = np.zeros_like(t.data)
        it = np.nditer(t.data, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = t.data[ix]
            h = 1e-5 * (1.0 + abs(orig))
            t.data[ix] = orig + h
            fp = loss_value()
            t.data[ix] = orig - h
            fm = loss_value()
            t.data[ix] = orig
            numeric[ix] = (fp - fm) / (2.0 * h)
        err = np.max(np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-6))
        assert err < 1e-4, f"{name}: gradient error {err:.3e}"
