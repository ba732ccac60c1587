"""Tests for the optimizer, schedule, loss assembly, and the three modes."""

import dataclasses
import math

import numpy as np
import pytest

import roletune.training as tr
from roletune.data import (
    ByteTokenizer,
    DialogueSample,
    SynthSpec,
    build_round_batches,
    default_synth_spec,
    make_split_samples,
    synth_generate,
)
from roletune.errors import CapacityError, ConfigError
from roletune.model import ModelConfig, RoleAdapters, Transformer
from roletune.tensor import Tape, Tensor
from roletune.training import (
    AdamW,
    TrainConfig,
    causal_loss,
    combine_losses,
    lr_at,
    midi_losses,
    pack_round_batch,
    pad_causal_batch,
    shifted_targets,
    split_pairs,
    train,
)

import _reference as ref

TOK = ByteTokenizer()
SMALL = ModelConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32,
                    vocab_size=ByteTokenizer.vocab_size, max_positions=512)


def small_setup(seed=0, rank=2):
    model = Transformer.create(SMALL, seed)
    adapters = RoleAdapters(SMALL, rank=rank, alpha=4.0, seed=seed)
    rng = np.random.default_rng(seed + 50)
    for t in adapters.trainable_parameters().values():
        t.data = rng.normal(0.0, 0.2, size=t.shape).astype(np.float32)
    return model, adapters


def reference_role_nll(model, adapters, sample, beta_positions="agent"):
    """Token-mean NLL over one role's target positions, via the independent
    full-sequence reference forward with per-token adapter switching."""
    inst = TOK.encode_instruction(sample.instruction)
    ids, codes, scored = list(inst), [1] * len(inst), [None] * len(inst)
    for user, agent in sample.rounds:
        for role, code, text in (("user", 0, user), ("agent", 1, agent)):
            seg = TOK.encode_utterance(role, text)
            ids.extend(seg)
            codes.extend([code] * len(seg))
            scored.extend([None] + [role] * (len(seg) - 1))
    tokens = np.array([ids])
    ad = dict(adapters.named_arrays())
    ad["alpha"] = adapters.alpha
    logits = ref.forward_full(SMALL.to_dict(), model.base.named_arrays(), ad,
                              tokens, np.arange(len(ids))[None, :],
                              np.array([codes]))
    logp = logits[0] - np.log(np.exp(logits[0] - logits[0].max(-1, keepdims=True)).sum(-1, keepdims=True)) - logits[0].max(-1, keepdims=True)
    nlls = {"user": [], "agent": []}
    for j in range(1, len(ids)):
        if scored[j] is not None:
            nlls[scored[j]].append(-logp[j - 1, ids[j]])
    return {role: float(np.mean(v)) if v else 0.0 for role, v in nlls.items()}


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.mode == "midi" and cfg.beta == 1.0 and cfg.lr == 2e-5
        assert cfg.warmup_ratio == 0.03 and cfg.batch_size == 16
        assert cfg.epochs == 3 and cfg.max_rounds == 10

    def test_mode_validated(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="joint")

    def test_beta_range(self):
        TrainConfig(beta=0.0)   # stop-gradient diagnostic
        TrainConfig(beta=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(beta=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(beta=1.5)

    def test_warmup_range(self):
        with pytest.raises(ConfigError):
            TrainConfig(warmup_ratio=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(warmup_ratio=-0.1)

    def test_micro_batch_bounds(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=4, micro_batch=8)

    def test_dict_round_trip(self):
        cfg = TrainConfig(mode="concat", beta=0.5, micro_batch=2, batch_size=4)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestSchedule:
    def test_linear_warmup_then_peak(self):
        cfg = TrainConfig(lr=2e-5, warmup_ratio=0.03)
        total = 200  # warmup = 6 steps
        for s in range(6):
            assert lr_at(s, total, cfg) == pytest.approx(2e-5 * s / 6)
        assert lr_at(6, total, cfg) == pytest.approx(2e-5)

    def test_cosine_decay_to_zero(self):
        cfg = TrainConfig(lr=1e-3, warmup_ratio=0.03)
        total = 200
        values = [lr_at(s, total, cfg) for s in range(6, total)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert lr_at(total, total, cfg) == pytest.approx(0.0, abs=1e-12)
        mid = 6 + (total - 6) // 2
        assert lr_at(mid, total, cfg) == pytest.approx(1e-3 * 0.5, rel=0.05)

    def test_no_warmup_when_ratio_rounds_to_zero(self):
        cfg = TrainConfig(lr=1e-3, warmup_ratio=0.03)
        assert lr_at(0, 10, cfg) == pytest.approx(1e-3)  # int(0.3) == 0


class TestAdamW:
    def test_first_step_matches_hand_computation(self):
        p = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        p.grad = np.ones(1, dtype=np.float32)
        opt = AdamW({"p": p})
        opt.step(lr=0.1)
        # bias-corrected m-hat = v-hat = 1, so the update is ~lr
        np.testing.assert_allclose(p.data, [-0.1], rtol=1e-6)

    def test_constant_gradient_converges_to_unit_steps(self):
        p = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p})
        for _ in range(50):
            p.grad = np.ones(1, dtype=np.float32)
            opt.step(lr=0.01)
        np.testing.assert_allclose(p.data, [-0.5], rtol=1e-3)

    def test_missing_gradient_skips_parameter(self):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p})
        opt.step(lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, 1.0])
        assert opt.t == 1

    def test_decoupled_weight_decay(self):
        p = Tensor(np.full(1, 2.0, dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.1)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step(lr=0.5)
        # zero gradient: only the decay term moves the weight: 2 - 0.5*0.1*2
        np.testing.assert_allclose(p.data, [1.9], rtol=1e-6)

    def test_moments_shaped_like_parameters(self):
        p = Tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p})
        assert opt.m["p"].shape == (3, 4) and opt.v["p"].shape == (3, 4)


class TestShiftedTargets:
    def test_alignment(self):
        tokens = np.array([[4, 10, 11, 2]])
        loss_mask = np.array([[False, True, True, True]])
        targets, mask = shifted_targets(tokens, loss_mask)
        np.testing.assert_array_equal(targets[0], [10, 11, 2, 0])
        np.testing.assert_array_equal(mask[0], [True, True, True, False])


class TestMidiLosses:
    def test_single_round_matches_segment_oracle(self):
        # L_s and L_u against the reference full-pass role-switching forward
        model, adapters = small_setup(seed=1)
        sample = DialogueSample("persona kavo", [("how why", "kavo sails")])
        [batch] = build_round_batches([sample], TOK, batch_size=1)
        ls, lu, n_s, n_u = midi_losses(model, adapters, batch, TrainConfig())
        expected = reference_role_nll(model, adapters, sample)
        assert ls.item() == pytest.approx(expected["agent"], abs=1e-5)
        assert lu.item() == pytest.approx(expected["user"], abs=1e-5)
        assert n_s == len(TOK.encode("kavo sails")) + 1
        assert n_u == len(TOK.encode("how why")) + 1

    def test_multi_round_matches_segment_oracle(self):
        model, adapters = small_setup(seed=2)
        sample = DialogueSample("persona zuri",
                                [("tell you", "zuri winds"), ("ask what", "zuri tides maps")])
        [batch] = build_round_batches([sample], TOK, batch_size=1)
        ls, lu, _, _ = midi_losses(model, adapters, batch, TrainConfig())
        expected = reference_role_nll(model, adapters, sample)
        assert ls.item() == pytest.approx(expected["agent"], abs=1e-5)
        assert lu.item() == pytest.approx(expected["user"], abs=1e-5)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("user_sees_instruction", [True, False])
    def test_visibility_options_match_reference_mask(self, strict, user_sees_instruction):
        # two dialogues with unequal round counts, so the batch packs padding;
        # the reference mask is written out from the segment lengths alone
        model, adapters = small_setup(seed=11)
        for t in list(model.base.params.values()) + list(adapters.trainable_parameters().values()):
            t.data = t.data.astype(np.float64)
        samples = [DialogueSample("persona rima", [("how now", "rima sails")]),
                   DialogueSample("persona olo", [("why", "olo maps far"),
                                                  ("tell me", "olo tides")])]
        [batch] = build_round_batches(samples, TOK, batch_size=2)
        cfg = TrainConfig(strict_cross_round=strict, user_sees_instruction=user_sees_instruction)
        ls, lu, n_s, n_u = midi_losses(model, adapters, batch, cfg)

        ad = dict(adapters.named_arrays())
        ad["alpha"] = adapters.alpha
        nlls = {"user": [], "agent": []}
        for sample in samples:
            segs = [(TOK.encode_instruction(sample.instruction), "instruction")]
            for user, agent in sample.rounds:
                segs += [(TOK.encode_utterance("user", user), "user"),
                         (TOK.encode_utterance("agent", agent), "agent")]
            ids = np.concatenate([ids for ids, _ in segs])
            seg_of = np.concatenate([np.full(len(ids), i) for i, (ids, _) in enumerate(segs)])
            kind = [segs[i][1] for i in seg_of]
            n = len(ids)
            mask = np.full((n, n), ref.NEG)
            for qi in range(n):
                for ki in range(qi + 1):
                    same = seg_of[ki] == seg_of[qi]
                    hidden = kind[qi] == "user" and kind[ki] == "instruction"
                    if ki == qi or (not same and not (hidden and not user_sees_instruction)) \
                            or (same and not strict):
                        mask[qi, ki] = 0.0
            codes = np.array([0 if k == "user" else 1 for k in kind])
            logits = ref.forward_full(SMALL.to_dict(), model.base.named_arrays(), ad,
                                      ids[None, :], np.arange(n)[None, :], codes[None, :],
                                      mask=mask[None])[0]
            top = logits.max(-1, keepdims=True)
            logp = logits - top - np.log(np.exp(logits - top).sum(-1, keepdims=True))
            for j in range(1, n):
                first = seg_of[j] != seg_of[j - 1]
                if kind[j] != "instruction" and not first:
                    nlls[kind[j]].append(-logp[j - 1, ids[j]])
        assert (n_s, n_u) == (len(nlls["agent"]), len(nlls["user"]))
        assert ls.item() == pytest.approx(np.mean(nlls["agent"]), abs=1e-10)
        assert lu.item() == pytest.approx(np.mean(nlls["user"]), abs=1e-10)

    def test_beta_zero_leaves_user_deltas_without_gradient(self):
        model, adapters = small_setup(seed=3)
        samples = synth_generate(0, 2, default_synth_spec())
        [batch] = build_round_batches(samples, TOK, batch_size=2)
        cfg = TrainConfig(beta=0.0)
        with Tape() as tape:
            ls, lu, _, _ = midi_losses(model, adapters, batch, cfg)
            total = combine_losses(ls, lu, cfg.beta)
        grads = tape.backward(total)
        user_params = set(adapters.trainable_parameters(roles=("user",)).values())
        agent_params = adapters.trainable_parameters(roles=("agent",))
        assert all(p not in grads for p in user_params)
        assert any(p in grads and np.abs(grads[p]).max() > 0
                   for p in agent_params.values())

    def test_positive_beta_reaches_user_deltas(self):
        model, adapters = small_setup(seed=4)
        samples = synth_generate(1, 2, default_synth_spec())
        [batch] = build_round_batches(samples, TOK, batch_size=2)
        cfg = TrainConfig(beta=0.5)
        with Tape() as tape:
            ls, lu, _, _ = midi_losses(model, adapters, batch, cfg)
            total = combine_losses(ls, lu, cfg.beta)
        grads = tape.backward(total)
        # both factors were randomized in small_setup, so every user matrix
        # sits on a live gradient path through the user-turn loss
        for name, p in adapters.trainable_parameters(roles=("user",)).items():
            assert p in grads and np.abs(grads[p]).max() > 0, name

    def test_loss_additivity_exact(self):
        model, adapters = small_setup(seed=5)
        samples = synth_generate(2, 3, default_synth_spec())
        [batch] = build_round_batches(samples, TOK, batch_size=3)
        for beta in (0.25, 1.0):
            cfg = TrainConfig(beta=beta)
            ls, lu, _, _ = midi_losses(model, adapters, batch, cfg)
            total = combine_losses(ls, lu, beta)
            again = (ls + lu * beta).item()
            assert total.item() - again == 0.0

    def test_detached_cache_blocks_cross_round_gradients(self):
        """With caching detached, round-1 reaches the loss only through its
        stored K/V; the ablation switch restores that gradient path."""
        samples = [DialogueSample("persona melo",
                                  [("how you", "melo ropes"), ("why ask", "melo decks")])]

        def user_grad_norm(backprop):
            model, adapters = small_setup(seed=6)
            [batch] = build_round_batches(samples, TOK, batch_size=1)
            cfg = TrainConfig(beta=0.0, backprop_through_rounds=backprop)
            with Tape() as tape:
                ls, lu, _, _ = midi_losses(model, adapters, batch, cfg)
                total = combine_losses(ls, lu, cfg.beta)
            grads = tape.backward(total)
            user_params = adapters.trainable_parameters(roles=("user",))
            return sum(float(np.abs(grads[p]).sum()) if p in grads else 0.0
                       for p in user_params.values())

        # beta=0: the agent loss can reach user deltas only through cached
        # user-segment K/V — exactly the path the detachment removes
        assert user_grad_norm(backprop=False) == 0.0
        assert user_grad_norm(backprop=True) > 0.0

    def test_agent_loss_gradient_reaches_instruction_kv(self):
        """The agent loss trains the agent deltas through the instruction K/V
        they encode. With one round, beta=0 and the instruction hidden from
        the user turn, nothing the loss reads is detached from the agent
        deltas, so the tape's gradient is the full derivative of L_s."""
        model, adapters = small_setup(seed=10)
        for t in list(model.base.params.values()) + list(adapters.trainable_parameters().values()):
            t.data = t.data.astype(np.float64)
        sample = DialogueSample("persona tavi", [("why now", "tavi sails")])
        [batch] = build_round_batches([sample], TOK, batch_size=1)
        cfg = TrainConfig(beta=0.0, user_sees_instruction=False)

        with Tape() as tape:
            ls, lu, _, _ = midi_losses(model, adapters, batch, cfg)
            total = combine_losses(ls, lu, cfg.beta)
        grads = tape.backward(total)

        max_err = 0.0
        for name, t in adapters.trainable_parameters(roles=("agent",)).items():
            assert t in grads, name
            it = np.nditer(t.data, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = t.data[ix]
                h = 1e-5 * (1.0 + abs(orig))
                t.data[ix] = orig + h
                fp = midi_losses(model, adapters, batch, cfg)[0].item()
                t.data[ix] = orig - h
                fm = midi_losses(model, adapters, batch, cfg)[0].item()
                t.data[ix] = orig
                numeric = (fp - fm) / (2.0 * h)
                analytic = grads[t][ix]
                err = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
                max_err = max(max_err, err)
        assert max_err < 1e-4, f"max relative gradient error {max_err:.3e}"

    def test_empty_round_segment_skipped_with_warning(self, caplog):
        model, adapters = small_setup(seed=7)
        sample = DialogueSample("i", [("aa", "bb")])
        [batch] = build_round_batches([sample], TOK, batch_size=1)
        empty = batch.rounds[0]["user"]
        empty.validity[:] = False
        empty.loss_mask[:] = False
        empty.tokens[:] = 0
        with caplog.at_level("WARNING", logger="roletune.training"):
            midi_losses(model, adapters, batch, TrainConfig())
        assert any("zero valid tokens" in r.message for r in caplog.records)

    def test_empty_instruction_skipped_with_warning(self, caplog):
        # no instruction slots exist, so agent segments read no live prefix
        model, adapters = small_setup(seed=7)
        sample = DialogueSample("i", [("aa", "bb"), ("cc", "dd")])
        [batch] = build_round_batches([sample], TOK, batch_size=1)
        empty = batch.instruction
        empty.validity[:] = False
        empty.loss_mask[:] = False
        empty.tokens[:] = 0
        with caplog.at_level("WARNING", logger="roletune.training"):
            ls, _, n_s, _ = midi_losses(model, adapters, batch, TrainConfig())
        assert any("instruction segment with zero valid tokens" in r.message
                   for r in caplog.records)
        assert n_s > 0 and np.isfinite(ls.item())


def concat_grid(samples):
    """The concat layout: midi's round batch, packed."""
    [batch] = build_round_batches(samples, TOK, batch_size=len(samples))
    return pack_round_batch(batch)


class TestCausalModes:
    def test_concat_loss_matches_token_loop_oracle(self):
        model, adapters = small_setup(seed=8)
        sample = DialogueSample("persona pira", [("what when", "pira stars"),
                                                 ("about you", "pira ports maps")])
        batch = concat_grid([sample])
        ids, mask = batch.tokens[0], (batch.loss_mask & batch.is_agent)[0]
        loss, n = causal_loss(model, adapters, batch)

        ad = dict(adapters.named_arrays())
        ad["alpha"] = adapters.alpha
        logits = ref.forward_full(SMALL.to_dict(), model.base.named_arrays(), ad,
                                  ids[None, :], np.arange(len(ids))[None, :],
                                  np.ones((1, len(ids)), dtype=int))
        x = logits[0]
        lse = np.log(np.exp(x - x.max(-1, keepdims=True)).sum(-1)) + x.max(-1)
        per_token = [lse[j - 1] - x[j - 1, ids[j]] for j in range(1, len(ids)) if mask[j]]
        assert n == len(per_token) == int(mask.sum())
        assert loss.item() == pytest.approx(float(np.mean(per_token)), abs=1e-5)

    def test_all_masked_sample_gives_zero_loss_and_no_gradients(self):
        model, adapters = small_setup(seed=9)
        ids = np.array(TOK.encode_instruction("nothing to score"))
        batch = pad_causal_batch([(ids, np.zeros(len(ids), dtype=bool))])
        with Tape() as tape:
            loss, n = causal_loss(model, adapters, batch)
        assert n == 0 and loss.item() == 0.0
        assert tape.backward(loss) == {}

    def test_concat_matches_midi_agent_loss_with_noop_deltas(self):
        # at a fresh init every delta is a no-op (second factor starts at
        # zero), so the role assignment cannot matter and the two layouts
        # must score the agent span identically — this pins down that their
        # masks, positions, and loss spans line up
        sample = DialogueSample("persona sena", [("tell what", "sena maps"),
                                                 ("how about", "sena stars")])
        model = Transformer.create(SMALL, 10)
        adapters = RoleAdapters(SMALL, rank=2, alpha=4.0, seed=10)
        [batch] = build_round_batches([sample], TOK, batch_size=1)
        ls, _, _, _ = midi_losses(model, adapters, batch, TrainConfig())

        loss, _ = causal_loss(model, adapters, concat_grid([sample]))
        assert loss.item() == pytest.approx(ls.item(), abs=1e-5)

    def test_concat_differs_from_midi_once_roles_specialize(self):
        # with nonzero role deltas the whole-sequence layout runs user turns
        # under the agent deltas, so the two modes genuinely diverge
        sample = DialogueSample("persona sena", [("tell what", "sena maps")])
        model, adapters = small_setup(seed=10)
        [batch] = build_round_batches([sample], TOK, batch_size=1)
        ls, _, _, _ = midi_losses(model, adapters, batch, TrainConfig())
        loss, _ = causal_loss(model, adapters, concat_grid([sample]))
        assert abs(loss.item() - ls.item()) > 1e-6

    def test_split_pairs_equal_concat_for_single_round(self):
        samples = [DialogueSample("persona talu", [("how", "talu decks")])]
        c = concat_grid(samples)
        s = split_pairs(samples, TOK)
        assert c.tokens.shape[0] == len(s) == 1
        np.testing.assert_array_equal(c.tokens[0], s[0][0])
        np.testing.assert_array_equal((c.loss_mask & c.is_agent)[0], s[0][1])
        model, adapters = small_setup(seed=14)
        loss_c, n_c = causal_loss(model, adapters, c)
        loss_s, n_s = causal_loss(model, adapters, pad_causal_batch(s))
        assert n_c == n_s and loss_c.item() == loss_s.item()

    def test_split_token_accounting(self):
        # split re-feeds every prefix: sum over rounds of |context_t| + |s_t|
        sample = DialogueSample("persona kavo",
                                [("how", "kavo sails"), ("why", "kavo winds"),
                                 ("when", "kavo tides")])
        pairs = make_split_samples(sample, TOK)
        seen = sum(len(c) + len(r) for c, r in pairs)
        inst = len(TOK.encode_instruction(sample.instruction))
        expected = 0
        prefix = inst
        for user, agent in sample.rounds:
            u = len(TOK.encode_utterance("user", user))
            a = len(TOK.encode_utterance("agent", agent))
            prefix += u
            expected += prefix + a
            prefix += a
        assert seen == expected
        concat_len = prefix
        assert seen > concat_len  # the split layout re-reads earlier rounds


class TestTrainLoop:
    def corpus(self, n=6, seed=0):
        return synth_generate(seed, n, default_synth_spec())

    def test_loss_log_schema_and_determinism(self):
        cfg = TrainConfig(mode="midi", batch_size=3, epochs=2, lr=1e-3, seed=4)
        r1 = train(self.corpus(), cfg, model_config=SMALL)
        r2 = train(self.corpus(), cfg, model_config=SMALL)
        assert len(r1.loss_log) == 2 * 2  # ceil(6/3) batches x 2 epochs
        for rec in r1.loss_log:
            assert set(rec) == {"step", "L_s", "L_u", "L_total", "lr"}
        assert r1.loss_log == r2.loss_log

    @pytest.mark.parametrize("mode", ["midi", "concat"])
    def test_adapters_carry_the_trained_regime(self, mode):
        # decoding reads the regime off the adapters; concat ignores the options
        cfg = TrainConfig(mode=mode, batch_size=6, epochs=1, strict_cross_round=True,
                          user_sees_instruction=False)
        adapters = train(self.corpus(), cfg, model_config=SMALL).adapters
        midi = mode == "midi"
        assert adapters.regime == {"strict_cross_round": midi, "user_sees_instruction": not midi}

    def test_base_weights_bitwise_frozen(self):
        cfg = TrainConfig(mode="midi", batch_size=3, epochs=2, lr=1e-2, seed=5)
        model = Transformer.create(SMALL, cfg.seed)
        before = {k: v.copy() for k, v in model.base.named_arrays().items()}
        train(self.corpus(), cfg, model_config=SMALL, model=model)
        after = model.base.named_arrays()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_concat_and_split_logs_identical_on_single_round_corpus(self):
        spec = default_synth_spec()
        one_round = [DialogueSample(s.instruction, s.rounds[:1], None)
                     for s in synth_generate(9, 6, spec)]
        base = dict(batch_size=3, epochs=1, lr=1e-3, seed=11)
        log_c = train(one_round, TrainConfig(mode="concat", **base), model_config=SMALL).loss_log
        log_s = train(one_round, TrainConfig(mode="split", **base), model_config=SMALL).loss_log
        assert log_c == log_s

    def test_modes_share_base_and_agent_initialization(self):
        # each role's init draws from its own labeled stream, so an
        # agent-only adapter set (what the whole-sequence modes train) starts
        # from exactly the same agent matrices as the dual-role set
        both = RoleAdapters(SMALL, rank=4, alpha=8.0, seed=21)
        agent_only = RoleAdapters(SMALL, rank=4, alpha=8.0, seed=21,
                                  targets={"agent": ("q", "v")})
        for key in both.deltas["agent"]:
            np.testing.assert_array_equal(both.deltas["agent"][key].A.data,
                                          agent_only.deltas["agent"][key].A.data)
        assert agent_only.deltas["user"] == {}
        # and the backbone depends only on the seed, not the mode
        a = Transformer.create(SMALL, 21).base.named_arrays()
        b = Transformer.create(SMALL, 21).base.named_arrays()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_training_reduces_loss(self):
        cfg = TrainConfig(mode="midi", batch_size=6, epochs=6, lr=5e-3, seed=6)
        result = train(self.corpus(n=12), cfg, model_config=SMALL)
        first = result.loss_log[0]["L_total"]
        last = np.mean([r["L_total"] for r in result.loss_log[-3:]])
        assert last < first

    def test_gradient_accumulation_matches_full_batch_on_equal_sized_samples(self):
        # two identical dialogues: the full batch and two half-weighted
        # micro-passes must accumulate the same adapter gradients
        sample = synth_generate(13, 1, default_synth_spec())[0]
        twin = DialogueSample(sample.instruction, list(sample.rounds), None)
        pair = [sample, twin]
        cfg = TrainConfig(beta=1.0)

        def grads_of(micro_units):
            model, adapters = small_setup(seed=12)
            for p in adapters.trainable_parameters().values():
                p.zero_grad()
            scale = 1.0 / len(micro_units)
            for unit in micro_units:
                with Tape() as tape:
                    [batch] = build_round_batches(unit, TOK, len(unit))
                    ls, lu, _, _ = midi_losses(model, adapters, batch, cfg)
                    total = combine_losses(ls, lu, cfg.beta)
                    scaled = total * scale if scale != 1.0 else total
                tape.backward(scaled)
            return {name: p.grad for name, p in adapters.trainable_parameters().items()}

        full = grads_of([pair])
        accumulated = grads_of([[sample], [twin]])
        for name in full:
            assert full[name] is not None and accumulated[name] is not None
            np.testing.assert_allclose(accumulated[name], full[name],
                                       rtol=1e-4, atol=1e-7, err_msg=name)

    def test_micro_batch_training_runs_and_tracks_full_batch_losses(self):
        sample = synth_generate(13, 1, default_synth_spec())[0]
        twin = DialogueSample(sample.instruction, list(sample.rounds), None)
        pair = [sample, twin]
        base = dict(mode="midi", batch_size=2, epochs=1, lr=1e-4, seed=7)
        log_full = train(pair, TrainConfig(**base), model_config=SMALL).loss_log
        log_micro = train(pair, TrainConfig(micro_batch=1, **base), model_config=SMALL).loss_log
        assert len(log_full) == len(log_micro) == 1
        for key in ("L_s", "L_u", "L_total"):
            assert log_micro[0][key] == pytest.approx(log_full[0][key], abs=1e-5)

    def test_divergence_guard_aborts(self, monkeypatch):
        def poisoned(*args, **kwargs):
            nan = Tensor(np.asarray(np.nan, dtype=np.float32))
            return nan, nan, 1, 1
        monkeypatch.setattr(tr, "midi_losses", poisoned)
        with pytest.raises(RuntimeError, match="diverged"):
            train(self.corpus(), TrainConfig(mode="midi", batch_size=6, epochs=1),
                  model_config=SMALL)

    def test_every_mode_trains_on_the_same_fitted_rounds(self, monkeypatch):
        # 8-round dialogues overflow 96 positions: every mode must drop the
        # same earliest rounds, keep the instruction, and train
        spec = SynthSpec(**{**default_synth_spec().to_dict(), "rounds_min": 8, "rounds_max": 8})
        corpus = synth_generate(2, 4, spec)
        tight = dataclasses.replace(SMALL, max_positions=96)

        def length(instruction, rounds):
            return len(TOK.encode_instruction(instruction)) + sum(
                len(TOK.encode_utterance("user", u)) + len(TOK.encode_utterance("agent", a))
                for u, a in rounds)

        expected = set()
        for s in corpus:
            drop = next(k for k in range(len(s.rounds)) if length(s.instruction, s.rounds[k:]) <= 96)
            assert drop > 0
            expected.add((s.instruction, tuple(s.rounds[drop:])))

        seen = set()
        real_build, real_split = tr.build_round_batches, tr.make_split_samples

        def spy_build(*args, **kwargs):
            batches = real_build(*args, **kwargs)
            seen.update((s.instruction, tuple(s.rounds)) for b in batches for s in b.samples)
            return batches

        def spy_split(sample, tokenizer):
            seen.add((sample.instruction, tuple(sample.rounds)))
            return real_split(sample, tokenizer)

        monkeypatch.setattr(tr, "build_round_batches", spy_build)
        monkeypatch.setattr(tr, "make_split_samples", spy_split)
        for mode in ("midi", "concat", "split"):
            seen.clear()
            cfg = TrainConfig(mode=mode, batch_size=2, epochs=1, lr=1e-3, seed=3)
            log = train(corpus, cfg, model_config=tight).loss_log
            assert log and all(math.isfinite(r["L_total"]) for r in log)
            assert seen == expected, mode

    def test_dialogue_beyond_max_positions_at_one_round_rejected(self):
        sample = DialogueSample("i", [("u" * 50, "a" * 50)])
        tight = dataclasses.replace(SMALL, max_positions=20)
        for mode in ("midi", "concat", "split"):
            with pytest.raises(CapacityError):
                train([sample], TrainConfig(mode=mode), model_config=tight)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            train([], TrainConfig(), model_config=SMALL)
