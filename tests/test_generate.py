"""Tests for sampling, memory priming, and incremental generation."""

import numpy as np
import pytest

from roletune.data import ByteTokenizer
from roletune.errors import CapacityError, ConfigError
from roletune.generate import (
    GenerationConfig,
    Utterance,
    candidate_ids,
    extend_memory,
    generate_response,
    prime_memory,
    sample_from_logits,
    self_chat,
)
from roletune.model import ModelConfig, RoleAdapters, Transformer

TOK = ByteTokenizer()
CFG = ModelConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32,
                  vocab_size=ByteTokenizer.vocab_size, max_positions=256)


def make_model(seed=0, max_positions=256):
    cfg = CFG if max_positions == 256 else ModelConfig(
        d_model=16, n_layers=2, n_heads=2, d_ff=32,
        vocab_size=ByteTokenizer.vocab_size, max_positions=max_positions)
    model = Transformer.create(cfg, seed)
    adapters = RoleAdapters(cfg, rank=2, alpha=4.0, seed=seed)
    rng = np.random.default_rng(seed + 99)
    for t in adapters.trainable_parameters().values():
        t.data = rng.normal(0.0, 0.1, size=t.shape).astype(np.float32)
    return model, adapters


def greedy_over_candidates(logits):
    ids = candidate_ids(len(logits))
    return int(ids[np.argmax(np.asarray(logits, dtype=np.float64)[ids])])


class TestGenerationConfig:
    def test_defaults(self):
        cfg = GenerationConfig()
        assert cfg.top_p == 0.75 and cfg.top_k == 40
        assert cfg.temperature == 1.0 and cfg.max_new_tokens == 100

    @pytest.mark.parametrize("bad", [
        dict(temperature=0.0), dict(temperature=-1.0), dict(top_k=0),
        dict(top_p=0.0), dict(top_p=1.5), dict(max_new_tokens=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            GenerationConfig(**bad)

    def test_top_k_none_allowed(self):
        assert GenerationConfig(top_k=None).top_k is None

    def test_dict_round_trip(self):
        cfg = GenerationConfig(temperature=0.7, top_k=None, top_p=0.9, seed=5)
        assert GenerationConfig.from_dict(cfg.to_dict()) == cfg


class TestCandidateIds:
    def test_structural_ids_excluded(self):
        ids = set(candidate_ids(512).tolist())
        assert ByteTokenizer.EOS in ids
        for special in (ByteTokenizer.PAD, ByteTokenizer.BOS,
                        ByteTokenizer.ROLE_USER, ByteTokenizer.ROLE_AGENT):
            assert special not in ids

    def test_ids_past_byte_range_excluded(self):
        ids = candidate_ids(512)
        assert ids.max() == ByteTokenizer.vocab_size - 1
        assert len(ids) == 257  # end marker + 256 byte tokens

    def test_clipped_to_logit_width(self):
        ids = candidate_ids(100)
        assert ids.max() == 99 and len(ids) == 1 + (100 - ByteTokenizer.OFFSET)


class TestSampleFromLogits:
    def spiked_logits(self, spec, width=CFG.vocab_size):
        """Logits at -1e9 except ln(prob) at the given byte ids."""
        logits = np.full(width, -1.0e9, dtype=np.float64)
        for token_id, prob in spec.items():
            logits[token_id] = np.log(prob)
        return logits

    def test_nucleus_cut_renormalizes(self):
        # candidates at 0.5/0.3/0.15/0.05 with top_p=0.75 keep the first two,
        # renormalized to 0.625/0.375
        spec = {10: 0.5, 11: 0.3, 12: 0.15, 13: 0.05}
        logits = self.spiked_logits(spec)
        cfg = GenerationConfig(top_p=0.75, top_k=40, seed=0)
        rng = np.random.default_rng(123)
        draws = [sample_from_logits(logits, rng, cfg) for _ in range(20000)]
        counts = {i: draws.count(i) for i in set(draws)}
        assert set(counts) == {10, 11}
        assert counts[10] / 20000 == pytest.approx(0.625, abs=0.02)
        assert counts[11] / 20000 == pytest.approx(0.375, abs=0.02)

    def test_top_k_one_is_greedy(self):
        rng_logits = np.random.default_rng(7)
        cfg = GenerationConfig(top_k=1, seed=0)
        for trial in range(25):
            logits = rng_logits.normal(size=CFG.vocab_size)
            rng = np.random.default_rng(trial)
            assert sample_from_logits(logits, rng, cfg) == greedy_over_candidates(logits)

    def test_tiny_top_p_is_greedy(self):
        rng_logits = np.random.default_rng(8)
        cfg = GenerationConfig(top_p=1e-9, top_k=None, seed=0)
        for trial in range(25):
            logits = rng_logits.normal(size=CFG.vocab_size)
            rng = np.random.default_rng(trial)
            assert sample_from_logits(logits, rng, cfg) == greedy_over_candidates(logits)

    def test_top_p_one_keeps_full_distribution(self):
        spec = {20: 0.6, 21: 0.4}
        logits = self.spiked_logits(spec)
        cfg = GenerationConfig(top_p=1.0, top_k=None, seed=0)
        rng = np.random.default_rng(5)
        draws = {sample_from_logits(logits, rng, cfg) for _ in range(500)}
        assert draws == {20, 21}

    def test_low_temperature_sharpens(self):
        spec = {30: 0.7, 31: 0.3}
        logits = self.spiked_logits(spec)
        cfg = GenerationConfig(temperature=0.01, top_p=1.0, top_k=None, seed=0)
        rng = np.random.default_rng(6)
        draws = {sample_from_logits(logits, rng, cfg) for _ in range(200)}
        assert draws == {30}

    def test_structural_ids_never_sampled(self):
        logits = np.zeros(CFG.vocab_size)
        logits[ByteTokenizer.PAD] = 50.0
        logits[ByteTokenizer.ROLE_AGENT] = 50.0
        cfg = GenerationConfig(top_p=1.0, top_k=None, seed=0)
        rng = np.random.default_rng(9)
        for _ in range(200):
            token = sample_from_logits(logits, rng, cfg)
            assert token not in ByteTokenizer.SPECIALS or token == ByteTokenizer.EOS

    def test_top_k_filters_before_top_p(self):
        # four near-equal candidates but top_k=2: only the two best survive
        # even though top_p=1.0 would have kept all four
        spec = {40: 0.28, 41: 0.27, 42: 0.23, 43: 0.22}
        logits = self.spiked_logits(spec)
        cfg = GenerationConfig(top_k=2, top_p=1.0, seed=0)
        rng = np.random.default_rng(10)
        draws = {sample_from_logits(logits, rng, cfg) for _ in range(500)}
        assert draws == {40, 41}


class TestPrimeMemory:
    def test_slot_accounting(self):
        model, adapters = make_model()
        turns = [("user", "how why"), ("agent", "kavo sails")]
        mem = prime_memory(model, adapters, TOK, "persona kavo", turns)
        inst = TOK.encode_instruction("persona kavo")
        segs = [TOK.encode_utterance(r, t) for r, t in turns]
        total = len(inst) + sum(len(s) for s in segs)
        assert mem.stored == total
        assert mem.counts.tolist() == [total]
        assert mem.validity.all()
        expected_segments = [0] * len(inst) + [1] * len(segs[0]) + [2] * len(segs[1])
        assert mem.segments.tolist() == expected_segments

    def test_unknown_role_rejected(self):
        model, adapters = make_model()
        with pytest.raises(ConfigError, match="turn 2"):
            prime_memory(model, adapters, TOK, "i", [("user", "a"), ("narrator", "b")])

    def test_capacity_overflow_names_failing_turn(self):
        model, adapters = make_model(max_positions=16)
        with pytest.raises(CapacityError, match="priming failed"):
            prime_memory(model, adapters, TOK, "persona kavo",
                         [("user", "a very long utterance indeed")])

    def test_empty_history_keeps_instruction_only(self):
        model, adapters = make_model()
        mem = prime_memory(model, adapters, TOK, "hello", [])
        assert mem.stored == len(TOK.encode_instruction("hello"))
        assert (mem.segments == 0).all()


class TestGenerateResponse:
    def test_shape_and_determinism(self):
        model, adapters = make_model(seed=3)
        mem = prime_memory(model, adapters, TOK, "persona kavo",
                           [("user", "how why")])
        cfg = GenerationConfig(max_new_tokens=12, seed=42)
        out1, mem1 = generate_response(model, adapters, TOK, mem, "agent", cfg)
        out2, _ = generate_response(model, adapters, TOK, mem, "agent", cfg)
        assert out1.ids == out2.ids and out1.text == out2.text
        assert out1.ids[0] == ByteTokenizer.ROLE_AGENT
        assert out1.ids[-1] == ByteTokenizer.EOS
        assert len(out1.ids) <= 1 + cfg.max_new_tokens
        # the new memory holds exactly the forwarded utterance slots
        assert mem1.stored == mem.stored + len(out1.ids)
        # the whole reply is one segment, the one after the primed turns
        assert (mem1.segments[mem.stored:] == 2).all()

    def test_text_matches_byte_ids(self):
        model, adapters = make_model(seed=4)
        mem = prime_memory(model, adapters, TOK, "persona zuri", [])
        cfg = GenerationConfig(max_new_tokens=10, seed=1)
        out, _ = generate_response(model, adapters, TOK, mem, "user", cfg)
        byte_ids = [i for i in out.ids[1:] if i != ByteTokenizer.EOS]
        assert out.text == TOK.decode(byte_ids, errors="replace")

    def test_budget_cutoff_forces_end_marker(self):
        model, adapters = make_model(seed=5)
        mem = prime_memory(model, adapters, TOK, "persona melo", [])
        cfg = GenerationConfig(max_new_tokens=3, top_p=1.0, top_k=None, seed=2)
        out, mem2 = generate_response(model, adapters, TOK, mem, "agent", cfg)
        assert out.ids[-1] == ByteTokenizer.EOS
        assert len(out.ids) <= 4
        if len(out.ids) == 4 and ByteTokenizer.EOS not in out.ids[1:3]:
            assert out.truncated and not out.exhausted
        # well-formed memory: marker slot included
        assert mem2.stored == mem.stored + len(out.ids)

    def test_capacity_cutoff_sets_truncated(self):
        model, adapters = make_model(max_positions=20)
        mem = prime_memory(model, adapters, TOK, "persona pira", [])
        cfg = GenerationConfig(max_new_tokens=50, seed=3)
        out, mem2 = generate_response(model, adapters, TOK, mem, "agent", cfg)
        assert out.truncated and out.exhausted
        assert out.ids[-1] == ByteTokenizer.EOS
        assert mem2.stored <= 20

    def test_incremental_matches_full_recompute(self):
        # drive 20 greedy byte steps through the rolling cache, then replay
        # every prefix as one whole segment over a freshly primed memory:
        # the chosen token must agree at every step
        from roletune.generate import _forward_slots

        model, adapters = make_model(seed=6)
        instruction = "persona sena"
        turns = [("user", "tell me about")]

        mem = prime_memory(model, adapters, TOK, instruction, turns)
        agent = model.merge_role(adapters, "agent")
        byte_candidates = candidate_ids(CFG.vocab_size)
        byte_candidates = byte_candidates[byte_candidates != ByteTokenizer.EOS]

        chosen = []
        logits, rolling = _forward_slots(agent, adapters.regime, mem,
                                         [ByteTokenizer.ROLE_AGENT], "agent",
                                         2, "seed token")
        incremental_logits = [logits.copy()]
        for _ in range(20):
            token = int(byte_candidates[np.argmax(
                np.asarray(logits, dtype=np.float64)[byte_candidates])])
            chosen.append(token)
            logits, rolling = _forward_slots(agent, adapters.regime, rolling, [token],
                                             "agent", 2, "generation")
            incremental_logits.append(logits.copy())

        for j in range(21):
            fresh = prime_memory(model, adapters, TOK, instruction, turns)
            segment = [ByteTokenizer.ROLE_AGENT] + chosen[:j]
            full_logits, _ = _forward_slots(agent, adapters.regime, fresh, segment,
                                            "agent", 2, "replay")
            np.testing.assert_allclose(full_logits, incremental_logits[j],
                                       rtol=1e-4, atol=1e-5)
            if j < 20:
                replay_choice = int(byte_candidates[np.argmax(
                    np.asarray(full_logits, dtype=np.float64)[byte_candidates])])
                assert replay_choice == chosen[j]


class TestCacheGrowth:
    """A reply grows a new memory over the K/V the model attended over; the
    memory it grew from stays whole, as the branch point evaluation reuses."""

    def test_reply_keeps_the_prefix_and_the_branch_point(self):
        model, adapters = make_model(seed=8)
        instruction, user, gold = "persona kavo", "how why", "kavo sails"
        mem = prime_memory(model, adapters, TOK, instruction, [])
        mem = extend_memory(model, adapters, TOK, mem, "user", user)
        before = [(k.tobytes(), v.tobytes()) for k, v in mem.layers]
        _, grown = generate_response(model, adapters, TOK, mem, "agent",
                                     GenerationConfig(max_new_tokens=8, seed=1))
        assert grown.stored > mem.stored
        for (k, v), (k_grown, v_grown) in zip(mem.layers, grown.layers):
            assert k_grown[:, :, :mem.stored].tobytes() == k.tobytes()
            assert v_grown[:, :, :mem.stored].tobytes() == v.tobytes()
        assert [(k.tobytes(), v.tobytes()) for k, v in mem.layers] == before

        # evaluate's branch: the gold reply extends the memory the sample grew from
        branch = extend_memory(model, adapters, TOK, mem, "agent", gold)
        fresh = prime_memory(model, adapters, TOK, instruction, [])
        for role, text in (("user", user), ("agent", gold)):
            fresh = extend_memory(model, adapters, TOK, fresh, role, text)
        for (k, v), (k_fresh, v_fresh) in zip(branch.layers, fresh.layers):
            assert k.tobytes() == k_fresh.tobytes() and v.tobytes() == v_fresh.tobytes()
        np.testing.assert_array_equal(branch.segments, fresh.segments)
        np.testing.assert_array_equal(branch.counts, fresh.counts)


    def test_a_reply_grows_in_the_primed_store(self):
        # prime, a user turn and a reply are one chain: while the store has
        # room, every memory of it views one K and one V buffer per layer
        model, adapters = make_model(seed=8)
        primed = prime_memory(model, adapters, TOK, "persona kavo", [])
        mem = extend_memory(model, adapters, TOK, primed, "user", "how")
        _, grown = generate_response(model, adapters, TOK, mem, "agent",
                                     GenerationConfig(max_new_tokens=4, seed=1))
        assert grown.stored > mem.stored and grown.capacity == primed.capacity
        for (k, v), (k_grown, v_grown) in zip(primed.layers, grown.layers):
            assert np.shares_memory(k, k_grown) and np.shares_memory(v, v_grown)

    def test_failed_cached_forward_leaves_the_memory_usable(self):
        model, adapters = make_model(seed=8)
        mem = prime_memory(model, adapters, TOK, "persona kavo", [("user", "how why")])
        before = ([(k.tobytes(), v.tobytes()) for k, v in mem.layers],
                  mem.validity.tobytes(), mem.segments.tobytes(), mem.counts.tobytes())
        agent = model.merge_role(adapters, "agent")
        validity = np.ones((1, 1), dtype=bool)
        mask = mem.build_mask(validity, mem.next_segment, "agent")
        mask[0, 0, 0] = np.nan  # a non-finite score: attention refuses it
        with pytest.raises(ValueError, match="non-finite"):
            agent.forward_segment(np.array([[ByteTokenizer.ROLE_AGENT]]),
                                  mem.next_positions(validity), "agent",
                                  cache=mem.layers, mask=mask)
        assert ([(k.tobytes(), v.tobytes()) for k, v in mem.layers],
                mem.validity.tobytes(), mem.segments.tobytes(),
                mem.counts.tobytes()) == before

        cfg = GenerationConfig(max_new_tokens=6, seed=3)
        reply, after = generate_response(model, adapters, TOK, mem, "agent", cfg)
        fresh = prime_memory(model, adapters, TOK, "persona kavo", [("user", "how why")])
        want, want_after = generate_response(model, adapters, TOK, fresh, "agent", cfg)
        assert reply.ids == want.ids
        for (k, v), (k_want, v_want) in zip(after.layers, want_after.layers):
            assert k.tobytes() == k_want.tobytes() and v.tobytes() == v_want.tobytes()

    def test_cached_forward_under_a_tape_rejected(self):
        # the memory keeps K/V as plain data, so a cached forward carries no
        # key/value gradient; one under a tape would drop it silently
        from roletune.tensor import Tape

        model, adapters = make_model(seed=8)
        mem = prime_memory(model, adapters, TOK, "persona kavo", [])
        validity = np.ones((1, 1), dtype=bool)
        with Tape(), pytest.raises(ConfigError, match="outside a tape"):
            model.forward_segment(np.array([[ByteTokenizer.ROLE_AGENT]]),
                                  mem.next_positions(validity), "agent", adapters,
                                  cache=mem.layers,
                                  mask=mem.build_mask(validity, mem.next_segment, "agent"))


class TestMergedDecoding:
    """Decoding runs each role on its merged weights, W + (alpha/r) B A."""

    def segment(self):
        ids = TOK.encode_instruction("persona kavo") + TOK.encode_utterance("user", "how why")
        tokens = np.asarray(ids, dtype=np.int64)[None, :]
        return tokens, np.arange(tokens.shape[1])[None, :]

    @pytest.mark.parametrize("role", ["agent", "user"])
    def test_fresh_deltas_merge_bit_exactly(self, role):
        model = Transformer.create(CFG, 1)
        adapters = RoleAdapters(CFG, rank=2, alpha=4.0, seed=1)  # B = 0
        tokens, positions = self.segment()
        merged, _ = model.merge_role(adapters, role).forward_segment(tokens, positions, role)
        unmerged, _ = model.forward_segment(tokens, positions, role, adapters)
        assert merged.data.tobytes() == unmerged.data.tobytes()

    @pytest.mark.parametrize("role,adapted", [("agent", ("q", "v")), ("user", ("q",))])
    def test_nonzero_deltas_merge_within_tolerance(self, role, adapted):
        model, adapters = make_model(seed=2)
        tokens, positions = self.segment()
        role_model = model.merge_role(adapters, role)
        merged, _ = role_model.forward_segment(tokens, positions, role)
        unmerged, _ = model.forward_segment(tokens, positions, role, adapters)
        base, _ = model.forward_segment(tokens, positions, role)
        np.testing.assert_allclose(merged.data, unmerged.data, rtol=0, atol=1e-5)
        assert np.abs(unmerged.data - base.data).max() > 1e-3
        for name, t in model.base.params.items():
            own = name.split(".")[-1] not in {"w" + p for p in adapted}
            assert (role_model.base.params[name] is t) == own, name

    @staticmethod
    def unmerged_replay(model, adapters, mem, ids, role):
        """The memory after one forward of `ids` with the deltas unmerged."""
        tokens = np.asarray(ids, dtype=np.int64)[None, :]
        validity = np.ones(tokens.shape, dtype=bool)
        segment = mem.next_segment
        _, kv = model.forward_segment(tokens, mem.next_positions(validity), role, adapters,
                                      cache=mem.layers,
                                      mask=mem.build_mask(validity, segment, role))
        return mem.append(kv, validity, segment)

    def test_optimizer_step_reaches_the_next_reply(self):
        from roletune.training import AdamW

        model = Transformer.create(CFG, 3)
        adapters = RoleAdapters(CFG, rank=2, alpha=4.0, seed=3)
        mem = prime_memory(model, adapters, TOK, "persona kavo", [("user", "how why")])
        cfg = GenerationConfig(max_new_tokens=6, top_k=1, seed=0)
        generate_response(model, adapters, TOK, mem, "agent", cfg)  # merges before the step

        optimizer = AdamW(adapters.trainable_parameters())
        for t in optimizer.params.values():
            t.grad = np.ones_like(t.data)
        optimizer.step(lr=0.05)

        # the reply's stored slots equal an unmerged replay under the stepped
        # deltas, and differ from one under the deltas before the step
        reply, got = generate_response(model, adapters, TOK, mem, "agent", cfg)
        want = self.unmerged_replay(model, adapters, mem, reply.ids, "agent")
        for (k, v), (k_want, v_want) in zip(got.layers, want.layers):
            np.testing.assert_allclose(k, k_want, rtol=0, atol=1e-5)
            np.testing.assert_allclose(v, v_want, rtol=0, atol=1e-5)
        pre_step = self.unmerged_replay(model, RoleAdapters(CFG, rank=2, alpha=4.0, seed=3),
                                        mem, reply.ids, "agent")
        assert np.abs(want.layers[0][1] - pre_step.layers[0][1]).max() > 1e-3


class TestSelfChat:
    def test_zero_rounds(self):
        model, adapters = make_model(seed=7)
        sample, truncated = self_chat(model, adapters, TOK, "persona talu", 0,
                                      GenerationConfig(seed=0))
        assert sample.rounds == [] and not truncated
        assert sample.instruction == "persona talu"

    def test_negative_rounds_rejected(self):
        model, adapters = make_model(seed=7)
        with pytest.raises(ConfigError):
            self_chat(model, adapters, TOK, "i", -1, GenerationConfig())

    def test_round_structure_and_determinism(self):
        model, adapters = make_model(seed=8)
        cfg = GenerationConfig(max_new_tokens=8, seed=11)
        s1, t1 = self_chat(model, adapters, TOK, "persona kavo", 2, cfg)
        s2, t2 = self_chat(model, adapters, TOK, "persona kavo", 2, cfg)
        assert (s1.rounds, t1) == (s2.rounds, t2)
        assert len(s1.rounds) <= 2
        for user, agent in s1.rounds:
            assert isinstance(user, str) and isinstance(agent, str)

    def test_capacity_truncation_stops_chat(self):
        model, adapters = make_model(max_positions=40)
        cfg = GenerationConfig(max_new_tokens=30, seed=4)
        sample, truncated = self_chat(model, adapters, TOK, "persona zuri", 5, cfg)
        assert truncated
        assert len(sample.rounds) < 5

    def test_different_seeds_usually_differ(self):
        model, adapters = make_model(seed=9)
        a, _ = self_chat(model, adapters, TOK, "persona melo", 1,
                         GenerationConfig(max_new_tokens=10, seed=1))
        b, _ = self_chat(model, adapters, TOK, "persona melo", 1,
                         GenerationConfig(max_new_tokens=10, seed=2))
        assert a.rounds != b.rounds
