"""Segment-cached forward passes must reproduce full-sequence forwards.

Single role: any split of a token sequence into segments, run through the
memory cache, must match one plain causal pass. Dual role: alternating-role
segments must match the independent reference that switches deltas per token.
Padding: inserting pad slots anywhere must leave valid-position logits alone.
Regime: decoding a dialogue must match the training pass under every
visibility option the adapters were trained with.
"""

import numpy as np
import pytest

import roletune.generate as generate
from roletune.data import (ByteTokenizer, DialogueSample, build_round_batches,
                           visibility_mask)
from roletune.memory import RoundMemory
from roletune.model import ModelConfig, RoleAdapters, Transformer
from roletune.training import pack_round_batch

import _reference as ref


# embed_std=0.25 keeps logit magnitudes small so the padding-neutrality
# comparison stays inside its tight absolute tolerance at f32
CFG = ModelConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32, vocab_size=32,
                  max_positions=256, embed_std=0.25)


def make_model(seed=0, dtype=np.float32, config=CFG):
    model = Transformer.create(config, seed)
    adapters = RoleAdapters(config, rank=2, alpha=4.0, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for t in adapters.trainable_parameters().values():
        t.data = rng.normal(0.0, 0.3, size=t.shape).astype(np.float32)
    if dtype != np.float32:
        for t in list(model.base.params.values()) + list(adapters.trainable_parameters().values()):
            t.data = t.data.astype(dtype)
    return model, adapters


def run_segmented(model, adapters, segments, roles, validities=None):
    """Push segments through the cache in order; returns per-segment logits."""
    c = model.config
    batch = segments[0].shape[0]
    dtype = model.base.params["embed"].dtype
    mem = RoundMemory.empty(batch, c.n_layers, c.n_heads, c.head_dim, dtype=dtype)
    out = []
    for idx, (seg, role) in enumerate(zip(segments, roles)):
        validity = np.ones_like(seg) if validities is None else validities[idx]
        positions = mem.next_positions(validity)
        mask = mem.build_mask(validity, idx, role)
        logits, kv = model.forward_segment(seg, positions, role, adapters,
                                           cache=mem.layers, mask=mask)
        mem = mem.append(kv, validity, idx)
        out.append(logits.data)
    return out, mem


def random_split(rng, n, max_parts=5):
    parts = int(rng.integers(1, min(max_parts, n) + 1))
    if parts == 1:
        return [n]
    cuts = np.sort(rng.choice(np.arange(1, n), size=parts - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [n]])
    return np.diff(bounds).tolist()


class TestSingleRoleEquivalence:
    @pytest.mark.parametrize("trial", range(8))
    def test_split_forward_matches_full_causal(self, trial):
        rng = np.random.default_rng(trial)
        model, adapters = make_model(seed=trial)
        n = int(rng.integers(8, 65))
        tokens = rng.integers(0, CFG.vocab_size, size=n)
        lengths = random_split(rng, n)
        segments, start = [], 0
        for ln in lengths:
            segments.append(tokens[start:start + ln][None, :])
            start += ln
        role = "agent" if trial % 2 else "user"

        parts, _ = run_segmented(model, adapters, segments, [role] * len(segments))
        full, _ = model.forward_segment(
            tokens[None, :], np.arange(n)[None, :], role, adapters
        )
        np.testing.assert_allclose(
            np.concatenate(parts, axis=1), full.data, atol=1e-5,
            err_msg=f"split {lengths} diverges from full causal pass",
        )

    def test_split_forward_matches_full_causal_f64(self):
        rng = np.random.default_rng(42)
        model, adapters = make_model(seed=3, dtype=np.float64)
        tokens = rng.integers(0, CFG.vocab_size, size=24)
        segments = [tokens[:7][None, :], tokens[7:12][None, :], tokens[12:][None, :]]
        parts, _ = run_segmented(model, adapters, segments, ["agent"] * 3)
        full, _ = model.forward_segment(tokens[None, :], np.arange(24)[None, :], "agent", adapters)
        np.testing.assert_allclose(np.concatenate(parts, axis=1), full.data, atol=1e-10)

    def test_batched_split_matches_full(self):
        rng = np.random.default_rng(7)
        model, adapters = make_model(seed=7)
        tokens = rng.integers(0, CFG.vocab_size, size=(3, 20))
        segments = [tokens[:, :6], tokens[:, 6:11], tokens[:, 11:]]
        parts, _ = run_segmented(model, adapters, segments, ["user"] * 3)
        full, _ = model.forward_segment(
            tokens, np.tile(np.arange(20), (3, 1)), "user", adapters
        )
        np.testing.assert_allclose(np.concatenate(parts, axis=1), full.data, atol=1e-5)


class TestDualRoleEquivalence:
    @pytest.mark.parametrize("trial", range(5))
    def test_alternating_roles_match_reference(self, trial):
        rng = np.random.default_rng(200 + trial)
        model, adapters = make_model(seed=trial)
        segments, roles, role_codes = [], [], []
        for _ in range(3):  # three rounds: user utterance then agent utterance
            for role, code in (("user", 0), ("agent", 1)):
                ln = int(rng.integers(2, 7))
                segments.append(rng.integers(0, CFG.vocab_size, size=(1, ln)))
                roles.append(role)
                role_codes.append(np.full(ln, code))
        parts, _ = run_segmented(model, adapters, segments, roles)

        tokens = np.concatenate(segments, axis=1)
        n = tokens.shape[1]
        ad = dict(adapters.named_arrays())
        ad["alpha"] = adapters.alpha
        expected = ref.forward_full(
            CFG.to_dict(), model.base.named_arrays(), ad,
            tokens, np.arange(n)[None, :], np.concatenate(role_codes)[None, :],
        )
        np.testing.assert_allclose(np.concatenate(parts, axis=1), expected, atol=1e-5)

    def test_instruction_prefix_under_agent_deltas(self):
        # an instruction segment is cached under the agent's projections
        rng = np.random.default_rng(300)
        model, adapters = make_model(seed=9)
        instruction = rng.integers(0, CFG.vocab_size, size=(1, 5))
        user = rng.integers(0, CFG.vocab_size, size=(1, 4))
        agent = rng.integers(0, CFG.vocab_size, size=(1, 4))

        c = model.config
        mem = RoundMemory.empty(1, c.n_layers, c.n_heads, c.head_dim)
        parts = []
        for segment, (seg, role) in enumerate(((instruction, "agent"), (user, "user"),
                                               (agent, "agent"))):
            validity = np.ones_like(seg)
            positions = mem.next_positions(validity)
            mask = mem.build_mask(validity, segment, role)
            logits, kv = model.forward_segment(seg, positions, role, adapters,
                                               cache=mem.layers, mask=mask)
            mem = mem.append(kv, validity, segment)
            parts.append(logits.data)

        tokens = np.concatenate([instruction, user, agent], axis=1)
        codes = np.concatenate([np.ones(5), np.zeros(4), np.ones(4)])[None, :]
        ad = dict(adapters.named_arrays())
        ad["alpha"] = adapters.alpha
        expected = ref.forward_full(
            CFG.to_dict(), model.base.named_arrays(), ad,
            tokens, np.arange(13)[None, :], codes,
        )
        np.testing.assert_allclose(np.concatenate(parts, axis=1), expected, atol=1e-5)


class TestPaddingNeutrality:
    @pytest.mark.parametrize("trial", range(4))
    def test_padding_layout_does_not_move_valid_logits(self, trial):
        rng = np.random.default_rng(400 + trial)
        model, adapters = make_model(seed=trial + 20)
        rounds = [rng.integers(1, CFG.vocab_size, size=int(rng.integers(2, 6)))
                  for _ in range(3)]
        roles = ["user", "agent", "user"]

        bare_segments = [r[None, :] for r in rounds]
        bare, _ = run_segmented(model, adapters, bare_segments, roles)

        padded_segments, validities = [], []
        for r in rounds:
            pad = int(rng.integers(1, 4))
            grid = np.zeros((1, len(r) + pad), dtype=r.dtype)
            keep = np.sort(rng.choice(len(r) + pad, size=len(r), replace=False))
            grid[0, keep] = r
            validity = np.zeros_like(grid)
            validity[0, keep] = 1
            padded_segments.append(grid)
            validities.append(validity)
        padded, _ = run_segmented(model, adapters, padded_segments, roles, validities)

        for i, validity in enumerate(validities):
            keep = validity[0].astype(bool)
            np.testing.assert_allclose(
                padded[i][0, keep], bare[i][0], atol=1e-6,
                err_msg=f"round {i}: padding layout shifted valid-position logits",
            )

    def test_fresh_padded_batch_rows_match_solo_runs(self):
        # two dialogues of different lengths padded into one batch
        rng = np.random.default_rng(500)
        model, adapters = make_model(seed=31)
        a = rng.integers(1, CFG.vocab_size, size=5)
        b = rng.integers(1, CFG.vocab_size, size=3)
        grid = np.zeros((2, 5), dtype=np.int64)
        grid[0, :5] = a
        grid[1, :3] = b
        validity = np.array([[1] * 5, [1, 1, 1, 0, 0]])

        batched, _ = run_segmented(model, adapters, [grid], ["agent"], [validity])
        solo_a, _ = run_segmented(model, adapters, [a[None, :]], ["agent"])
        solo_b, _ = run_segmented(model, adapters, [b[None, :]], ["agent"])
        np.testing.assert_allclose(batched[0][0, :5], solo_a[0][0], atol=1e-6)
        np.testing.assert_allclose(batched[0][1, :3], solo_b[0][0], atol=1e-6)


class TestPaddedBatchF64:
    def test_padded_batch_rows_match_their_full_passes(self):
        # three rows padded differently, a prefill, turns and one-token
        # steps under alternating roles, at f64; the memory's store grows
        # twice on the way
        rng = np.random.default_rng(600)
        model, adapters = make_model(seed=41, dtype=np.float64)
        lengths = [6, 4, 1, 1, 5, 1, 1, 1, 3, 1, 2, 1]
        roles = ["agent", "user", "user", "user", "agent", "agent",
                 "agent", "agent", "user", "user", "agent", "agent"]
        segments, validities = [], []
        for ln in lengths:
            validity = rng.random((3, ln)) < 0.75
            segments.append(np.where(validity, rng.integers(1, CFG.vocab_size, size=(3, ln)), 0))
            validities.append(validity.astype(np.int64))
        parts, mem = run_segmented(model, adapters, segments, roles, validities)
        assert mem.stored == sum(lengths) and mem.capacity >= mem.stored

        logits = np.concatenate(parts, axis=1)
        validity = np.concatenate(validities, axis=1).astype(bool)
        is_agent = np.concatenate([np.full(ln, r == "agent") for ln, r in zip(lengths, roles)])
        tokens = np.concatenate(segments, axis=1)
        for b in range(3):
            keep = validity[b]
            n = int(keep.sum())
            full, _ = model.forward_segment(tokens[b, keep][None, :], np.arange(n)[None, :],
                                            is_agent[keep][None, :], adapters)
            np.testing.assert_allclose(logits[b, keep], full.data[0], atol=1e-10)
        np.testing.assert_array_equal(mem.counts, validity.sum(axis=1))


class TestDecodingRegime:
    """Priming plus token-by-token replies decode under the regime the
    adapters carry, so they reproduce the logits of the training pass."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("user_sees_instruction", [True, False])
    def test_decoded_logits_match_training_pass(self, monkeypatch, strict,
                                                user_sees_instruction):
        tok = ByteTokenizer()
        config = ModelConfig(**{**CFG.to_dict(), "vocab_size": tok.vocab_size})
        model, adapters = make_model(seed=12, config=config)  # nonzero deltas, both roles
        adapters.regime["strict_cross_round"] = strict
        adapters.regime["user_sees_instruction"] = user_sees_instruction
        sample = DialogueSample("persona kavo", [("how why", "kavo sails"),
                                                 ("tell me", "kavo maps far")])

        # replies are forced to the sample's text; record the logits they see
        forced, seen = [], []

        def force(logits, rng, cfg):
            seen.append(np.array(logits))
            return forced.pop(0)

        monkeypatch.setattr(generate, "sample_from_logits", force)
        cfg = generate.GenerationConfig(max_new_tokens=32)
        memory = generate.prime_memory(model, adapters, tok, sample.instruction,
                                       list(zip(("user", "agent"), sample.rounds[0])))
        for role, text in zip(("user", "agent"), sample.rounds[1]):
            forced.extend(tok.encode(text) + [tok.EOS])
            _, memory = generate.generate_response(model, adapters, tok, memory, role, cfg)

        [batch] = build_round_batches([sample], tok, 1)
        packed = pack_round_batch(batch)
        mask = visibility_mask(packed.segments, packed.validity, packed.is_agent,
                               packed.segments, packed.validity, 0, strict,
                               user_sees_instruction)
        full, _ = model.forward_segment(packed.tokens, packed.positions, packed.is_agent,
                                        adapters, mask=mask)
        # every slot of the two decoded replies but their closing markers
        segments = packed.segments[0]
        decoded = (segments >= 3) & (np.roll(segments, -1) == segments)
        assert memory.segments.tolist() == segments.tolist()
        np.testing.assert_allclose(np.stack(seen), full.data[0, decoded], rtol=0, atol=1e-5)
