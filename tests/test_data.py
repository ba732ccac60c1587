"""Tests for tokenization, corpus IO, round batching, and synthetic data."""

import json

import numpy as np
import pytest

from _reference import attended_kv
from roletune.data import (
    ByteTokenizer,
    DialogueSample,
    RoundBatch,
    SynthSpec,
    build_round_batches,
    default_synth_spec,
    fit_dialogue,
    load_corpus,
    make_split_samples,
    save_corpus,
    synth_generate,
)
from roletune.errors import CapacityError, ConfigError, CorpusError
from roletune.memory import RoundMemory
from roletune.model import ModelConfig, RoleAdapters, Transformer
from roletune.training import causal_loss, pack_round_batch, shifted_targets

TOK = ByteTokenizer()


class TestTokenizer:
    def test_empty_round_trip(self):
        assert TOK.encode("") == []
        assert TOK.decode([]) == ""

    def test_ascii_round_trip_with_offset(self):
        ids = TOK.encode("abc")
        assert ids == [ord("a") + 5, ord("b") + 5, ord("c") + 5]
        assert TOK.decode(ids) == "abc"

    def test_multibyte_round_trip(self):
        text = "héllo ✓ 日本"
        assert TOK.decode(TOK.encode(text)) == text

    def test_random_text_round_trips(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            # random unicode drawn from several planes, always re-encodable
            points = rng.integers(32, 0x2FA0, size=64)
            text = "".join(chr(p) for p in points if chr(p).isprintable())
            assert TOK.decode(TOK.encode(text)) == text

    def test_specials_never_produced_from_text(self):
        ids = TOK.encode("".join(chr(c) for c in range(32, 127)))
        assert min(ids) >= ByteTokenizer.OFFSET

    def test_decode_rejects_specials_and_unknown_ids(self):
        for bad in (ByteTokenizer.PAD, ByteTokenizer.EOS, ByteTokenizer.ROLE_USER, 261, 500):
            with pytest.raises(IndexError):
                TOK.decode([bad])

    def test_decode_errors_mode_recovers_invalid_byte_runs(self):
        # 0xFF alone is not valid UTF-8; relaxed decoding must not raise
        assert TOK.decode([0xFF + 5], errors="replace") != ""
        with pytest.raises(UnicodeDecodeError):
            TOK.decode([0xFF + 5])

    def test_utterance_layout(self):
        ids = TOK.encode_utterance("agent", "hi")
        assert ids[0] == ByteTokenizer.ROLE_AGENT
        assert ids[-1] == ByteTokenizer.EOS
        assert TOK.decode(ids[1:-1]) == "hi"

    def test_instruction_layout(self):
        ids = TOK.encode_instruction("go")
        assert ids[0] == ByteTokenizer.BOS
        assert TOK.decode(ids[1:]) == "go"

    def test_vocab_size(self):
        assert ByteTokenizer.vocab_size == 261


class TestDialogueSample:
    def test_validate_requires_rounds(self):
        with pytest.raises(CorpusError):
            DialogueSample("i", []).validate()

    def test_validate_rejects_empty_utterance(self):
        with pytest.raises(CorpusError):
            DialogueSample("i", [("hi", "")]).validate()

    def test_record_round_trip(self):
        sample = DialogueSample("inst", [("u1", "a1"), ("u2", "a2")],
                                {"act": "mention", "topic": "tea", "round": 2})
        back = DialogueSample.from_record(sample.to_record())
        assert back == sample

    def test_from_record_rejects_assistant_first(self):
        with pytest.raises(CorpusError):
            DialogueSample.from_record({"instruction": "i", "turns": [
                {"role": "assistant", "text": "a"}, {"role": "user", "text": "u"}]})

    def test_from_record_rejects_double_user(self):
        with pytest.raises(CorpusError):
            DialogueSample.from_record({"instruction": "i", "turns": [
                {"role": "user", "text": "u"}, {"role": "user", "text": "u2"}]})

    def test_from_record_rejects_unpaired_turn(self):
        with pytest.raises(CorpusError):
            DialogueSample.from_record({"instruction": "i", "turns": [
                {"role": "user", "text": "u"}, {"role": "assistant", "text": "a"},
                {"role": "user", "text": "dangling"}]})

    def test_from_record_rejects_missing_text(self):
        with pytest.raises(CorpusError):
            DialogueSample.from_record({"instruction": "i", "turns": [
                {"role": "user"}, {"role": "assistant", "text": "a"}]})

    def test_target_round_defaults_to_final(self):
        s = DialogueSample("i", [("u", "a"), ("u", "a")], {"topic": "tea"})
        assert s.target_round() == 2
        assert DialogueSample("i", [("u", "a")]).target_round() is None

    def test_target_round_bounds_checked(self):
        with pytest.raises(CorpusError):
            DialogueSample("i", [("u", "a")], {"topic": "t", "round": 5}).validate()


class TestCorpusIO:
    def test_save_load_round_trip(self, tmp_path):
        samples = [
            DialogueSample("inst one", [("hello", "world")]),
            DialogueSample("inst two", [("a", "b"), ("c", "d")], {"act": "x", "topic": "t", "round": 1}),
        ]
        path = tmp_path / "corpus.jsonl"
        save_corpus(samples, path)
        assert load_corpus(path) == samples

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(DialogueSample("i", [("u", "a")]).to_record())
        path.write_text(good + "\n{broken\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_malformed_record_reports_line_number(self, tmp_path):
        turns = DialogueSample("i", [("u", "a")]).to_record()["turns"]
        path = tmp_path / "bad2.jsonl"
        for record in ({"instruction": "i", "turns": []},
                       [1, 2],
                       {"instruction": "i", "turns": ["hi", "yo"]},
                       {"instruction": 5, "turns": turns},
                       {"instruction": "i", "turns": turns, "target": 3},
                       {"instruction": "i", "turns": turns,
                        "target": {"topic": "oz", "round": "1"}}):
            path.write_text(json.dumps(record) + "\n")
            with pytest.raises(CorpusError, match="line 1"):
                load_corpus(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        record = json.dumps(DialogueSample("i", [("u", "a")]).to_record())
        path.write_text("\n" + record + "\n\n")
        assert len(load_corpus(path)) == 1


def two_round_sample():
    return DialogueSample("be brief", [("hi there", "hello you"), ("more", "sure thing")])


def packed(samples):
    """The one training layout: a round batch packed into a causal grid."""
    [batch] = build_round_batches(samples, TOK, batch_size=len(samples))
    return pack_round_batch(batch)


def concat_scored(samples):
    """(grid, scored target mask, scored count) of a concat-mode loss."""
    config = ModelConfig(d_model=8, n_layers=1, n_heads=1, d_ff=16,
                         vocab_size=ByteTokenizer.vocab_size, max_positions=512)
    grid = packed(samples)
    _, n = causal_loss(Transformer.create(config, 0), RoleAdapters(config, rank=1, seed=0), grid)
    _, tmask = shifted_targets(grid.tokens, grid.loss_mask)
    return grid, tmask & grid.is_agent, n


def sequence_length(sample):
    """Tokens of the whole dialogue: the last split sample holds all of them."""
    return sum(len(part) for part in make_split_samples(sample, TOK)[-1])


class TestBuildRoundBatches:
    def test_single_dialogue_all_valid(self):
        [batch] = build_round_batches([two_round_sample()], TOK, batch_size=4)
        assert batch.n_rounds == 2
        assert batch.round_counts.tolist() == [2]
        for t in range(2):
            for role in ("user", "agent"):
                seg = batch.rounds[t][role]
                assert seg.validity.all()

    def test_round_counts_sorted_descending(self):
        samples = [
            DialogueSample("i", [("u", "a")]),
            DialogueSample("i", [("u", "a")] * 3),
            DialogueSample("i", [("u", "a")] * 2),
        ]
        [batch] = build_round_batches(samples, TOK, batch_size=3)
        assert batch.round_counts.tolist() == [3, 2, 1]

    def test_short_dialogue_contributes_nothing_to_later_rounds(self):
        samples = [DialogueSample("i", [("aa", "bb")] * 3), DialogueSample("i", [("cc", "dd")])]
        [batch] = build_round_batches(samples, TOK, batch_size=2)
        for t in (1, 2):
            for role in ("user", "agent"):
                seg = batch.rounds[t][role]
                assert not seg.validity[1].any()
                assert not seg.loss_mask[1].any()
                assert (seg.tokens[1] == ByteTokenizer.PAD).all()

    def test_truncation_keeps_last_rounds_in_order(self):
        rounds = [(f"u{i}", f"a{i}") for i in range(12)]
        [batch] = build_round_batches([DialogueSample("i", rounds)], TOK,
                                      batch_size=1, max_rounds=10)
        assert batch.n_rounds == 10
        first_user = batch.rounds[0]["user"]
        text = TOK.decode([t for t in first_user.tokens[0] if t >= ByteTokenizer.OFFSET])
        assert text == "u2"

    def test_truncation_renumbers_the_target_round(self):
        rounds = [(f"u{i}", f"a{i}") for i in range(12)]
        sample = DialogueSample("i", rounds, {"topic": "t", "round": 12})
        [batch] = build_round_batches([sample], TOK, batch_size=1, max_rounds=10)
        kept = batch.samples[0].validate()
        assert kept.rounds == rounds[2:] and kept.target_round() == 10

    def test_empty_sample_set_rejected(self):
        with pytest.raises(CorpusError):
            build_round_batches([], TOK, batch_size=2)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            build_round_batches([two_round_sample()], TOK, batch_size=0)
        with pytest.raises(ConfigError):
            build_round_batches([two_round_sample()], TOK, batch_size=1, max_rounds=0)

    def test_pad_validity_loss_partition(self):
        rng = np.random.default_rng(1)
        spec = default_synth_spec()
        samples = synth_generate(3, 9, spec)
        for batch in build_round_batches(samples, TOK, batch_size=4):
            for t in range(batch.n_rounds):
                for role in ("user", "agent"):
                    seg = batch.rounds[t][role]
                    pad = seg.tokens == ByteTokenizer.PAD
                    np.testing.assert_array_equal(seg.validity, ~pad)
                    assert not (seg.loss_mask & pad).any()
                    assert not (seg.loss_mask & ~seg.validity).any()

    def test_loss_mask_covers_bytes_and_eos_only(self):
        [batch] = build_round_batches([two_round_sample()], TOK, batch_size=1)
        seg = batch.rounds[0]["agent"]
        n = int(seg.validity[0].sum())
        assert seg.loss_mask[0, 0] == False  # role special never scored
        assert seg.loss_mask[0].sum() == n - 1  # bytes + EOS
        assert seg.tokens[0, n - 1] == ByteTokenizer.EOS
        inst = batch.instruction
        assert not inst.loss_mask.any()

    def test_positions_continuous_across_all_segments(self):
        samples = synth_generate(5, 6, default_synth_spec())
        for batch in build_round_batches(samples, TOK, batch_size=3):
            grid = pack_round_batch(batch)
            for b in range(batch.batch):
                seen = grid.positions[b][grid.validity[b]]
                np.testing.assert_array_equal(seen, np.arange(len(seen)))
                # segments stay in dialogue order along the packed row
                assert (np.diff(grid.segments[b][grid.validity[b]]) >= 0).all()

    def test_positions_agree_with_memory_bookkeeping(self):
        # the packed grid must give each segment the positions the K/V store
        # assigns when decoding appends the same segments one by one
        samples = synth_generate(7, 4, default_synth_spec())
        [batch] = build_round_batches(samples, TOK, batch_size=4)
        grid = pack_round_batch(batch)
        mem = RoundMemory.empty(batch.batch, n_layers=1, n_heads=1, head_dim=2)
        segs = [batch.instruction] + [
            batch.rounds[t][role]
            for t in range(batch.n_rounds) for role in ("user", "agent")]
        for i, seg in enumerate(segs):
            expected = mem.next_positions(seg.validity)
            for b in range(batch.batch):
                mine = grid.validity[b] & (grid.segments[b] == i)
                np.testing.assert_array_equal(grid.positions[b][mine],
                                              expected[b][seg.validity[b]])
            kv = [(np.zeros((batch.batch, 1, seg.tokens.shape[1], 2), dtype=np.float32),) * 2]
            mem = mem.append(attended_kv(mem.layers, kv), seg.validity, i)


class TestConcatAndSplitLayouts:
    def test_single_round_mask_covers_agent_reply(self):
        sample = DialogueSample("do it", [("ask", "answer")])
        grid, scored, n = concat_scored([sample])
        inst = TOK.encode_instruction("do it")
        user = TOK.encode_utterance("user", "ask")
        agent = TOK.encode_utterance("agent", "answer")
        assert grid.tokens[0].tolist() == inst + user + agent
        expected = [False] * (len(inst) + len(user)) + [False] + [True] * (len(agent) - 1)
        # position j is scored exactly when token j+1 is an agent target
        assert scored[0, :-1].tolist() == expected[1:]
        assert n == sum(expected)

    def test_mask_bits_count_agent_tokens(self):
        sample = two_round_sample()
        _, _, n = concat_scored([sample])
        expected = sum(len(TOK.encode(a)) + 1 for _, a in sample.rounds)  # bytes + EOS
        assert n == expected

    def test_overflow_drops_earliest_rounds_keeps_instruction(self):
        rounds = [(f"user utterance {i}", f"agent reply {i}") for i in range(6)]
        sample = DialogueSample("keep me", rounds)
        full = sequence_length(fit_dialogue(sample, TOK, max_rounds=10, max_positions=4096))
        per_round = sum(
            len(TOK.encode_utterance("user", u)) + len(TOK.encode_utterance("agent", a))
            for u, a in rounds[:1]
        )
        limit = full - per_round  # forces dropping at least one round
        fitted = fit_dialogue(sample, TOK, max_rounds=10, max_positions=limit)
        assert sequence_length(fitted) <= limit
        assert fitted.instruction == "keep me"
        assert fitted.rounds == rounds[1:]

    def test_overflow_beyond_single_round_rejected(self):
        sample = DialogueSample("i", [("u" * 50, "a" * 50)])
        with pytest.raises(CapacityError):
            fit_dialogue(sample, TOK, max_rounds=10, max_positions=20)

    def test_fit_keeps_last_max_rounds_then_fits_positions(self):
        rounds = [(f"u{i}", f"a{i}") for i in range(12)]
        sample = DialogueSample("i", rounds, {"topic": "t", "round": 12})
        fitted = fit_dialogue(sample, TOK, max_rounds=10, max_positions=4096)
        assert fitted.rounds == rounds[2:]
        assert fitted.target_round() == 10  # renumbered over the kept rounds
        fitted = fit_dialogue(sample, TOK, max_rounds=10,
                              max_positions=sequence_length(DialogueSample("i", rounds[-3:])))
        assert fitted.rounds == rounds[-3:]
        assert fitted.target_round() == 3
        fitted.validate()
        early = DialogueSample("i", rounds, {"topic": "t", "round": 1})
        assert fit_dialogue(early, TOK, max_rounds=10, max_positions=4096).target is None

    def test_fit_leaves_a_fitting_dialogue_alone(self):
        sample = two_round_sample()
        fitted = fit_dialogue(sample, TOK, max_rounds=10, max_positions=sequence_length(sample))
        assert fitted.rounds == sample.rounds and fitted.instruction == sample.instruction

    def test_split_count_equals_rounds(self):
        sample = two_round_sample()
        assert len(make_split_samples(sample, TOK)) == 2

    def test_split_contexts_nest_as_prefixes(self):
        sample = DialogueSample("i", [("u1", "a1"), ("u2", "a2"), ("u3", "a3")])
        pairs = make_split_samples(sample, TOK)
        for (c1, _), (c2, _) in zip(pairs, pairs[1:]):
            assert len(c1) < len(c2)
            np.testing.assert_array_equal(c2[:len(c1)], c1)

    def test_last_split_sample_reassembles_concat_sequence(self):
        sample = two_round_sample()
        pairs = make_split_samples(sample, TOK)
        context, response = pairs[-1]
        grid = packed([sample])
        np.testing.assert_array_equal(np.concatenate([context, response]),
                                      grid.tokens[0][grid.validity[0]])


class TestSynthSpec:
    def test_overlapping_vocabularies_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            SynthSpec(user_vocab=("a", "b"), agent_vocab=("b", "c"), markers=("m",))

    def test_marker_overlap_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(user_vocab=("a",), agent_vocab=("c",), markers=("a",))

    def test_targets_require_topics(self):
        with pytest.raises(ConfigError):
            SynthSpec(user_vocab=("a",), agent_vocab=("b",), markers=("m",),
                      with_targets=True)

    def test_bad_round_range_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(user_vocab=("a",), agent_vocab=("b",), markers=("m",),
                      rounds_min=3, rounds_max=2)

    def test_dict_round_trip(self):
        spec = default_synth_spec(with_targets=True)
        assert SynthSpec.from_dict(spec.to_dict()) == spec


class TestSynthGenerate:
    def test_deterministic_under_seed(self, tmp_path):
        spec = default_synth_spec(with_targets=True)
        a, b = synth_generate(11, 20, spec), synth_generate(11, 20, spec)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(a, pa)
        save_corpus(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert synth_generate(12, 20, spec) != a

    def test_every_agent_utterance_contains_marker(self):
        spec = default_synth_spec()
        for sample in synth_generate(1, 50, spec):
            marker = sample.instruction.split()[1]
            assert marker in spec.markers
            for _, agent in sample.rounds:
                assert marker in agent.split()

    def test_role_vocabulary_disjointness_scan(self):
        # corpus-wide scan: no user-vocabulary word in any agent utterance
        spec = default_synth_spec(with_targets=True)
        user_words = set(spec.user_vocab)
        agent_side = spec.agent_side_words()
        for sample in synth_generate(2, 1000, spec):
            for user, agent in sample.rounds:
                assert set(agent.split()).isdisjoint(user_words)
                assert set(agent.split()) <= agent_side
                assert set(user.split()) <= user_words

    def test_targets_planted_in_final_round(self):
        spec = default_synth_spec(with_targets=True)
        for sample in synth_generate(3, 30, spec):
            assert sample.target is not None
            topic = sample.target["topic"]
            assert sample.target["round"] == len(sample.rounds)
            assert topic in sample.rounds[-1][1].split()
            assert f"target {topic}" in sample.instruction

    def test_round_counts_within_range(self):
        spec = default_synth_spec()
        counts = {len(s.rounds) for s in synth_generate(4, 200, spec)}
        assert min(counts) >= spec.rounds_min
        assert max(counts) <= spec.rounds_max

    def test_generated_corpus_reingests(self, tmp_path):
        path = tmp_path / "synth.jsonl"
        save_corpus(synth_generate(5, 25, default_synth_spec(with_targets=True)), path)
        assert len(load_corpus(path)) == 25
