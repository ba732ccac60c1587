"""Acceptance gate: ten end-to-end checks of the package's load-bearing
contracts — gradient correctness, cache/full-forward equivalence, role and
padding invariants, metric fixtures, the round-by-round vs whole-sequence
training comparison, decoding behavior, and manifest reproducibility.

Each test records a one-line verdict; the terminal summary replays one
ACCEPTANCE line per criterion (see conftest.py).
"""

import json
import time

import numpy as np
import pytest

import _reference as ref
from roletune import tensor as rt
from roletune.cli import main
from roletune.data import (
    ByteTokenizer,
    DialogueSample,
    SynthSpec,
    build_round_batches,
    default_synth_spec,
    synth_generate,
)
from roletune.evaluate import evaluate_corpus, gold_curve
from roletune.generate import (
    GenerationConfig,
    candidate_ids,
    generate_response,
    prime_memory,
    sample_from_logits,
)
from roletune.memory import RoundMemory
from roletune.metrics import (
    ConsistencyOracle,
    bleu_n,
    consistency_curve,
    dist_n,
    success_rate,
    word_f1,
)
from roletune.model import ModelConfig, RoleAdapters, Transformer
from roletune.tensor import Tape
from roletune.training import TrainConfig, combine_losses, midi_losses, train

TOK = ByteTokenizer()

# Random-token checks use a small vocabulary.
SMALL = ModelConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32, vocab_size=32,
                    max_positions=256, embed_std=0.25)
# The padding comparison is pinned at one part in 1e6 of absolute logit
# change, so its model keeps logits near 2: one f32 ulp there is ~2.4e-7,
# leaving headroom for blas reduction-order differences between batch shapes.
PAD_CFG = ModelConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32, vocab_size=32,
                      max_positions=256, embed_std=0.125)
# Checks that tokenize real text need the full byte vocabulary.
TEXT = ModelConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32,
                   vocab_size=ByteTokenizer.vocab_size, max_positions=256)


def make_model(config, seed=0, rank=2, alpha=4.0, delta_std=0.3):
    """Backbone plus adapters with randomized (non-zero) deltas."""
    model = Transformer.create(config, seed)
    adapters = RoleAdapters(config, rank=rank, alpha=alpha, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for t in adapters.trainable_parameters().values():
        t.data = rng.normal(0.0, delta_std, size=t.shape).astype(np.float32)
    return model, adapters


def to_f64(model, adapters):
    for t in list(model.base.params.values()) + list(adapters.trainable_parameters().values()):
        t.data = t.data.astype(np.float64)


def run_segmented(model, adapters, segments, roles, validities=None):
    """Push segments through the round memory; returns per-segment logits
    and the position grid each segment was assigned."""
    c = model.config
    batch = segments[0].shape[0]
    dtype = model.base.params["embed"].dtype
    mem = RoundMemory.empty(batch, c.n_layers, c.n_heads, c.head_dim, dtype=dtype)
    logits_out, positions_out = [], []
    for idx, (seg, role) in enumerate(zip(segments, roles)):
        validity = np.ones_like(seg) if validities is None else validities[idx]
        positions = mem.next_positions(validity)
        mask = mem.build_mask(validity, idx, role)
        logits, kv = model.forward_segment(seg, positions, role, adapters,
                                           cache=mem.layers, mask=mask)
        mem = mem.append(kv, validity, idx)
        logits_out.append(logits.data)
        positions_out.append(positions)
    return logits_out, positions_out


def tiny_dialogue_batch(n=2, rounds=2, seed=0):
    spec = SynthSpec(**{**default_synth_spec().to_dict(),
                        "rounds_min": rounds, "rounds_max": rounds,
                        "user_words": (1, 2), "agent_words": (1, 2)})
    samples = synth_generate(seed, n, spec)
    [batch] = build_round_batches(samples, TOK, n)
    return batch


def test_criterion_01_gradients_match_finite_differences(record_property):
    """Analytic adapter gradients of the combined dual-role loss agree with
    central finite differences for every delta scalar (f64, rel err < 1e-4)."""
    t0 = time.monotonic()
    config = ModelConfig(d_model=8, n_layers=2, n_heads=2, d_ff=16,
                         vocab_size=ByteTokenizer.vocab_size, max_positions=128)
    model, adapters = make_model(config, seed=1, delta_std=0.1)
    to_f64(model, adapters)
    batch = tiny_dialogue_batch(n=2, rounds=2, seed=1)
    # keep cached key/values differentiable so the tape's gradient is the
    # full derivative of the loss value, which is what differencing measures
    cfg = TrainConfig(beta=0.5, backprop_through_rounds=True)

    def loss_value():
        ls, lu, _, _ = midi_losses(model, adapters, batch, cfg)
        return combine_losses(ls, lu, cfg.beta).item()

    with Tape() as tape:
        ls, lu, _, _ = midi_losses(model, adapters, batch, cfg)
        total = combine_losses(ls, lu, cfg.beta)
    grads = tape.backward(total)

    max_err, n_scalars = 0.0, 0
    for name, t in adapters.trainable_parameters().items():
        analytic = grads[t]
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
            numeric = (fp - fm) / (2.0 * h)
            err = abs(analytic[ix] - numeric) / max(abs(analytic[ix]) + abs(numeric), 1e-8)
            max_err = max(max_err, err)
            n_scalars += 1
    elapsed = time.monotonic() - t0

    assert n_scalars == sum(t.data.size for t in adapters.trainable_parameters().values())
    assert max_err < 1e-4, f"max relative gradient error {max_err:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    record_property("acceptance_line",
                    f"ACCEPTANCE 1: PASS — max relative gradient error {max_err:.2e} "
                    f"over {n_scalars} delta scalars (f64 central differences, "
                    f"beta=0.5, both roles), {elapsed:.1f}s")


def test_criterion_02_single_role_cache_matches_full_forward(record_property):
    """Any segmentation of a sequence, replayed through the cache, yields the
    same final-segment logits as one causal pass (atol 1e-5, f32)."""
    t0 = time.monotonic()
    max_diff = 0.0
    for trial in range(20):
        rng = np.random.default_rng(trial)
        model, adapters = make_model(SMALL, seed=trial)
        n = int(rng.integers(8, 65))
        tokens = rng.integers(0, SMALL.vocab_size, size=n)
        parts = int(rng.integers(1, 6))
        cuts = (np.sort(rng.choice(np.arange(1, n), size=parts - 1, replace=False))
                if parts > 1 else np.array([], dtype=int))
        bounds = np.concatenate([[0], cuts, [n]]).astype(int)
        segments = [tokens[a:b][None, :] for a, b in zip(bounds[:-1], bounds[1:])]
        role = "agent" if trial % 2 else "user"

        seg_logits, _ = run_segmented(model, adapters, segments, [role] * len(segments))
        full, _ = model.forward_segment(tokens[None, :], np.arange(n)[None, :],
                                        role, adapters)
        final_len = segments[-1].shape[1]
        diff = float(np.max(np.abs(seg_logits[-1] - full.data[:, n - final_len:])))
        max_diff = max(max_diff, diff)
        assert diff <= 1e-5, f"trial {trial}: final-segment diff {diff:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    record_property("acceptance_line",
                    f"ACCEPTANCE 2: PASS — 20 random splits, max final-segment "
                    f"logit diff {max_diff:.2e} (tolerance 1e-5), {elapsed:.1f}s")


def test_criterion_03_dual_role_cache_matches_reference(record_property):
    """Alternating-role cached forwards agree with the independent
    per-token role-switching reference (atol 1e-5, f32)."""
    max_diff = 0.0
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        model, adapters = make_model(SMALL, seed=trial)
        segments, roles, codes = [], [], []
        ins = int(rng.integers(3, 6))
        segments.append(rng.integers(0, SMALL.vocab_size, size=(1, ins)))
        roles.append("agent")          # instruction prefix runs as the agent
        codes.append(np.ones(ins))
        for _ in range(3):
            for role, code in (("user", 0), ("agent", 1)):
                ln = int(rng.integers(2, 7))
                segments.append(rng.integers(0, SMALL.vocab_size, size=(1, ln)))
                roles.append(role)
                codes.append(np.full(ln, code))

        parts, _ = run_segmented(model, adapters, segments, roles)
        tokens = np.concatenate(segments, axis=1)
        n = tokens.shape[1]
        ad = dict(adapters.named_arrays())
        ad["alpha"] = adapters.alpha
        expected = ref.forward_full(SMALL.to_dict(), model.base.named_arrays(),
                                    ad, tokens, np.arange(n)[None, :],
                                    np.concatenate(codes)[None, :])
        diff = float(np.max(np.abs(np.concatenate(parts, axis=1) - expected)))
        max_diff = max(max_diff, diff)
        assert diff <= 1e-5, f"dialogue {trial}: diff {diff:.2e}"
    record_property("acceptance_line",
                    f"ACCEPTANCE 3: PASS — 10 three-round dialogues vs "
                    f"role-switching reference, max logit diff {max_diff:.2e} "
                    f"(tolerance 1e-5)")


def test_criterion_04_user_gradients_gate_on_beta(record_property):
    """With the user-loss weight at 0 a full optimizer-step backward leaves
    every user delta gradient exactly zero; any positive weight makes them
    all nonzero."""
    model, adapters = make_model(TEXT, seed=2, delta_std=0.1)
    batch = tiny_dialogue_batch(n=2, rounds=2, seed=2)

    def step_grads(beta):
        for p in adapters.trainable_parameters().values():
            p.zero_grad()
        cfg = TrainConfig(beta=beta)
        with Tape() as tape:
            ls, lu, _, _ = midi_losses(model, adapters, batch, cfg)
            total = combine_losses(ls, lu, cfg.beta)
        tape.backward(total)
        return {name: p.grad for name, p in adapters.trainable_parameters().items()}

    at_zero = step_grads(0.0)
    user_names = [n for n in at_zero if n.startswith("user.")]
    agent_names = [n for n in at_zero if n.startswith("agent.")]
    assert user_names and agent_names
    for name in user_names:
        g = at_zero[name]
        # no gradient path at all (None) or an exactly-zero accumulation;
        # either way the optimizer leaves the parameter untouched
        assert g is None or np.all(g == 0.0), f"{name} leaked gradient at beta=0"
    assert any(at_zero[n] is not None and np.linalg.norm(at_zero[n]) > 0
               for n in agent_names)

    at_half = step_grads(0.5)
    norms = {n: float(np.linalg.norm(at_half[n])) for n in user_names}
    for name, norm in norms.items():
        assert at_half[name] is not None and norm > 0.0, \
            f"{name} has zero gradient at beta=0.5"

    # the same contract over a real optimizer step: user deltas bitwise
    # frozen at beta=0 while agent deltas move
    spec = SynthSpec(**{**default_synth_spec().to_dict(),
                        "rounds_min": 2, "rounds_max": 2})
    samples = synth_generate(4, 2, spec)
    step_model, step_adapters = make_model(TEXT, seed=4, delta_std=0.1)
    user_before = {n: t.data.tobytes() for n, t in
                   step_adapters.trainable_parameters(("user",)).items()}
    agent_before = {n: t.data.tobytes() for n, t in
                    step_adapters.trainable_parameters(("agent",)).items()}
    train(samples, TrainConfig(mode="midi", beta=0.0, batch_size=2, epochs=1,
                               lr=1e-3, seed=4),
          model_config=TEXT, model=step_model, adapters=step_adapters)
    for name, t in step_adapters.trainable_parameters(("user",)).items():
        assert t.data.tobytes() == user_before[name], f"{name} moved at beta=0"
    assert any(t.data.tobytes() != agent_before[n] for n, t in
               step_adapters.trainable_parameters(("agent",)).items())

    record_property("acceptance_line",
                    f"ACCEPTANCE 4: PASS — beta=0: all {len(user_names)} user "
                    f"delta gradients exactly zero and parameters bitwise "
                    f"frozen across a training step; beta=0.5: all nonzero "
                    f"(min norm {min(norms.values()):.2e})")


def test_criterion_05_frozen_base_and_adapter_census(record_property):
    """50 optimizer steps leave the backbone bitwise untouched; the trainable
    surface is exactly the expected rank-2r update per adapted projection,
    with no value projection adapted for the user role."""
    rank = 4
    model = Transformer.create(TEXT, seed=5)
    adapters = RoleAdapters(TEXT, rank=rank, alpha=8.0, seed=5)
    before = {k: v.tobytes() for k, v in model.base.named_arrays().items()}

    spec = SynthSpec(**{**default_synth_spec().to_dict(),
                        "rounds_min": 2, "rounds_max": 2,
                        "user_words": (1, 2), "agent_words": (1, 2)})
    samples = synth_generate(5, 10, spec)
    cfg = TrainConfig(mode="midi", batch_size=1, epochs=5, lr=1e-3, seed=5,
                      rank=rank, alpha=8.0)
    result = train(samples, cfg, model_config=TEXT, model=model, adapters=adapters)
    assert len(result.loss_log) == 50

    after = model.base.named_arrays()
    assert set(after) == set(before)
    for key, blob in before.items():
        assert after[key].tobytes() == blob, f"base weight {key} changed"

    # census: a rank-r pair over a d_in -> d_out projection holds
    # r*d_in (down) + d_out*r (up) = r*(d_in + d_out) trainable scalars
    d = TEXT.d_model
    per_projection = rank * (d + d)
    for role, expected_projections in (("agent", 2 * TEXT.n_layers),
                                       ("user", TEXT.n_layers)):
        deltas = adapters.deltas[role]
        assert len(deltas) == expected_projections, role
        for (layer, proj), delta in deltas.items():
            assert delta.A.data.size + delta.B.data.size == per_projection
    assert all(proj == "q" for (_, proj) in adapters.deltas["user"]), \
        "user role must not adapt value projections"
    assert {proj for (_, proj) in adapters.deltas["agent"]} == {"q", "v"}
    n_agent = sum(t.data.size for n, t in adapters.trainable_parameters(("agent",)).items())
    n_user = sum(t.data.size for n, t in adapters.trainable_parameters(("user",)).items())
    record_property("acceptance_line",
                    f"ACCEPTANCE 5: PASS — base bitwise unchanged after 50 steps; "
                    f"census {per_projection}/projection, agent {2 * TEXT.n_layers} "
                    f"projections ({n_agent} scalars, q+v), user {TEXT.n_layers} "
                    f"({n_user} scalars, q only)")


def test_criterion_06_padding_and_position_contracts(record_property):
    """Over 100 random batched-round layouts: scattering padding into any
    round moves no valid-position logit by more than 1e-6 (f32), and the
    positions assigned to each row's valid slots are exactly 0..n-1."""
    t0 = time.monotonic()
    max_diff = 0.0
    for trial in range(100):
        rng = np.random.default_rng(600 + trial)
        model, adapters = make_model(PAD_CFG, seed=trial % 7)
        n_segments = int(rng.integers(2, 5))
        roles = [("user", "agent")[i % 2] for i in range(n_segments)]
        # two dialogues of different lengths share the batch
        row_tokens = [[rng.integers(1, PAD_CFG.vocab_size,
                                    size=int(rng.integers(1, 6)))
                       for _ in range(n_segments)] for _ in range(2)]

        solo = [run_segmented(model, adapters,
                              [seg[None, :] for seg in row], roles)[0]
                for row in row_tokens]

        padded_segments, validities = [], []
        for s in range(n_segments):
            lens = [len(row[s]) for row in row_tokens]
            width = max(lens) + int(rng.integers(1, 4))
            grid = np.zeros((2, width), dtype=np.int64)
            validity = np.zeros((2, width), dtype=np.int64)
            for r, row in enumerate(row_tokens):
                keep = np.sort(rng.choice(width, size=lens[r], replace=False))
                grid[r, keep] = row[s]
                validity[r, keep] = 1
            padded_segments.append(grid)
            validities.append(validity)
        padded, positions = run_segmented(model, adapters, padded_segments,
                                          roles, validities)

        for r in range(2):
            got_positions = []
            for s in range(n_segments):
                keep = validities[s][r].astype(bool)
                diff = float(np.max(np.abs(padded[s][r, keep] - solo[r][s][0])))
                max_diff = max(max_diff, diff)
                assert diff <= 1e-6, \
                    f"trial {trial} row {r} segment {s}: logits moved {diff:.2e}"
                got_positions.append(positions[s][r][keep])
            flat = np.concatenate(got_positions)
            np.testing.assert_array_equal(
                flat, np.arange(flat.size),
                err_msg=f"trial {trial} row {r}: position ids not 0..n-1")
    elapsed = time.monotonic() - t0
    record_property("acceptance_line",
                    f"ACCEPTANCE 6: PASS — 100 layouts: max valid-logit shift "
                    f"{max_diff:.2e} (tolerance 1e-6), all row position ids "
                    f"exactly 0..n-1, {elapsed:.1f}s")


def test_criterion_07_metric_fixtures(record_property):
    """Every dialogue metric reproduces its hand-computed fixture."""
    TOL = 1e-9
    assert word_f1("go north now", "go north now") == 1.0
    assert word_f1("aa bb", "cc dd") == 0.0
    assert abs(word_f1("a b c", "a b d") - 2 / 3) <= TOL

    five = "one two three four five"
    assert bleu_n(five, five, 1) == 1.0
    assert bleu_n(five, five, 2) == 1.0
    # clipped unigram count of "the" is 1 out of 3 hypothesis words; the
    # brevity penalty min(1, e^(1-|ref|/|hyp|)) is 1 for a longer hypothesis,
    # so the score is the precision alone
    assert abs(bleu_n("the the the", "the cat", 1) - 1 / 3) <= TOL
    # concatenating the reference to itself doubles every clip ceiling, so
    # modified precision can only stay equal or rise; hypotheses here are
    # kept at least as long as the doubled reference so the brevity penalty
    # stays at 1 and the score isolates the precision term
    rng = np.random.default_rng(7)
    words = ["ka", "mo", "ri", "ze", "lu"]
    for _ in range(50):
        hyp = " ".join(rng.choice(words, size=rng.integers(8, 13)))
        ref_text = " ".join(rng.choice(words, size=rng.integers(2, 5)))
        for n in (1, 2):
            assert bleu_n(hyp, ref_text + " " + ref_text, n) >= bleu_n(hyp, ref_text, n) - TOL

    assert dist_n(["all words here differ"], 1) == 1.0
    assert dist_n(["a a a a"], 1) == 0.25
    assert abs(dist_n(["a b", "a b"], 2) - 0.25) <= TOL

    def transcript(topic_round, topic="oz"):
        rounds = [("hi", "ka mo"), ("go", "ri ze"), ("do", "lu ba")]
        sample = DialogueSample("persona xe", rounds,
                                {"topic": topic, "round": 2})
        replies = ["ka mo", "ri ze", "lu ba"]
        if topic_round is not None:
            replies[topic_round - 1] = f"{topic} te"
        return sample, replies

    hits = [transcript(2) for _ in range(7)]
    misses = [transcript(None) for _ in range(3)]
    samples, replies = zip(*(hits + misses))
    result = success_rate(list(samples), list(replies), window=1)
    assert result.rate == 0.7 and result.n_scored == 10 and result.n_skipped == 0
    assert success_rate(*map(list, zip(*[transcript(2)]))).rate == 1.0   # exact round
    assert success_rate(*map(list, zip(*[transcript(3)]))).rate == 1.0   # round g+1
    g_plus_2 = DialogueSample("persona xe", [("hi", "ka")] * 4,
                              {"topic": "oz", "round": 1})
    assert success_rate([g_plus_2], [["ka", "ka", "oz te", "ka"]]).rate == 0.0
    unannotated = DialogueSample("persona xe", [("hi", "ka")], None)
    assert success_rate([unannotated], [["ka"]]).n_skipped == 1

    spec = default_synth_spec()
    oracle = ConsistencyOracle(spec)
    gold = [(s.instruction, [agent for _, agent in s.rounds])
            for s in synth_generate(11, 5, spec)]
    means, counts = consistency_curve(gold, oracle)
    # dialogues have varying round counts, so attendance tapers but every
    # reply generated from the recipe satisfies its own oracle
    assert np.all(means == 1.0)
    assert counts[0] == 5 and np.all(np.diff(counts) <= 0)
    broken = [(ins, ["hi go"] * len(rs)) for ins, rs in gold]
    means, _ = consistency_curve(broken, oracle)
    assert np.all(means == 0.0)
    mixed = [(ins, (["zz"] if i < 2 else [rs[0]]) + rs[1:])
             for i, (ins, rs) in enumerate(gold)]
    means, _ = consistency_curve(mixed, oracle)
    assert abs(means[0] - 3 / 5) <= TOL

    record_property("acceptance_line",
                    "ACCEPTANCE 7: PASS — word F1, BLEU-1/2, DIST-1/2, success "
                    "rate, and consistency-curve fixtures all match "
                    "(exact / 1e-9)")


def test_criterion_08_round_level_training_beats_concat_late(record_property):
    """The scaled-down role-separation experiment: round-by-round (midi) and
    whole-sequence (concat) training from identical initializations both fit
    the corpus (final agent loss < 0.3x initial), but midi's per-round
    consistency at rounds 5-8 stays at or above concat's on >= 4 of 5 seeds.
    The gold transcripts themselves score 1.0 everywhere."""
    t0 = time.monotonic()
    spec = SynthSpec(**{**default_synth_spec().to_dict(),
                        "rounds_min": 8, "rounds_max": 8})
    oracle = ConsistencyOracle(spec)
    late = slice(4, 8)

    wins, gaps, late_means = 0, [], []
    for seed in range(5):
        train_set = synth_generate(seed, 500, spec)
        test_set = synth_generate(seed + 7919, 50, spec)
        gold, _ = gold_curve(test_set, oracle)
        assert gold.shape == (8,) and np.all(gold == 1.0), \
            f"seed {seed}: gold transcripts must score 1.0 everywhere"

        gen = GenerationConfig(top_k=1, max_new_tokens=24, seed=seed)
        curves = {}
        for mode in ("midi", "concat"):
            cfg = TrainConfig(mode=mode, lr=2e-2, epochs=3, seed=seed,
                              batch_size=4)
            result = train(train_set, cfg)
            ratio = result.loss_log[-1]["L_s"] / result.loss_log[0]["L_s"]
            assert ratio < 0.3, f"seed {seed} {mode}: loss ratio {ratio:.3f}"
            ev = evaluate_corpus(result.model, result.adapters, test_set, gen,
                                 oracle=oracle)
            curves[mode] = np.asarray(ev.report.consistency)
        wins += bool(np.all(curves["midi"][late] >= curves["concat"][late]))
        gaps.append(float(np.mean(curves["midi"][late] - curves["concat"][late])))
        late_means.append((float(np.mean(curves["midi"][late])),
                           float(np.mean(curves["concat"][late]))))

    elapsed = time.monotonic() - t0
    assert wins >= 4, f"midi held rounds 5-8 on only {wins}/5 seeds (gaps {gaps})"
    assert elapsed < 900.0, f"took {elapsed:.0f}s, budget 900s"
    gap_text = ", ".join(f"{g:+.3f}" for g in gaps)
    # concat shows no late-round decay under gold context, so what this
    # reproduces is a gap in level; both levels are printed per seed
    means_text = ", ".join(f"{m:.2f}/{c:.2f}" for m, c in late_means)
    record_property("acceptance_line",
                    f"ACCEPTANCE 8: PASS — {wins}/5 seeds hold rounds 5-8, "
                    f"late-round consistency gaps per seed [{gap_text}], "
                    f"midi/concat late means per seed [{means_text}], "
                    f"gold=1.0, {elapsed:.0f}s")


def test_criterion_09_decoding_contracts(record_property):
    """top_k=1 equals greedy argmax bit for bit; the nucleus filter keeps the
    hand-built candidate pair at (0.625, 0.375) +/- 0.01 over 1e5 draws; and
    incremental cached decoding matches re-priming from scratch each token."""
    model, adapters = make_model(TEXT, seed=9)
    instruction = "persona xe topic oz"
    steps = 20

    def reprimed_greedy(seed_unused):
        ids = list(TOK.encode_instruction(instruction)) + [TOK.role_token("agent")]
        out = [TOK.role_token("agent")]
        for step in range(steps):
            tokens = np.asarray(ids, dtype=np.int64)[None, :]
            positions = np.arange(len(ids))[None, :]
            logits, _ = model.forward_segment(tokens, positions, "agent", adapters)
            row = logits.data[0, -1]
            cand = candidate_ids(row.shape[0])
            token = int(cand[np.argmax(row[cand])])
            if token != ByteTokenizer.EOS and step == steps - 1:
                token = ByteTokenizer.EOS  # same budget rule as the sampler
            out.append(token)
            ids.append(token)
            if token == ByteTokenizer.EOS:
                break
        return out

    incremental = {}
    for seed in (0, 123):
        cfg = GenerationConfig(top_k=1, max_new_tokens=steps, seed=seed)
        memory = prime_memory(model, adapters, TOK, instruction, [])
        reply, _ = generate_response(model, adapters, TOK, memory, "agent", cfg)
        incremental[seed] = reply.ids
    assert incremental[0] == incremental[123], \
        "top_k=1 output depends on the sampling seed"
    assert len(incremental[0]) == steps + 1, \
        "greedy fixture should use its whole token budget"

    rollout = reprimed_greedy(None)
    assert rollout == incremental[0], \
        "incremental cached decode diverged from re-primed decode"

    probs = np.array([0.5, 0.3, 0.15, 0.05])
    target_ids = [ByteTokenizer.EOS, ByteTokenizer.OFFSET,
                  ByteTokenizer.OFFSET + 1, ByteTokenizer.OFFSET + 2]
    logits = np.full(ByteTokenizer.OFFSET + 3, -1e9)
    logits[target_ids] = np.log(probs)
    cfg = GenerationConfig(top_p=0.75, top_k=40)
    rng = np.random.default_rng(0)
    draws = 100_000
    counts = {}
    for _ in range(draws):
        token = sample_from_logits(logits, rng, cfg)
        counts[token] = counts.get(token, 0) + 1
    assert set(counts) == set(target_ids[:2]), \
        f"tokens outside the 0.75 nucleus were sampled: {sorted(counts)}"
    freq = {t: counts[t] / draws for t in counts}
    expected = {target_ids[0]: 0.625, target_ids[1]: 0.375}
    for token, want in expected.items():
        assert abs(freq[token] - want) <= 0.01, \
            f"token {token}: frequency {freq[token]:.4f}, expected {want}"

    record_property("acceptance_line",
                    f"ACCEPTANCE 9: PASS — top_k=1 seed-independent and equal "
                    f"to re-primed greedy for {steps} tokens; nucleus pair at "
                    f"({freq[target_ids[0]]:.3f}, {freq[target_ids[1]]:.3f}) "
                    f"vs (0.625, 0.375), tolerance 0.01")


def test_criterion_10_compare_rerun_reproduces_reports(record_property, tmp_path):
    """A compare run replayed from its manifest into a fresh directory
    writes byte-identical reports, tables, and loss logs."""
    spec = {**default_synth_spec().to_dict(), "rounds_min": 2, "rounds_max": 2,
            "user_words": [1, 2], "agent_words": [1, 2]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    corpus = tmp_path / "corpus.jsonl"
    assert main(["data-synth", "--n", "6", "--seed", "3",
                 "--spec-file", str(spec_path), "--out", str(corpus)]) == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "model": {"d_model": 16, "n_layers": 2, "n_heads": 2, "d_ff": 32,
                  "vocab_size": ByteTokenizer.vocab_size, "max_positions": 256},
        "train": {"epochs": 1, "batch_size": 4, "lr": 1e-3, "seed": 0},
        "generation": {"max_new_tokens": 6, "top_k": 1, "seed": 0},
    }))

    first = tmp_path / "first"
    assert main(["compare", str(corpus), "--config", str(config),
                 "--oracle", str(spec_path), "--out", str(first)]) == 0
    reports = ["compare_table.csv", "curve_long.csv",
               "midi/report.json", "concat/report.json",
               "midi/loss_log.jsonl", "concat/loss_log.jsonl"]
    originals = {name: (first / name).read_bytes() for name in reports}

    redo = tmp_path / "redo"
    assert main(["compare", "--from-manifest", str(first / "manifest.json"),
                 "--out", str(redo)]) == 0
    for name in reports:
        assert (redo / name).read_bytes() == originals[name], \
            f"{name} differs between the original run and the manifest replay"
    record_property("acceptance_line",
                    f"ACCEPTANCE 10: PASS — manifest replay reproduced all "
                    f"{len(reports)} report files byte-identically")
