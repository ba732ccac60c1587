"""The four workloads: inputs from a seed, set-up, one timed cycle, checks.

Each workload is an offline batch job in a closed loop: one process, one
client, the next cycle starts when the previous one returns. A cycle is a
whole unit of library work (one `train` call, one `evaluate_corpus` pass,
one `self_chat`), repeated on the same inputs, so per-cycle counts repeat
exactly and every repeat doubles as a determinism check. An operation is a
training step or one `generate_response` call (one reply).

Why each workload exists is recorded in perfbench/README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from stats import window_rates
import roletune.checkpoint as checkpoint
import roletune.data as data
import roletune.evaluate as evaluate
import roletune.generate as generate
import roletune.training as training
from roletune.generate import GenerationConfig, candidate_ids
from roletune.metrics import ConsistencyOracle
from roletune.model import ModelConfig, RoleAdapters, Transformer

MODEL = ModelConfig()
TOKENIZER = data.ByteTokenizer()
ROUNDS = 8                     # rounds per synthetic dialogue
TRAIN_DIALOGUES = 64           # one cycle = one epoch = 16 steps at batch 4
TRAIN_BATCH = 4
LOSS_TAIL = 4                  # final_agent_loss averages the cycle's last steps
EVAL_DIALOGUES = 16            # one cycle = 16 dialogues x 8 replies
CHAT_INSTRUCTIONS = 3
CHAT_ROUNDS = 40               # 80 replies of 25 slots: ~2010 of 2048 positions
REPLY_BUDGET = 24
LOSS_DIALOGUES = 8             # teacher-forced agent loss of the decode model
# Backbone and adapter initialisation is fixed, so the run's seed changes only
# the dialogues (and the training data order) and the model is the same in
# every run.
MODEL_SEED = 0


def spec():
    """The default synthetic recipe with every dialogue exactly ROUNDS long."""
    return data.SynthSpec(**{**data.default_synth_spec().to_dict(),
                             "rounds_min": ROUNDS, "rounds_max": ROUNDS})


INPUT_DIALOGUES = {"train-midi": TRAIN_DIALOGUES, "train-concat": TRAIN_DIALOGUES,
                   "eval-decode": EVAL_DIALOGUES, "chat-long": LOSS_DIALOGUES}


def make_inputs(workload: str, seed: int) -> list:
    """The generated dialogues a workload runs on; the same seed gives the
    same dialogues. chat-long takes its instructions from the first ones."""
    return data.synth_generate(seed, INPUT_DIALOGUES[workload], spec())


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def corpus_tokens(samples) -> int:
    """Non-pad tokens one training epoch forwards: instruction plus every
    utterance, in both modes."""
    return sum(len(TOKENIZER.encode_instruction(s.instruction))
               + sum(len(TOKENIZER.encode_utterance("user", u))
                     + len(TOKENIZER.encode_utterance("agent", a)) for u, a in s.rounds)
               for s in samples)


def load_model(out_dir):
    """A fresh backbone and fresh adapters, passed through a checkpoint save
    and load as a trained model would be."""
    path = os.path.join(out_dir, f"ckpt-{os.getpid()}.rtck")
    try:
        checkpoint.save_checkpoint(path, Transformer.create(MODEL, MODEL_SEED),
                                   RoleAdapters(MODEL, seed=MODEL_SEED))
        model, adapters, _ = checkpoint.load_checkpoint(path)
    finally:
        os.remove(path)
    return model, adapters


@dataclass
class OpLog:
    """Operation timings, taken the same way with tracing on or off: a
    training step ends when `AdamW.step` returns, a reply is one
    `generate_response` call. Advances the tracer's request id at each
    operation boundary."""

    tracer: object = None
    durations: list = field(default_factory=list)
    replies: list = field(default_factory=list)     # (ids, exhausted) per reply
    reply_ends: list = field(default_factory=list)  # perf_counter at each reply's return
    failed: int = 0
    prefill_tokens: int = 0
    prefill_s: float = 0.0
    mark: float = 0.0

    def _next_request(self):
        if self.tracer is not None:
            self.tracer.request += 1

    def install(self, patch, kind: str):
        if kind == "train":
            patch.method(training.AdamW, "step", self._wrap_step)
        else:
            patch.function(generate, "generate_response", self._wrap_reply)
            patch.function(generate, "prime_memory", self._wrap_prefill(None))
            patch.function(generate, "extend_memory", self._wrap_prefill(3))

    def _wrap_step(self, step):
        def timed_step(*args, **kwargs):
            out = step(*args, **kwargs)
            now = time.perf_counter()
            self.durations.append(now - self.mark)
            self.mark = now
            self._next_request()
            return out
        return timed_step

    def _wrap_reply(self, reply):
        def timed_reply(*args, **kwargs):
            start = time.perf_counter()
            utterance, memory = reply(*args, **kwargs)
            end = time.perf_counter()
            self.durations.append(end - start)
            self.reply_ends.append(end)
            self.replies.append((utterance.ids, utterance.exhausted))
            self.failed += utterance.exhausted
            self._next_request()
            return utterance, memory
        return timed_reply

    def _wrap_prefill(self, memory_arg):
        def wrap(fn):
            def timed_prefill(*args, **kwargs):
                before = 0 if memory_arg is None else int(args[memory_arg].counts[0])
                start = time.perf_counter()
                memory = fn(*args, **kwargs)
                self.prefill_s += time.perf_counter() - start
                self.prefill_tokens += int(memory.counts[0]) - before
                return memory
            return timed_prefill
        return wrap


class TrainWorkload:
    """Adapter training through `roletune.training.train`, as `compare` runs
    it (lr 2e-2, batch 4), one epoch over TRAIN_DIALOGUES per cycle, from
    fresh adapters over the same frozen base each cycle."""

    kind = "train"
    tail_q = 0.90
    min_cycles = 4             # so the sustained rate has four windows

    def __init__(self, mode: str):
        self.mode = mode
        self.name = f"train-{mode}"

    def config(self, seed):
        return training.TrainConfig(mode=self.mode, lr=2e-2, epochs=1, seed=seed,
                                    batch_size=TRAIN_BATCH)

    def setup(self, seed, out_dir):
        samples = make_inputs(self.name, seed)
        model, adapters = load_model(out_dir)
        training.train(samples[:TRAIN_BATCH], self.config(seed), model=model, adapters=adapters)
        return {"seed": seed, "samples": samples, "model": model,
                "tokens": corpus_tokens(samples)}

    def cycle(self, state, log: OpLog, index: int):
        adapters = RoleAdapters(MODEL, seed=MODEL_SEED)
        log.mark = time.perf_counter()
        result = training.train(state["samples"], self.config(state["seed"]),
                                model=state["model"], adapters=adapters)
        return {"loss_log": result.loss_log, "tokens": state["tokens"]}

    def work_tokens(self, cycles, log):
        return sum(c["tokens"] for c in cycles if c is not None)

    def rates(self, phase):
        """Tokens per second of each cycle (one epoch), a failed one as 0."""
        tokens = [c["tokens"] if c is not None else 0 for c in phase["cycles"]]
        return window_rates(phase["start"], phase["cycle_ends"], tokens, 1)

    def agent_loss(self, state, cycles):
        first = next(c for c in cycles if c is not None)
        return float(np.mean([r["L_s"] for r in first["loss_log"][-LOSS_TAIL:]]))

    def checks(self, state, cycles, log):
        """Losses finite; the cycle's final agent loss below its first
        step's; every cycle repeats the first cycle's loss log exactly."""
        failures = []
        done = [c for c in cycles if c is not None]
        if not done:
            return ["no training cycle completed"]
        first = done[0]["loss_log"]
        for c in done:
            bad = [r["step"] for r in c["loss_log"]
                   if not all(math.isfinite(r[k]) for k in ("L_s", "L_u", "L_total"))]
            if bad:
                failures.append(f"non-finite loss at steps {bad[:5]}")
        final = self.agent_loss(state, done)
        if not final < first[0]["L_s"]:
            failures.append(f"final agent loss {final:.4f} not below first step's {first[0]['L_s']:.4f}")
        for i, c in enumerate(done[1:], start=1):
            if c["loss_log"] != first:
                failures.append(f"cycle {i} loss log differs from cycle 0 on the same inputs")
        return failures


class DecodeWorkload:
    """Greedy decoding (top_k=1, REPLY_BUDGET tokens) on a freshly
    initialised backbone with fresh adapters, saved and loaded through
    `checkpoint`. Fresh adapters are exact no-ops (B = 0), so replies run to
    the budget and the decode work does not depend on what training learns."""

    kind = "decode"
    tail_q = 0.95

    def setup(self, seed, out_dir):
        samples = make_inputs(self.name, seed)
        model, adapters = load_model(out_dir)
        gen = GenerationConfig(top_k=1, max_new_tokens=REPLY_BUDGET, seed=seed)
        memory = generate.prime_memory(model, adapters, TOKENIZER, samples[0].instruction, [])
        generate.generate_response(model, adapters, TOKENIZER, memory, "agent", gen)
        return {"seed": seed, "samples": samples, "model": model,
                "adapters": adapters, "gen": gen}

    def work_tokens(self, cycles, log):
        return sum(len(ids) - 1 for ids, _ in log.replies)

    def rates(self, phase):
        """Sampled tokens per second of each window of window_ops replies,
        prefill and scoring between them included."""
        log = phase["log"]
        return window_rates(phase["start"], log.reply_ends,
                            [len(ids) - 1 for ids, _ in log.replies], self.window_ops)

    def agent_loss(self, state, cycles):
        """Teacher-forced token-mean L_s of the decode model over the
        workload's first LOSS_DIALOGUES dialogues: a guard on the numerics of
        the model the workload decodes with."""
        cfg = training.TrainConfig(batch_size=TRAIN_BATCH)
        batches = data.build_round_batches(state["samples"][:LOSS_DIALOGUES], TOKENIZER, TRAIN_BATCH)
        total = count = 0.0
        for batch in batches:
            ls, _, n_s, _ = training.midi_losses(state["model"], state["adapters"], batch, cfg)
            total += ls.item() * n_s
            count += n_s
        return total / count

    def greedy_mismatches(self, state, context: list[int], ids: list[int]) -> int:
        """Steps of one greedy reply whose token differs from the argmax (over
        the sampleable ids) of an uncached full forward over the same
        context. The final forced end marker is not a greedy choice."""
        seq = np.asarray(context + ids[:-1], dtype=np.int64)[None, :]
        logits, _ = state["model"].forward_segment(seq, np.arange(seq.shape[1])[None, :],
                                                   "agent", state["adapters"])
        rows = logits.data[0, len(context):]
        cand = candidate_ids(rows.shape[-1])
        picks = cand[np.argmax(rows[:, cand], axis=1)]
        steps = len(ids) - 1
        if steps == REPLY_BUDGET and ids[-1] == data.ByteTokenizer.EOS:
            steps -= 1
        return int(np.sum(picks[:steps] != np.asarray(ids[1:steps + 1])))


class EvalWorkload(DecodeWorkload):
    """`evaluate_corpus` over EVAL_DIALOGUES dialogues of ROUNDS rounds, as
    `roletune eval` runs it: gold context replayed, one agent reply per
    round."""

    name = "eval-decode"
    min_cycles = 2
    window_ops = 2 * ROUNDS    # two whole dialogues
    check_replies = ((0, 0), (0, ROUNDS - 1), (EVAL_DIALOGUES - 1, ROUNDS // 2))

    def cycle(self, state, log, index):
        first = len(log.replies)
        result = evaluate.evaluate_corpus(state["model"], state["adapters"], state["samples"],
                                          state["gen"], oracle=ConsistencyOracle(spec()))
        return {"digest": digest(result.responses), "first_reply": first,
                "counts": [len(r) for r in result.responses]}

    def checks(self, state, cycles, log):
        """Every dialogue gets a reply per round; sampled greedy replies
        match an uncached forward; repeats give the same reply digest."""
        failures = []
        done = [c for c in cycles if c is not None]
        if not done:
            return ["no evaluation cycle completed"]
        for i, c in enumerate(done):
            short = sum(ROUNDS - n for n in c["counts"])
            if short:
                failures.append(f"cycle {i}: {short} replies missing")
            if c["digest"] != done[0]["digest"]:
                failures.append(f"cycle {i}: reply digest {c['digest']} != {done[0]['digest']}")
        base = done[0]["first_reply"]
        for d, r in self.check_replies:
            sample = state["samples"][d]
            context = list(TOKENIZER.encode_instruction(sample.instruction))
            for user, agent in sample.rounds[:r]:
                context += TOKENIZER.encode_utterance("user", user)
                context += TOKENIZER.encode_utterance("agent", agent)
            context += TOKENIZER.encode_utterance("user", sample.rounds[r][0])
            ids, _ = log.replies[base + d * ROUNDS + r]
            bad = self.greedy_mismatches(state, context, ids)
            if bad:
                failures.append(f"dialogue {d} round {r}: {bad} greedy steps differ from an uncached forward")
        return failures


class ChatWorkload(DecodeWorkload):
    """`self_chat` for CHAT_ROUNDS rounds per instruction, as `roletune
    chat-sim` runs it; both roles decode over one growing memory."""

    name = "chat-long"
    min_cycles = CHAT_INSTRUCTIONS + 1     # so one instruction repeats
    window_ops = 2 * CHAT_ROUNDS           # one whole chat
    check_utterances = (0, CHAT_ROUNDS + 1, 2 * CHAT_ROUNDS - 1)

    def cycle(self, state, log, index):
        pick = index % CHAT_INSTRUCTIONS
        first = len(log.replies)
        sample, truncated = generate.self_chat(state["model"], state["adapters"], TOKENIZER,
                                               state["samples"][pick].instruction, CHAT_ROUNDS,
                                               state["gen"])
        return {"instruction": pick, "digest": digest(sample.rounds),
                "first_reply": first, "rounds": len(sample.rounds), "truncated": truncated}

    def checks(self, state, cycles, log):
        """Every chat reaches CHAT_ROUNDS rounds; sampled greedy utterances
        match an uncached forward; a repeated instruction gives the same
        transcript digest."""
        failures = []
        done = [c for c in cycles if c is not None]
        if not done:
            return ["no chat completed"]
        seen = {}
        for i, c in enumerate(done):
            if c["truncated"] or c["rounds"] != CHAT_ROUNDS:
                failures.append(f"chat {i} stopped at {c['rounds']}/{CHAT_ROUNDS} rounds")
            ref = seen.setdefault(c["instruction"], c["digest"])
            if c["digest"] != ref:
                failures.append(f"chat {i}: transcript digest {c['digest']} != {ref}")
        first = done[0]
        context = list(TOKENIZER.encode_instruction(state["samples"][first["instruction"]].instruction))
        utterances = [ids for ids, _ in log.replies[first["first_reply"]:first["first_reply"] + 2 * CHAT_ROUNDS]]
        for k, ids in enumerate(utterances):
            if k in self.check_utterances:
                bad = self.greedy_mismatches(state, context, ids)
                if bad:
                    failures.append(f"chat utterance {k}: {bad} greedy steps differ from an uncached forward")
            context += ids
        return failures


WORKLOADS = {
    "train-midi": TrainWorkload("midi"),
    "train-concat": TrainWorkload("concat"),
    "eval-decode": EvalWorkload(),
    "chat-long": ChatWorkload(),
}
