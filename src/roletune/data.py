"""Corpus ingestion, byte tokenization, round batching, and synthetic data.

Corpus files are newline-delimited JSON records, one dialogue per line:
{"instruction": str, "turns": [{"role": "user"|"assistant", "text": str}, ...],
 "target": {"act": str, "topic": str, "round": int}?}. Turns must start with a
user turn and alternate strictly.

Token layout (byte-level): an instruction becomes [BOS, bytes...]; an
utterance becomes [ROLE_X, bytes..., EOS]. Loss masks cover utterance bytes
plus the terminating EOS — never role specials, instruction, or padding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .config import Config
from .errors import CapacityError, ConfigError, CorpusError
from .rng import labeled_rng
from .tensor import MASK_NEG


class ByteTokenizer:
    """Raw UTF-8 bytes shifted past five reserved specials."""

    PAD = 0
    BOS = 1
    EOS = 2
    ROLE_USER = 3
    ROLE_AGENT = 4
    OFFSET = 5
    vocab_size = OFFSET + 256
    SPECIALS = (PAD, BOS, EOS, ROLE_USER, ROLE_AGENT)

    def encode(self, text: str) -> list[int]:
        return [b + self.OFFSET for b in text.encode("utf-8")]

    def decode(self, ids, errors: str = "strict") -> str:
        """Inverse of encode. `errors` relaxes UTF-8 decoding for sampled id
        sequences that do not form valid byte text; unknown ids always raise."""
        out = bytearray()
        for i in ids:
            i = int(i)
            if not self.OFFSET <= i < self.vocab_size:
                raise IndexError(f"id {i} is not a byte token (valid range {self.OFFSET}..{self.vocab_size - 1})")
            out.append(i - self.OFFSET)
        return out.decode("utf-8", errors=errors)

    def role_token(self, role: str) -> int:
        if role == "user":
            return self.ROLE_USER
        if role == "agent":
            return self.ROLE_AGENT
        raise ConfigError(f"unknown role {role!r}")

    def encode_utterance(self, role: str, text: str) -> list[int]:
        return [self.role_token(role)] + self.encode(text) + [self.EOS]

    def encode_instruction(self, text: str) -> list[int]:
        return [self.BOS] + self.encode(text)


@dataclass
class DialogueSample:
    """An instruction plus ordered (user, agent) utterance pairs."""

    instruction: str
    rounds: list[tuple[str, str]]
    target: dict | None = None

    def validate(self):
        if not isinstance(self.instruction, str):
            raise CorpusError(f"instruction {self.instruction!r} is not a string")
        if not self.rounds:
            raise CorpusError("dialogue has no rounds")
        for t, (user, agent) in enumerate(self.rounds):
            if not user or not agent:
                raise CorpusError(f"round {t + 1} has an empty utterance")
        if self.target is not None:
            if not isinstance(self.target, dict):
                raise CorpusError(f"target annotation {self.target!r} is not an object")
            if "topic" not in self.target:
                raise CorpusError("target annotation lacks a topic")
            rnd = self.target.get("round")
            if rnd is not None and (type(rnd) is not int or not 1 <= rnd <= len(self.rounds)):
                raise CorpusError(f"target round {rnd!r} is not an integer in 1..{len(self.rounds)}")
        return self

    def target_round(self) -> int | None:
        """Ground-truth round for target scoring; defaults to the final round."""
        if self.target is None:
            return None
        return self.target.get("round", len(self.rounds))

    def last_rounds(self, n: int) -> "DialogueSample":
        """The dialogue cut to its last n rounds. A target round is renumbered
        over them; a target whose round was cut goes with it."""
        kept = self.rounds[-n:]
        target = self.target
        if target is not None and target.get("round") is not None:
            rnd = target["round"] - (len(self.rounds) - len(kept))
            target = {**target, "round": rnd} if rnd >= 1 else None
        return DialogueSample(self.instruction, kept, target)

    def to_record(self) -> dict:
        turns = []
        for user, agent in self.rounds:
            turns.append({"role": "user", "text": user})
            turns.append({"role": "assistant", "text": agent})
        record = {"instruction": self.instruction, "turns": turns}
        if self.target is not None:
            record["target"] = self.target
        return record

    @classmethod
    def from_record(cls, record: dict) -> "DialogueSample":
        if not isinstance(record, dict):
            raise CorpusError(f"record is a JSON {type(record).__name__}, not an object")
        turns = record.get("turns")
        if not isinstance(turns, list) or not turns:
            raise CorpusError("record has no turns")
        if len(turns) % 2 != 0:
            raise CorpusError("unpaired final user turn")
        rounds = []
        for i, turn in enumerate(turns):
            expected = "user" if i % 2 == 0 else "assistant"
            if not isinstance(turn, dict):
                raise CorpusError(f"turn {i + 1} is not an object")
            role = turn.get("role")
            if role != expected:
                raise CorpusError(f"turn {i + 1} has role {role!r}, expected {expected!r}")
            if not isinstance(turn.get("text"), str):
                raise CorpusError(f"turn {i + 1} lacks text")
        for i in range(0, len(turns), 2):
            rounds.append((turns[i]["text"], turns[i + 1]["text"]))
        return cls(
            instruction=record.get("instruction", ""),
            rounds=rounds,
            target=record.get("target"),
        ).validate()


def load_corpus(path) -> list[DialogueSample]:
    samples = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"{path}: line {lineno}: invalid JSON ({e.msg})") from e
            try:
                samples.append(DialogueSample.from_record(record))
            except CorpusError as e:
                raise CorpusError(f"{path}: line {lineno}: {e}") from e
    return samples


def save_corpus(samples, path):
    with open(path, "w", encoding="utf-8") as f:
        for sample in samples:
            f.write(json.dumps(sample.to_record(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# round-structured batching
# ---------------------------------------------------------------------------

@dataclass
class SegmentBatch:
    """One padded segment grid with its bookkeeping arrays."""

    tokens: np.ndarray      # (batch, width) ids, PAD-filled
    validity: np.ndarray    # (batch, width) bool
    loss_mask: np.ndarray   # (batch, width) bool — prediction targets only


@dataclass
class RoundBatch:
    """A batch of dialogues laid out round by round, sorted by round count."""

    instruction: SegmentBatch
    rounds: list[dict]          # per round: {"user": SegmentBatch, "agent": SegmentBatch}
    round_counts: np.ndarray    # (batch,) rounds per dialogue, descending
    samples: list[DialogueSample]

    @property
    def batch(self) -> int:
        return self.round_counts.shape[0]

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


def _segment_batch(seqs: list[list[int]], loss_from: int | None) -> SegmentBatch:
    """Pad sequences right and derive validity and loss grids.

    loss_from: index of the first in-segment slot scored by the loss (1 skips
    the leading role special), or None for a loss-free segment.
    """
    width = max((len(s) for s in seqs), default=0)
    width = max(width, 1)
    batch = len(seqs)
    tokens = np.full((batch, width), ByteTokenizer.PAD, dtype=np.int64)
    loss = np.zeros((batch, width), dtype=bool)
    for i, s in enumerate(seqs):
        tokens[i, :len(s)] = s
        if loss_from is not None and len(s) > loss_from:
            loss[i, loss_from:len(s)] = True
    return SegmentBatch(tokens, tokens != ByteTokenizer.PAD, loss)


def build_round_batches(samples: list[DialogueSample], tokenizer: ByteTokenizer,
                        batch_size: int, max_rounds: int = 10) -> list[RoundBatch]:
    """Group dialogues into batches of per-round padded segment grids.

    Dialogues longer than max_rounds keep their last max_rounds rounds. Within
    a batch, dialogues are sorted by round count descending so later rounds
    form a shrinking valid set.
    """
    if not samples:
        raise CorpusError("empty sample set")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if max_rounds < 1:
        raise ConfigError(f"max_rounds must be >= 1, got {max_rounds}")

    batches = []
    for start in range(0, len(samples), batch_size):
        chunk = [s.validate().last_rounds(max_rounds) for s in samples[start:start + batch_size]]
        chunk.sort(key=lambda s: -len(s.rounds))
        instruction = _segment_batch(
            [tokenizer.encode_instruction(s.instruction) for s in chunk], None)
        n_rounds = max(len(s.rounds) for s in chunk)
        rounds = []
        for t in range(n_rounds):
            segs = {}
            for role, pick in (("user", 0), ("agent", 1)):
                seqs = [
                    tokenizer.encode_utterance(role, s.rounds[t][pick])
                    if t < len(s.rounds) else []
                    for s in chunk
                ]
                segs[role] = _segment_batch(seqs, 1)
            rounds.append(segs)
        batches.append(RoundBatch(
            instruction, rounds,
            np.array([len(s.rounds) for s in chunk], dtype=np.int64), chunk,
        ))
    return batches


def visibility_mask(q_segments, q_valid, q_is_agent, k_segments, k_valid, start=0,
                    strict_cross_round: bool = False,
                    user_sees_instruction: bool = True) -> np.ndarray:
    """Additive attention mask (batch, queries, keys), for training's packed
    grid (queries = keys) and for a decoded segment over [stored; new] alike.

    Key columns run in dialogue order; segment ids (0 the instruction, then
    one per utterance) never decrease along a row's valid columns. Query i
    sits at column start + i and, if valid, sees the valid keys up to it:
    with strict_cross_round only earlier segments', with user_sees_instruction
    off not the instruction's for user queries. Every query sees itself.
    """
    cols = np.arange(k_valid.shape[-1])
    own = np.arange(start, start + q_valid.shape[-1])[:, None]  # each query's column
    visible = q_valid[..., :, None] & k_valid[..., None, :]
    visible &= cols <= own
    if strict_cross_round:
        visible &= k_segments[..., None, :] < q_segments[..., :, None]
    if not user_sees_instruction:
        visible &= q_is_agent[..., :, None] | (k_segments[..., None, :] != 0)
    visible |= cols == own
    return np.where(visible, np.float32(0.0), np.float32(MASK_NEG))


def position_ids(valid, start=0) -> np.ndarray:
    """Ids continuing from start over each row's valid slots; 0 at padding."""
    return np.where(valid, start + np.cumsum(valid, axis=1) - 1, 0)


# ---------------------------------------------------------------------------
# fitting dialogues to the model
# ---------------------------------------------------------------------------

def fit_dialogue(sample: DialogueSample, tokenizer: ByteTokenizer,
                 max_rounds: int, max_positions: int) -> DialogueSample:
    """The dialogue every training mode sees: its last max_rounds rounds,
    then its earliest rounds dropped whole while the instruction plus every
    utterance would overflow max_positions. The instruction is always kept;
    a dialogue that does not fit even at one round raises CapacityError.
    """
    sample.validate()
    rounds = sample.rounds[-max_rounds:]
    # positions taken by the instruction plus the last 1, 2, ... rounds
    needed = len(tokenizer.encode_instruction(sample.instruction)) + np.cumsum([
        len(tokenizer.encode_utterance("user", u)) + len(tokenizer.encode_utterance("agent", a))
        for u, a in reversed(rounds)])
    keep = int((needed <= max_positions).sum())
    if keep == 0:
        raise CapacityError(
            f"dialogue needs {needed[0]} positions even at one round; limit {max_positions}")
    return sample.last_rounds(keep)


# ---------------------------------------------------------------------------
# synthetic role-separation corpus
# ---------------------------------------------------------------------------

@dataclass
class SynthSpec(Config):
    """Recipe for the synthetic corpus: two disjoint role vocabularies, agent
    persona markers, optional planted target topics, and sizing ranges."""

    user_vocab: tuple[str, ...]
    agent_vocab: tuple[str, ...]
    markers: tuple[str, ...]
    topics: tuple[str, ...] = ()
    rounds_min: int = 2
    rounds_max: int = 8
    user_words: tuple[int, int] = (2, 4)
    agent_words: tuple[int, int] = (2, 4)
    with_targets: bool = False

    def __post_init__(self):
        for f in fields(self):
            if f.type.startswith("tuple["):
                setattr(self, f.name, tuple(getattr(self, f.name)))
        if not self.user_vocab or not self.agent_vocab or not self.markers:
            raise ConfigError("user_vocab, agent_vocab, and markers must be non-empty")
        agent_side = set(self.agent_vocab) | set(self.markers) | set(self.topics)
        overlap = set(self.user_vocab) & agent_side
        if overlap:
            raise ConfigError(f"role vocabularies overlap: {sorted(overlap)}")
        if self.with_targets and not self.topics:
            raise ConfigError("with_targets requires a topics list")
        if not 1 <= self.rounds_min <= self.rounds_max:
            raise ConfigError(f"bad round range [{self.rounds_min}, {self.rounds_max}]")
        for name, (lo, hi) in (("user_words", self.user_words), ("agent_words", self.agent_words)):
            if not 1 <= lo <= hi:
                raise ConfigError(f"bad {name} range [{lo}, {hi}]")

    def agent_side_words(self) -> frozenset:
        return frozenset(self.agent_vocab) | frozenset(self.markers) | frozenset(self.topics)


def default_synth_spec(with_targets: bool = False) -> SynthSpec:
    # Short words keep the byte-level modeling task within reach of a small
    # frozen-base model: every in-role word is two letters, so one byte of
    # context pins the next byte, and replies stay a handful of decisions.
    return SynthSpec(
        user_vocab=("hi", "go", "do", "so", "up", "at", "my", "we"),
        agent_vocab=("ka", "mo", "ri", "ze", "lu", "ba", "te", "ni"),
        markers=("xe", "qo", "vu", "je", "fy", "cy"),
        topics=("oz", "iz", "uz", "ez"),
        with_targets=with_targets,
    )


def synth_generate(seed: int, n_dialogues: int, spec: SynthSpec) -> list[DialogueSample]:
    """Deterministic corpus: user turns draw user-vocabulary words; agent
    turns open with the dialogue's persona marker and continue in agent
    vocabulary; targeted dialogues plant their topic in the final round."""
    rng = labeled_rng(seed, "synth-corpus")
    samples = []
    for _ in range(n_dialogues):
        marker = spec.markers[rng.integers(len(spec.markers))]
        topic = spec.topics[rng.integers(len(spec.topics))] if spec.with_targets else None
        instruction = f"persona {marker}"
        if topic is not None:
            instruction += f" target {topic}"
        n_rounds = int(rng.integers(spec.rounds_min, spec.rounds_max + 1))
        rounds = []
        for t in range(n_rounds):
            n_u = int(rng.integers(spec.user_words[0], spec.user_words[1] + 1))
            user = " ".join(spec.user_vocab[i] for i in rng.integers(len(spec.user_vocab), size=n_u))
            n_a = int(rng.integers(spec.agent_words[0], spec.agent_words[1] + 1))
            words = [marker] + [
                spec.agent_vocab[i] for i in rng.integers(len(spec.agent_vocab), size=n_a)
            ]
            if topic is not None and t == n_rounds - 1:
                words.append(topic)
            rounds.append((user, " ".join(words)))
        target = None
        if topic is not None:
            target = {"act": "mention", "topic": topic, "round": n_rounds}
        samples.append(DialogueSample(instruction, rounds, target).validate())
    return samples
