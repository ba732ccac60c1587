"""Sampling-based inference over a primed round memory.

Priming replays an instruction and any number of finished utterances through
the model exactly as training laid them out (each utterance one segment, run
under its speaker's deltas) and collects the key/value slots. Generation then
extends the memory token by token: every sampled token is forwarded as one
more slot of its reply's segment and appended, so the next step attends to it
through the cache instead of re-reading the whole context. The forward writes
the token's K/V into the memory's preallocated store and the new memory
adopts that slot, so a decoded token copies no stored slot, and the memory it
grew from is left whole: a later append from it (evaluation's gold reply)
moves its slots to a fresh store once. Each slot sees what it saw in
training: the memory applies training's visibility rule under the regime the
adapters were trained in (`RoleAdapters.regime`).

Every segment runs on its speaker's merged weights (`Transformer.merge_role`):
each decode call merges the deltas once, W + (alpha/r) * B @ A, and forwards
without adapters, so a projection costs one product per token instead of
three plus a scale and an add. The merge is built per call, never kept, so a
training step between calls is always seen.

Sampling filters logits in a fixed order — temperature, then top-k, then
nucleus (top-p) — over the decodable candidate set: byte tokens plus the
end-of-utterance marker. Structural ids (padding, sequence start, role
markers) are never sampled.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import Config
from .data import ByteTokenizer, DialogueSample
from .errors import CapacityError, ConfigError
from .memory import RoundMemory
from .model import ROLES, RoleAdapters, Transformer
from .rng import labeled_rng


@dataclass(frozen=True)
class GenerationConfig(Config):
    temperature: float = 1.0
    top_k: int | None = 40
    top_p: float = 0.75
    max_new_tokens: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.top_k is not None and self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1 or None, got {self.top_k}")
        if not 0.0 < self.top_p <= 1.0:
            raise ConfigError(f"top_p must lie in (0, 1], got {self.top_p}")
        if self.max_new_tokens < 1:
            raise ConfigError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@functools.lru_cache(maxsize=8)
def candidate_ids(n_logits: int) -> np.ndarray:
    """Sampleable ids: the end-of-utterance marker plus every byte token.
    Structural specials and ids past the byte range are excluded. Built once
    per logits width; the array is shared, so it is read-only."""
    ids = [ByteTokenizer.EOS] + list(range(ByteTokenizer.OFFSET, ByteTokenizer.vocab_size))
    out = np.array([i for i in ids if i < n_logits], dtype=np.int64)
    out.flags.writeable = False
    return out


def sample_from_logits(logits: np.ndarray, rng: np.random.Generator,
                       cfg: GenerationConfig) -> int:
    """Draw one token id from a final-position logit vector.

    Filter order: restrict to candidates, divide by temperature, keep the
    top_k highest, keep the smallest probability-sorted prefix reaching
    top_p, renormalize, draw.
    """
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    ids = candidate_ids(logits.shape[0])
    z = logits[ids] / cfg.temperature

    if cfg.top_k is not None and cfg.top_k < ids.shape[0]:
        keep = np.argpartition(z, -cfg.top_k)[-cfg.top_k:]
        ids, z = ids[keep], z[keep]

    probs = np.exp(z - z.max())
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    cut = int(np.searchsorted(np.cumsum(probs[order]), cfg.top_p)) + 1
    kept = order[:min(cut, order.shape[0])]
    ids, probs = ids[kept], probs[kept]
    probs /= probs.sum()
    return int(ids[rng.choice(ids.shape[0], p=probs)])


def _forward_slots(model, regime: dict, memory: RoundMemory, token_ids, role: str,
                   segment: int, what: str):
    """Run one fully-valid batch=1 segment on `model`, merged for `role`,
    against the memory under `regime`; returns (final logits row, memory').
    The forward writes the segment's K/V into the memory's store and
    memory' adopts them (`RoundMemory.append`)."""
    seg = np.asarray(token_ids, dtype=np.int64)[None, :]
    validity = np.ones(seg.shape, dtype=bool)
    positions = memory.next_positions(validity)
    if positions[0, -1] >= model.config.max_positions:
        raise CapacityError(f"{what} needs {positions[0, -1] + 1} positions, exceeding "
                            f"the model's {model.config.max_positions}")
    mask = memory.build_mask(validity, segment, role, **regime)
    logits, kv = model.forward_segment(seg, positions, role, None,
                                       cache=memory.layers, mask=mask)
    return logits.data[0, -1], memory.append(kv, validity, segment)


def prime_memory(model: Transformer, adapters: RoleAdapters,
                 tokenizer: ByteTokenizer, instruction: str,
                 turns: list[tuple[str, str]]) -> RoundMemory:
    """Build a batch=1 memory holding an instruction plus finished turns.

    turns: (role, text) pairs in dialogue order; each runs as one segment
    under its speaker's deltas. The instruction segment runs under the agent
    deltas, mirroring training.
    """
    c = model.config
    merged = {role: model.merge_role(adapters, role) for role in ROLES}
    memory = RoundMemory.empty(1, c.n_layers, c.n_heads, c.head_dim)
    try:
        _, memory = _forward_slots(merged["agent"], adapters.regime, memory,
                                   tokenizer.encode_instruction(instruction),
                                   "agent", 0, "the instruction")
        for i, (role, text) in enumerate(turns):
            if role not in ROLES:
                raise ConfigError(f"turn {i + 1} has unknown role {role!r}")
            _, memory = _forward_slots(merged[role], adapters.regime, memory,
                                       tokenizer.encode_utterance(role, text),
                                       role, i + 1, f"turn {i + 1}")
    except CapacityError as e:
        raise CapacityError(f"priming failed: {e}") from e
    return memory


def extend_memory(model: Transformer, adapters: RoleAdapters,
                  tokenizer: ByteTokenizer, memory: RoundMemory,
                  role: str, text: str) -> RoundMemory:
    """Append one finished utterance to a memory, run under its speaker."""
    if role not in ROLES:
        raise ConfigError(f"unknown role {role!r}")
    _, memory = _forward_slots(model.merge_role(adapters, role), adapters.regime, memory,
                               tokenizer.encode_utterance(role, text),
                               role, memory.next_segment, f"the {role} turn")
    return memory


@dataclass
class Utterance:
    """One generated reply.

    truncated: the text was cut short of a natural end-of-utterance, by
    either the token budget or position capacity. exhausted: specifically the
    position capacity ran out, so the closing marker never entered memory and
    no further turns fit.
    """

    ids: list[int]          # [role marker, bytes..., end marker]
    text: str
    truncated: bool
    exhausted: bool = False


def generate_response(model: Transformer, adapters: RoleAdapters,
                      tokenizer: ByteTokenizer, memory: RoundMemory,
                      role: str, cfg: GenerationConfig,
                      rng: np.random.Generator | None = None):
    """Sample one utterance for `role` on top of a primed memory.

    Returns (utterance, memory') where memory' additionally holds the new
    utterance's slots, so the caller can chain turns without re-priming.
    Stops at the end-of-utterance marker; at the token budget the marker is
    forced so the stored layout stays well-formed. If the position capacity
    runs out mid-utterance the text ends there and `exhausted` is set; the
    unforwarded end marker is then absent from memory.

    Without `rng` the reply draws from a fresh `labeled_rng(cfg.seed,
    "generate")`, so a caller decoding several replies passes one stream to
    all of them; otherwise every sampled reply repeats the same draws.
    """
    if rng is None:
        rng = labeled_rng(cfg.seed, "generate")
    model = model.merge_role(adapters, role)
    segment = memory.next_segment  # every token of the reply continues it
    ids = [tokenizer.role_token(role)]
    byte_ids: list[int] = []
    truncated = False
    exhausted = False

    logits, memory = _forward_slots(model, adapters.regime, memory, ids[:1], role,
                                    segment, "the role marker")
    for step in range(cfg.max_new_tokens):
        token = sample_from_logits(logits, rng, cfg)
        if token != ByteTokenizer.EOS and step == cfg.max_new_tokens - 1:
            token = ByteTokenizer.EOS  # budget exhausted: close the utterance
            truncated = True
        ids.append(token)
        try:
            logits, memory = _forward_slots(model, adapters.regime, memory, [token],
                                            role, segment, "generation")
        except CapacityError:
            if token != ByteTokenizer.EOS:
                ids.pop()  # the token never entered memory; drop it
                ids.append(ByteTokenizer.EOS)
            truncated = True
            exhausted = True
            break
        if token == ByteTokenizer.EOS:
            break
        byte_ids.append(token)

    text = tokenizer.decode(byte_ids, errors="replace")
    return Utterance(ids=ids, text=text, truncated=truncated,
                     exhausted=exhausted), memory


def self_chat(model: Transformer, adapters: RoleAdapters,
              tokenizer: ByteTokenizer, instruction: str, n_rounds: int,
              cfg: GenerationConfig):
    """Let the model play both sides for n_rounds user/agent exchanges.

    User turns run under the user deltas, agent turns under the agent deltas,
    all over one rolling memory seeded with the instruction. Budget-clipped
    utterances keep the chat going (their closing marker is in memory);
    running out of position capacity ends it. Returns (dialogue sample,
    truncated) — truncated means the chat ended before n_rounds.
    """
    if n_rounds < 0:
        raise ConfigError(f"n_rounds must be >= 0, got {n_rounds}")
    rng = labeled_rng(cfg.seed, "self-chat")
    memory = prime_memory(model, adapters, tokenizer, instruction, [])
    rounds: list[tuple[str, str]] = []
    truncated = False
    for _ in range(n_rounds):
        user, memory = generate_response(model, adapters, tokenizer, memory,
                                         "user", cfg, rng)
        if user.exhausted:
            truncated = True  # the half-finished round is dropped
            break
        agent, memory = generate_response(model, adapters, tokenizer, memory,
                                          "agent", cfg, rng)
        rounds.append((user.text, agent.text))
        if agent.exhausted:
            truncated = True
            break
    return DialogueSample(instruction, rounds, None), truncated
