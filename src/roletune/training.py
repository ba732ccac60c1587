"""Round-by-round adapter training plus the two whole-sequence baselines.

Three modes over the same frozen backbone, each one causal pass per batch:

- "midi": the round-level regime. A batch of dialogues is packed into one
  grid: the instruction runs under the agent deltas, each user utterance
  under the user deltas (user loss) and each agent utterance under the agent
  deltas (agent loss). What makes it round-level is data, not a loop: a
  block mask says which earlier segments a token reads, and a live-pair grid
  says which of those reads carry key/value gradient. A token reads its own
  segment live; agent tokens also read the instruction live, so the agent
  loss reaches the deltas that encoded it; every other read is detached, so
  no gradient crosses a round boundary and L_u never reaches the agent
  deltas. One step optimizes L = L_s + beta * L_u over both delta sets.
- "concat": midi's packed grid as one causal sequence per dialogue: every
  token under the agent deltas, every read live, loss on agent spans only.
- "split": one (context, response) sample per round, loss on the response,
  agent deltas only.

Before any of them, `train` fits each dialogue to max_rounds and the model's
max_positions by one rule (`data.fit_dialogue`), so all three modes see the
same rounds. Losses are token means per role per batch. All randomness forks
from the run seed by labeled streams, so e.g. midi and concat runs share base
and agent initializations exactly.

Masks and positions come from `data.visibility_mask` and `data.position_ids`,
shared with decoding, which runs under the options `train` records on the
adapters (`RoleAdapters.regime`).
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as rt
from .data import (
    ByteTokenizer,
    DialogueSample,
    RoundBatch,
    build_round_batches,
    fit_dialogue,
    make_split_samples,
    position_ids,
    visibility_mask,
)
from .errors import ConfigError
from .model import LoraDelta, ModelConfig, RoleAdapters, Transformer
from .rng import labeled_rng
from .tensor import Tape, Tensor

logger = logging.getLogger(__name__)

MODES = ("midi", "concat", "split")


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "midi"
    beta: float = 1.0               # user-loss weight; 0 is the stop-gradient diagnostic
    lr: float = 2e-5
    warmup_ratio: float = 0.03
    batch_size: int = 16
    micro_batch: int | None = None  # per-backward slice for gradient accumulation
    epochs: int = 3
    max_rounds: int = 10
    seed: int = 0
    rank: int = 8
    alpha: float = 16.0
    weight_decay: float = 0.0
    strict_cross_round: bool = False        # tokens see earlier segments + self only
    user_sees_instruction: bool = True      # hide the instruction from user turns if off
    backprop_through_rounds: bool = False   # ablation: every cross-segment read differentiable

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigError(f"warmup_ratio must lie in [0, 1), got {self.warmup_ratio}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        for name in ("batch_size", "epochs", "max_rounds", "rank"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.micro_batch is not None and not 1 <= self.micro_batch <= self.batch_size:
            raise ConfigError(f"micro_batch must lie in 1..batch_size, got {self.micro_batch}")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "beta": self.beta, "lr": self.lr,
            "warmup_ratio": self.warmup_ratio, "batch_size": self.batch_size,
            "micro_batch": self.micro_batch, "epochs": self.epochs,
            "max_rounds": self.max_rounds, "seed": self.seed, "rank": self.rank,
            "alpha": self.alpha, "weight_decay": self.weight_decay,
            "strict_cross_round": self.strict_cross_round,
            "user_sees_instruction": self.user_sees_instruction,
            "backprop_through_rounds": self.backprop_through_rounds,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear warmup from 0 over the first warmup_ratio of steps, then a
    cosine decay toward 0 at total_steps."""
    warmup = int(cfg.warmup_ratio * total_steps)
    if step < warmup:
        return cfg.lr * step / warmup
    span = max(total_steps - warmup, 1)
    progress = (step - warmup) / span
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Decoupled-weight-decay Adam over named parameter tensors."""

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = dict(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = (p.data - lr * update).astype(p.data.dtype, copy=False)


def shifted_targets(tokens: np.ndarray, loss_mask: np.ndarray):
    """Next-token targets aligned with each position's logits: position j is
    scored (against token j+1) exactly when token j+1 carries the loss mask."""
    targets = np.zeros_like(tokens)
    targets[:, :-1] = tokens[:, 1:]
    mask = np.zeros(loss_mask.shape, dtype=bool)
    mask[:, :-1] = loss_mask[:, 1:]
    return targets, mask


@dataclass
class PackedBatch:
    """Dialogues as one causal grid: each row's valid tokens first, in
    order, padding after them, plus the segment each token came from.

    Segment 0 is the instruction; user (odd) and agent (even) utterances
    follow, round by round. A split batch is one segment 0 per row.
    """

    tokens: np.ndarray      # (batch, width)
    validity: np.ndarray
    loss_mask: np.ndarray
    segments: np.ndarray

    @property
    def positions(self) -> np.ndarray:
        return position_ids(self.validity)

    @property
    def is_agent(self) -> np.ndarray:
        return self.segments % 2 == 0


def pack_round_batch(batch: RoundBatch) -> PackedBatch:
    """Concatenate the instruction and round segments of each dialogue and
    move its valid tokens left with a stable sort."""
    segs = [(batch.instruction, "instruction")] + [
        (r[role], role) for r in batch.rounds for role in ("user", "agent")]
    for seg, tag in segs:
        if not seg.validity.any():
            logger.warning("skipping %s segment with zero valid tokens in every dialogue", tag)
    joined = {name: np.concatenate([getattr(seg, name) for seg, _ in segs], axis=1)
              for name in ("tokens", "validity", "loss_mask")}
    joined["segments"] = np.concatenate([np.full(seg.tokens.shape, i)
                                         for i, (seg, _) in enumerate(segs)], axis=1)
    order = np.argsort(~joined["validity"], axis=1, kind="stable")
    width = int(joined["validity"].sum(axis=1).max())
    packed = {k: np.take_along_axis(v, order, axis=1)[:, :width] for k, v in joined.items()}
    return PackedBatch(**packed)


def live_pairs(packed: PackedBatch) -> np.ndarray:
    """The (query, key) pairs that carry key/value gradient in the
    round-level regime: a token's own segment, plus the instruction for
    agent tokens."""
    same = packed.segments[:, :, None] == packed.segments[:, None, :]
    return same | (packed.is_agent[:, :, None] & (packed.segments[:, None, :] == 0))


def _without_gradient(adapters: RoleAdapters, role: str) -> RoleAdapters:
    """A shallow copy of `adapters` whose `role` deltas are detached."""
    out = copy.copy(adapters)
    out.deltas = {**adapters.deltas, role: {
        key: LoraDelta(d.A.detach(), d.B.detach(), d.alpha)
        for key, d in adapters.deltas[role].items()}}
    return out


def midi_losses(model: Transformer, adapters: RoleAdapters, batch: RoundBatch,
                cfg: TrainConfig):
    """One packed pass over a round batch; returns (L_s, L_u, n_s, n_u).

    L_s and L_u are live tensors (token means over agent and user targets).
    Agent tokens read the instruction K/V live, so L_s trains the agent
    deltas to write the instruction in a form later rounds can read. Every
    other read of an earlier segment is detached: no gradient crosses a
    round boundary and L_u never reaches the agent deltas. With beta 0 the
    user deltas run detached, so they get no gradient entry at all.
    cfg.backprop_through_rounds keeps every read live for both roles.
    """
    packed = pack_round_batch(batch)
    mask = visibility_mask(packed.segments, packed.validity, packed.is_agent,
                           packed.segments, packed.validity, 0,
                           cfg.strict_cross_round, cfg.user_sees_instruction)
    live = None
    if not cfg.backprop_through_rounds:
        live = live_pairs(packed)
        if cfg.beta == 0.0:
            adapters = _without_gradient(adapters, "user")
    logits, _ = model.forward_segment(packed.tokens, packed.positions, packed.is_agent,
                                      adapters, mask=mask, live=live)
    targets, tmask = shifted_targets(packed.tokens, packed.loss_mask)
    (ls, n_s), (lu, n_u) = rt.cross_entropy(logits, targets, tmask & packed.is_agent,
                                            tmask & ~packed.is_agent)
    return ls, lu, n_s, n_u


def combine_losses(ls: Tensor, lu: Tensor, beta: float) -> Tensor:
    """L = L_s + beta * L_u; at beta=0 the user branch is dropped entirely so
    no gradient path into the user deltas exists at all."""
    if beta == 0.0:
        return ls
    return ls + lu * beta


# ---------------------------------------------------------------------------
# whole-sequence baselines (concat and split share the causal pass)
# ---------------------------------------------------------------------------

def pad_causal_batch(pairs: list[tuple[np.ndarray, np.ndarray]]) -> PackedBatch:
    """Pad (ids, loss_mask) sequences into one right-padded grid."""
    width = max(len(ids) for ids, _ in pairs)
    batch = len(pairs)
    tokens = np.full((batch, width), ByteTokenizer.PAD, dtype=np.int64)
    loss = np.zeros((batch, width), dtype=bool)
    for i, (ids, mask) in enumerate(pairs):
        tokens[i, :len(ids)] = ids
        loss[i, :len(mask)] = mask
    validity = tokens != ByteTokenizer.PAD
    return PackedBatch(tokens, validity, loss, np.zeros(tokens.shape, dtype=np.int64))


def split_pairs(samples: list[DialogueSample], tokenizer: ByteTokenizer):
    out = []
    for s in samples:
        for context, response in make_split_samples(s, tokenizer):
            ids = np.concatenate([context, response])
            mask = np.zeros(len(ids), dtype=bool)
            mask[len(context) + 1:] = True  # response bytes + EOS, not its role special
            out.append((ids, mask))
    return out


def causal_loss(model: Transformer, adapters: RoleAdapters, batch: PackedBatch):
    """Agent-span token-mean loss of a plain causal pass (agent deltas); a
    split grid is all segment 0, which counts as agent."""
    mask = visibility_mask(batch.segments, batch.validity, batch.is_agent,
                           batch.segments, batch.validity)
    logits, _ = model.forward_segment(batch.tokens, batch.positions, "agent", adapters,
                                      mask=mask)
    targets, tmask = shifted_targets(batch.tokens, batch.loss_mask)
    return rt.cross_entropy(logits, targets, tmask & batch.is_agent)


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    model: Transformer
    adapters: RoleAdapters
    loss_log: list[dict] = field(default_factory=list)


def _chunk(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def train(samples: list[DialogueSample], cfg: TrainConfig,
          model_config: ModelConfig | None = None,
          model: Transformer | None = None,
          adapters: RoleAdapters | None = None) -> TrainResult:
    """Run the configured mode over the corpus; deterministic under cfg.seed.

    Every dialogue is first fitted to cfg.max_rounds and
    model_config.max_positions (`fit_dialogue`). Emits one loss-log record
    per optimizer step: {step, L_s, L_u, L_total, lr}. Aborts with a
    RuntimeError if the loss leaves the finite range.
    """
    if not samples:
        raise ConfigError("training corpus is empty")
    model_config = model_config or ModelConfig()
    model = model or Transformer.create(model_config, cfg.seed)
    adapters = adapters or RoleAdapters(model_config, rank=cfg.rank, alpha=cfg.alpha,
                                        seed=cfg.seed)
    midi = cfg.mode == "midi"  # concat and split train under the plain causal mask
    adapters.regime = {"strict_cross_round": midi and cfg.strict_cross_round,
                       "user_sees_instruction": not midi or cfg.user_sees_instruction}
    tokenizer = ByteTokenizer()
    samples = [fit_dialogue(s, tokenizer, cfg.max_rounds, model_config.max_positions)
               for s in samples]
    roles = ("user", "agent") if cfg.mode == "midi" else ("agent",)
    optimizer = AdamW(adapters.trainable_parameters(roles),
                      weight_decay=cfg.weight_decay)
    micro = cfg.micro_batch or cfg.batch_size

    def epoch_units(epoch):
        order = labeled_rng(cfg.seed, f"data-order-epoch{epoch}").permutation(len(samples))
        shuffled = [samples[i] for i in order]
        if cfg.mode == "split":
            return _chunk(split_pairs(shuffled, tokenizer), cfg.batch_size)
        return _chunk(shuffled, cfg.batch_size)

    steps_per_epoch = len(epoch_units(0))
    total_steps = steps_per_epoch * cfg.epochs
    log: list[dict] = []
    step = 0
    for epoch in range(cfg.epochs):
        for unit in epoch_units(epoch):
            lr = lr_at(step, total_steps, cfg)
            optimizer.zero_grad()
            micro_units = _chunk(unit, micro)
            scale = 1.0 / len(micro_units)
            sums = {"L_s": 0.0, "L_u": 0.0, "L_total": 0.0}
            for micro_unit in micro_units:
                with Tape() as tape:
                    lu = Tensor(np.zeros(()))
                    if cfg.mode == "split":
                        ls, _ = causal_loss(model, adapters, pad_causal_batch(micro_unit))
                    else:
                        [batch] = build_round_batches(micro_unit, tokenizer,
                                                      len(micro_unit), cfg.max_rounds)
                        if cfg.mode == "midi":
                            ls, lu, _, _ = midi_losses(model, adapters, batch, cfg)
                        else:
                            ls, _ = causal_loss(model, adapters, pack_round_batch(batch))
                    total = combine_losses(ls, lu, cfg.beta) if cfg.mode == "midi" else ls
                    scaled = total * scale if scale != 1.0 else total
                tape.backward(scaled)
                sums["L_s"] += ls.item() * scale
                sums["L_u"] += lu.item() * scale
                sums["L_total"] += total.item() * scale
            if not all(math.isfinite(v) for v in sums.values()):
                raise RuntimeError(
                    f"training diverged at step {step}: non-finite loss {sums}"
                )
            optimizer.step(lr)
            log.append({"step": step, "L_s": sums["L_s"], "L_u": sums["L_u"],
                        "L_total": sums["L_total"], "lr": lr})
            step += 1
    return TrainResult(model=model, adapters=adapters, loss_log=log)
