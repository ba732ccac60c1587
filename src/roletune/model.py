"""Small causal decoder transformer with role-switchable low-rank adapters.

The base weights are frozen; all training capacity lives in two sets of
low-rank deltas ("agent" and "user") applied to attention projections. The
block structure is pre-RMS-norm attention + SiLU feed-forward with rotary
position embeddings and an LM head tied to the token embedding.

`forward_segment` runs one grid of tokens, optionally against a round
memory's cached key/value slots, and returns the logits plus the K/V it
attended over, the cached slots then the grid's. A cached forward writes the
grid's K/V into the memory's preallocated store and attends over a view, so
the memory's next append keeps them without a copy. Each token runs under one
role's deltas: the whole grid under one role, or a per-token role grid, which
is how training runs a whole dialogue in one pass. Which cached or earlier
slots a token reads is the caller's mask; which of those reads carry
key/value gradient is the caller's live grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as rt
from .config import Config
from .data import visibility_mask
from .errors import CapacityError, ConfigError, ShapeError
from .memory import MemoryLayers
from .rng import labeled_rng
from .tensor import Tensor

ROLES = ("user", "agent")
PROJECTIONS = ("q", "k", "v", "o")
DEFAULT_TARGETS = {"agent": ("q", "v"), "user": ("q",)}


@dataclass(frozen=True)
class ModelConfig(Config):
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    vocab_size: int = 512
    max_positions: int = 2048
    rope_base: float = 10000.0
    norm_epsilon: float = 1e-5
    # Init scale of the (frozen, head-tied) token embedding. Because the base
    # never trains, the embedding row norm permanently bounds how sharp the
    # output softmax can get (max logit ~ sqrt(d_model) * row_norm after the
    # final layer norm), while larger rows also mean larger logits and thus
    # larger f32 round-off. None picks 2/sqrt(d_model) (row norm ~2), which
    # favors trainability; numerical-equivalence checks may prefer ~1/sqrt(d).
    embed_std: float | None = None

    def __post_init__(self):
        for name in ("d_model", "n_layers", "n_heads", "d_ff", "vocab_size", "max_positions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head dimension {self.head_dim} must be even for rotary pairing")
        if self.rope_base <= 1.0:
            raise ConfigError(f"rope_base must exceed 1, got {self.rope_base}")
        if self.norm_epsilon <= 0:
            raise ConfigError(f"norm_epsilon must be positive, got {self.norm_epsilon}")
        if self.embed_std is not None and self.embed_std <= 0:
            raise ConfigError(f"embed_std must be positive, got {self.embed_std}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def embed_init_std(self) -> float:
        if self.embed_std is not None:
            return self.embed_std
        return 2.0 / math.sqrt(self.d_model)


def base_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every frozen base weight, in storage order."""
    d, ff = config.d_model, config.d_ff
    shapes: dict[str, tuple[int, ...]] = {"embed": (config.vocab_size, d)}
    for i in range(config.n_layers):
        p = f"layer{i}."
        for name in ("wq", "wk", "wv", "wo"):
            shapes[p + name] = (d, d)
        shapes[p + "w1"] = (ff, d)
        shapes[p + "w2"] = (d, ff)
        shapes[p + "norm_attn"] = (d,)
        shapes[p + "norm_ffn"] = (d,)
    shapes["norm_out"] = (d,)
    return shapes


class BaseWeights:
    """Frozen backbone parameters, addressable by name.

    Weight matrices are stored (out_features, in_features); a linear layer is
    y = x @ W^T. The LM head reuses the token embedding (tied weights).
    """

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        for t in params.values():
            # linear caches each frozen weight's transpose; an in-place write
            # would leave it stale, so one raises instead
            t.data.flags.writeable = False

    @classmethod
    def create(cls, config: ModelConfig, seed: int) -> "BaseWeights":
        rng = labeled_rng(seed, "base-init")
        params: dict[str, Tensor] = {}
        for name, shape in base_shapes(config).items():
            if len(shape) == 1:  # norm scales
                params[name] = Tensor(np.ones(shape, dtype=np.float32))
                continue
            std = config.embed_init_std if name == "embed" else 1.0 / math.sqrt(shape[1])
            params[name] = Tensor(rng.normal(0.0, std, size=shape).astype(np.float32))
        return cls(config, params)

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.params.items()}


class LoraDelta:
    """One low-rank update: delta(x) = (alpha/r) * x @ A^T @ B^T.

    A has shape (r, in_features), B has shape (out_features, r). B starts at
    zero so a fresh delta is exactly a no-op.
    """

    def __init__(self, A: Tensor, B: Tensor, alpha: float):
        if A.shape[0] != B.shape[1]:
            raise ConfigError(f"rank mismatch: A rank {A.shape[0]} vs B rank {B.shape[1]}")
        self.A = A
        self.B = B
        self.alpha = float(alpha)
        self.rank = A.shape[0]

    @classmethod
    def create(cls, d_out: int, d_in: int, rank: int, alpha: float, rng: np.random.Generator) -> "LoraDelta":
        if rank < 1:
            raise ConfigError(f"rank must be positive, got {rank}")
        if rank > min(d_out, d_in):
            raise ConfigError(f"rank {rank} exceeds min(d_out={d_out}, d_in={d_in})")
        bound = 1.0 / math.sqrt(d_in)
        A = Tensor(rng.uniform(-bound, bound, size=(rank, d_in)).astype(np.float32), requires_grad=True)
        B = Tensor(np.zeros((d_out, rank), dtype=np.float32), requires_grad=True)
        return cls(A, B, alpha)

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


class RoleAdapters:
    """Per-role low-rank deltas over a shared frozen base.

    Each role adapts its own set of attention projections, keyed by
    (layer, projection). The defaults adapt query+value for the agent and
    query only for the user, so the user role can never reshape cached values.
    `regime` holds the visibility options the deltas were trained under
    (`training.train` sets it, checkpoints keep it); decoding runs under it.
    """

    def __init__(self, config: ModelConfig, rank: int = 8, alpha: float = 16.0,
                 targets: dict[str, tuple[str, ...]] | None = None, seed: int = 0):
        targets = dict(DEFAULT_TARGETS) if targets is None else {r: tuple(p) for r, p in targets.items()}
        for role, projs in targets.items():
            if role not in ROLES:
                raise ConfigError(f"unknown adapter role {role!r}; expected one of {ROLES}")
            for proj in projs:
                if proj not in PROJECTIONS:
                    raise ConfigError(f"unknown projection target {proj!r}; expected one of {PROJECTIONS}")
        self.config = config
        self.rank = rank
        self.alpha = float(alpha)
        self.targets = targets
        self.regime = {"strict_cross_round": False, "user_sees_instruction": True}
        self.deltas: dict[str, dict[tuple[int, str], LoraDelta]] = {}
        d = config.d_model
        for role in ROLES:
            projs = targets.get(role, ())
            rng = labeled_rng(seed, f"adapter-init-{role}")
            self.deltas[role] = {
                (layer, proj): LoraDelta.create(d, d, rank, alpha, rng)
                for layer in range(config.n_layers)
                for proj in projs
            }

    def delta(self, role: str, layer: int, proj: str) -> LoraDelta | None:
        return self.deltas[role].get((layer, proj))

    def trainable_parameters(self, roles: tuple[str, ...] = ROLES) -> dict[str, Tensor]:
        """Flat name -> tensor map, in deterministic order."""
        out: dict[str, Tensor] = {}
        for role in roles:
            for (layer, proj) in sorted(self.deltas[role]):
                delta = self.deltas[role][(layer, proj)]
                out[f"{role}.layer{layer}.{proj}.A"] = delta.A
                out[f"{role}.layer{layer}.{proj}.B"] = delta.B
        return out

    def parameter_count(self, role: str) -> int:
        return sum(d.A.data.size + d.B.data.size for d in self.deltas[role].values())

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.trainable_parameters().items()}


def linear(x: Tensor, weight: Tensor) -> Tensor:
    """y = x @ W^T for x of shape (..., in) and W of shape (out, in)."""
    return rt.linear(x, weight)


def lora_linear(x: Tensor, base_w: Tensor, *deltas: LoraDelta | None,
                gates: list[np.ndarray] | None = None) -> Tensor:
    """Base projection plus the scaled low-rank update of each delta present.

    gates: optional 0/1 arrays shaped like the output, one per delta; each
    update then applies only on the rows where its gate is 1.
    """
    y = linear(x, base_w)
    for i, delta in enumerate(deltas):
        if delta is None:
            continue
        low = linear(x, delta.A)          # (..., r)
        up = linear(low, delta.B)         # (..., out)
        scaling = delta.scaling if gates is None else Tensor(gates[i] * delta.scaling)
        y = y + up * scaling
    return y


class Transformer:
    """The frozen backbone plus whatever adapters the caller passes per call."""

    def __init__(self, config: ModelConfig, base: BaseWeights):
        self.config = config
        self.base = base

    @classmethod
    def create(cls, config: ModelConfig, seed: int) -> "Transformer":
        return cls(config, BaseWeights.create(config, seed))

    def merge_role(self, adapters: RoleAdapters, role: str) -> "Transformer":
        """This model with `role`'s deltas merged into its weights.

        Each adapted projection becomes one weight, W + (alpha/r) * B @ A, so
        running the result with adapters=None costs one product per
        projection. Unadapted weights are this model's own tensors. The
        merge reads the deltas' current values, so build it per call, not
        once per adapter set: a training step would leave it stale.
        """
        if role not in ROLES:
            raise ConfigError(f"unknown role {role!r}; expected one of {ROLES}")
        params = dict(self.base.params)
        for (layer, proj), delta in adapters.deltas[role].items():
            name = f"layer{layer}.w{proj}"
            params[name] = Tensor(params[name].data + delta.scaling * (delta.B.data @ delta.A.data))
        return Transformer(self.config, BaseWeights(self.config, params))

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        c = self.config
        return rt.swapaxes(rt.reshape(x, (batch, seq, c.n_heads, c.head_dim)), 1, 2)

    def _merge_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        c = self.config
        return rt.reshape(rt.swapaxes(x, 1, 2), (batch, seq, c.d_model))

    def forward_segment(self, tokens: np.ndarray, positions: np.ndarray,
                        role: str | np.ndarray,
                        adapters: RoleAdapters | None = None,
                        cache: MemoryLayers | None = None,
                        mask: np.ndarray | None = None,
                        live: np.ndarray | None = None):
        """Run one grid of tokens through all layers.

        tokens, positions: (batch, seg) integer grids. role: "user" or
        "agent" runs every token under that role's deltas; a (batch, seg)
        boolean grid routes each token, True to the agent deltas and False
        to the user deltas. cache: a round memory's `layers`, per-layer (K,
        V) slots of shape (batch, heads, stored, head_dim), already rotated.
        Each layer writes the grid's K/V into the memory's store after the
        stored slots (`MemoryLayers.attend`) and attends over a view of
        both, so no stored slot is copied. Cached slots, the grid's among
        them, are plain data and never receive gradient, so a cached forward
        runs outside a tape. mask: additive attention mask (batch, seg,
        stored+seg) with 0 for visible and a large negative value for
        blocked slots. With no cache and no mask the grid is read as one
        all-valid segment under `data.visibility_mask`, which is causal.

        live: optional (batch, seg, stored+seg) boolean grid of the (query,
        key) pairs whose key/value gradient flows; on the other pairs the
        keys and values act as detached. None keeps every pair live.

        Returns (logits Tensor (batch, seg, vocab), kv): a per-layer list of
        the (K, V) tensors attended over, (batch, heads, stored+seg,
        head_dim), the cache's slots first and then the grid's. Without a
        cache they are the grid's live tensors; with one they are views of
        the memory's store, which `RoundMemory.append` adopts as they are.
        """
        c = self.config
        tokens = np.asarray(tokens)
        positions = np.asarray(positions)
        if tokens.ndim != 2 or positions.shape != tokens.shape:
            raise ShapeError(f"tokens {tokens.shape} and positions {positions.shape} must be matching 2-D grids")
        if isinstance(role, str):
            if role not in ROLES:
                raise ConfigError(f"unknown role {role!r}; expected one of {ROLES}")
        elif np.shape(role) != tokens.shape:
            raise ShapeError(f"role grid shape {np.shape(role)} vs tokens {tokens.shape}")
        if tokens.dtype.kind not in "iu" or positions.dtype.kind not in "iu":
            raise IndexError(f"token and position ids must be integers, "
                             f"not {tokens.dtype} and {positions.dtype}")
        if tokens.min() < 0 or tokens.max() >= c.vocab_size:
            raise IndexError(f"token id outside vocab of size {c.vocab_size}")
        if positions.min() < 0:
            raise IndexError(f"position id {int(positions.min())} is negative")
        if positions.max() >= c.max_positions:
            raise CapacityError(
                f"position id {int(positions.max())} exceeds max_positions={c.max_positions}"
            )
        batch, seg = tokens.shape
        stored = 0
        if cache is not None:
            if len(cache) != c.n_layers:
                raise ShapeError(f"cache has {len(cache)} layers, model has {c.n_layers}")
            stored = cache[0][0].shape[2]

        params = self.base.params
        dtype = params["embed"].dtype
        if mask is None:
            if stored:
                raise ShapeError("a mask is required when attending over cached slots")
            valid = np.ones(seg, dtype=bool)  # one all-valid segment: the rule is causal
            segments = np.zeros(seg, dtype=np.int64)
            mask = np.broadcast_to(visibility_mask(segments, valid, valid, segments, valid),
                                   (batch, seg, seg))

        roles, gates = [role], None
        if not isinstance(role, str):  # per-token routing: one 0/1 row gate per role
            is_agent = np.asarray(role, dtype=bool)
            roles = ["agent", "user"]
            gates = [np.broadcast_to(rows[..., None], (batch, seg, c.d_model)).astype(dtype)
                     for rows in (is_agent, ~is_agent)]

        h = rt.embedding(params["embed"], tokens)
        kv: list[tuple[Tensor, Tensor]] = []
        scale = 1.0 / math.sqrt(c.head_dim)
        rope = rt.rope_tables(positions, c.head_dim, c.rope_base, dtype)  # for every layer

        for i in range(c.n_layers):
            p = f"layer{i}."
            x = rt.rms_norm(h, params[p + "norm_attn"], c.norm_epsilon)

            def proj(name, x):
                deltas = [adapters.delta(r, i, name) for r in roles] if adapters is not None else []
                return lora_linear(x, params[p + "w" + name], *deltas, gates=gates)

            q = rt.rope_rotate(self._split_heads(proj("q", x), batch, seg), *rope)
            k = rt.rope_rotate(self._split_heads(proj("k", x), batch, seg), *rope)
            v = self._split_heads(proj("v", x), batch, seg)
            if cache is not None:
                if k.requires_grad or v.requires_grad:
                    raise ConfigError("a cached forward keeps its keys and values as plain "
                                      "data, so it carries no key/value gradient; run it "
                                      "outside a tape")
                k, v = (rt.constant(a) for a in cache.attend(i, k.data, v.data))
            kv.append((k, v))

            ctx = rt.attention(q, k, v, mask, scale, live=live)
            h = h + proj("o", self._merge_heads(ctx, batch, seg))

            x2 = rt.rms_norm(h, params[p + "norm_ffn"], c.norm_epsilon)
            h = h + linear(rt.silu(linear(x2, params[p + "w1"])), params[p + "w2"])

        h = rt.rms_norm(h, params["norm_out"], c.norm_epsilon)
        logits = linear(h, params["embed"])  # tied LM head
        return logits, kv
