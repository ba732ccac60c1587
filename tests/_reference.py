"""Plain-numpy reference forward pass used as an oracle in tests.

Deliberately independent of the package's autodiff engine and caching code:
it runs a whole token sequence in one causal pass, selecting each token's
adapter deltas by that token's role label. Computations are float64.
"""

import numpy as np

NEG = -1.0e9


def rope(x, positions, base):
    """x: (B, H, S, Dh); positions: (B, S). Interleaved pair rotation."""
    b, h, s, dh = x.shape
    half = dh // 2
    inv_freq = base ** (-np.arange(half) * 2.0 / dh)
    ang = positions[:, None, :, None] * inv_freq  # (B, 1, S, half)
    cos, sin = np.cos(ang), np.sin(ang)
    out = np.empty_like(x)
    even, odd = x[..., 0::2], x[..., 1::2]
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def rms_norm(x, scale, eps):
    return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps) * scale


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def lora_matrix(base_w, adapters, role, layer, proj):
    """Effective projection matrix (out, in) for one role, or base if unadapted."""
    key = f"{role}.layer{layer}.{proj}"
    if adapters is None or key + ".A" not in adapters:
        return base_w
    A = adapters[key + ".A"]
    B = adapters[key + ".B"]
    alpha = adapters["alpha"]
    return base_w + (alpha / A.shape[0]) * (B @ A)


def forward_full(cfg, base, adapters, tokens, positions, roles, mask=None):
    """Single-pass causal forward with per-token role-dependent projections.

    cfg: dict with d_model/n_layers/n_heads/d_ff/vocab_size/rope_base/norm_epsilon.
    base: name -> float array (the frozen weights). adapters: name -> array
    plus an "alpha" scalar entry, or None. tokens/positions/roles: (B, S)
    integer grids, roles coded 0=user 1=agent. mask: optional (B, S, S)
    additive mask; default is plain causal. Returns logits (B, S, V), f64.
    """
    tokens = np.asarray(tokens)
    b, s = tokens.shape
    nh = cfg["n_heads"]
    dh = cfg["d_model"] // nh
    eps = cfg["norm_epsilon"]

    if mask is None:
        mask = np.where(np.tri(s, dtype=bool), 0.0, NEG)
        mask = np.broadcast_to(mask, (b, s, s))
    mask = np.asarray(mask, dtype=np.float64)

    base = {k: np.asarray(v, dtype=np.float64) for k, v in base.items()}
    if adapters is not None:
        adapters = {k: (np.asarray(v, dtype=np.float64) if k != "alpha" else v)
                    for k, v in adapters.items()}

    def split_heads(x):
        return x.reshape(b, s, nh, dh).swapaxes(1, 2)

    is_agent = (np.asarray(roles) == 1)[..., None]  # (B, S, 1)

    h = base["embed"][tokens]
    for i in range(cfg["n_layers"]):
        p = f"layer{i}."
        x = rms_norm(h, base[p + "norm_attn"], eps)

        def proj(name):
            per_role = {
                role: x @ lora_matrix(base[p + "w" + name], adapters, role, i, name).T
                for role in ("user", "agent")
            }
            return np.where(is_agent, per_role["agent"], per_role["user"])

        q = rope(split_heads(proj("q")), positions, cfg["rope_base"])
        k = rope(split_heads(proj("k")), positions, cfg["rope_base"])
        v = split_heads(proj("v"))

        scores = q @ k.swapaxes(-1, -2) / np.sqrt(dh) + mask[:, None, :, :]
        ctx = (softmax(scores) @ v).swapaxes(1, 2).reshape(b, s, cfg["d_model"])
        # output projection may itself be adapted, so it also switches per token
        o_per_role = {
            role: ctx @ lora_matrix(base[p + "wo"], adapters, role, i, "o").T
            for role in ("user", "agent")
        }
        h = h + np.where(is_agent, o_per_role["agent"], o_per_role["user"])

        x2 = rms_norm(h, base[p + "norm_ffn"], eps)
        pre = x2 @ base[p + "w1"].T
        h = h + (pre / (1.0 + np.exp(-pre))) @ base[p + "w2"].T

    h = rms_norm(h, base["norm_out"], eps)
    return h @ base["embed"].T


def split_samples(sample, tokenizer):
    """The per-round split layout, one (context, response) id pair per
    round: the context holds everything before the round's agent reply, the
    response is that reply's segment. Split scores the response's bytes and
    EOS, not its role special."""
    context = list(tokenizer.encode_instruction(sample.instruction))
    out = []
    for user, agent in sample.rounds:
        context = context + tokenizer.encode_utterance("user", user)
        response = tokenizer.encode_utterance("agent", agent)
        out.append((np.array(context, dtype=np.int64), np.array(response, dtype=np.int64)))
        context = context + response
    return out


def attention(q, k, v, mask, scale, live, g):
    """Untiled attention and its q, k, v gradients for the upstream gradient g.

    One (B, H, S, T) grid over every key, with the same numpy operations in
    the same order as `tensor.attention` for a grid of at most one tile, so
    that case compares bit for bit. live: (B, S, T) booleans or None.
    """
    scale = q.dtype.type(scale)
    probs = q @ k.swapaxes(-1, -2)
    probs *= scale
    probs += np.asarray(mask, dtype=q.dtype)[:, None]
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = probs @ v
    gate = None if live is None else np.asarray(live, dtype=bool)[:, None].astype(q.dtype)
    dscores = g @ v.swapaxes(-1, -2)
    dscores -= (dscores * probs).sum(axis=-1, keepdims=True)
    dscores *= probs
    dscores *= scale
    gq = dscores @ k
    if gate is not None:
        dscores *= gate
        probs *= gate
    return out, gq, dscores.swapaxes(-1, -2) @ q, probs.swapaxes(-1, -2) @ g
