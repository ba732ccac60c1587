"""Dense float arrays with reverse-mode autodiff.

Storage and vectorized kernels come from numpy; the differentiation machinery
is a recording tape. Ops run "eager": with no active Tape they just compute,
under a `with Tape() as tape:` block they also append a backward rule per call.
`tape.backward(loss)` replays the records in reverse and returns gradients for
the trainable leaves. It releases each entry (output gradient, saved arrays,
inputs and output) as soon as that entry's backward has run, so a pass holds
only what later entries of the sweep still need. An op computes no gradient
for an input that does not require grad: its backward returns None in that
slot, so frozen weights and constants cost no backward work.

`attention` runs grids of more than ATTENTION_TILE query rows in tiles of
that many rows, each against only the keys up to the last column any of its
rows sees; under a causal mask that skips the masked upper triangle. Skipped
probabilities are exact zeros either way, but sums over fewer keys can move
results by ulps. Smaller grids, every decoding step among them, run as one
tile over every key.

`linear(x, w)` is x @ W^T as one op. It runs against a contiguous W^T, which
a tensor that does not require grad builds once per data array and keeps.
So a frozen weight must not be written in place; assign new data to `.data`
instead (the model's base weights are read-only, so a write raises).

Broadcasting is restricted to leading-axis repetition: two operands must have
equal shapes, or one shape must be a suffix of the other. No size-1 stretching.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ShapeError

FLOAT_DTYPES = (np.float32, np.float64)

# Additive mask value. Finite so fully-masked rows stay NaN-free, yet large
# enough that exp(x - max) underflows to exactly 0.0 in both f32 and f64.
MASK_NEG = -1.0e9

_tls = threading.local()


def _active_tape():
    return getattr(_tls, "tape", None)


class Tensor:
    """A dense float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_transposed")

    def __init__(self, data, dtype=None, requires_grad=False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if any(n <= 0 for n in arr.shape):
            raise ShapeError(f"tensor extents must be positive, got {arr.shape}")
        # note: np.ascontiguousarray would promote 0-d scalars to shape (1,)
        if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._transposed = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Stop-gradient view: shares data, never receives gradients."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.requires_grad = False
        out.grad = None
        out._transposed = None
        return out

    def zero_grad(self):
        self.grad = None

    # arithmetic sugar
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __radd__(self, other):
        return add(_as_tensor(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    def __rmul__(self, other):
        return mul(_as_tensor(other, self.dtype), self)

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal scalar")
        return mul(self, _as_tensor(1.0 / other, self.dtype))

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return tensor_sum(self)

    def mean(self):
        return tensor_mean(self)

    def reshape(self, *shape):
        return reshape(self, shape)

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


class _Entry:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Execution-ordered op log. Recording order is a topological order by
    construction (an op's inputs exist before its output), so one reverse
    sweep propagates every gradient and touches each entry exactly once."""

    def __init__(self):
        self.entries: list[_Entry] = []
        self._produced: set[int] = set()
        self._spent = False

    def __enter__(self):
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        stack.append(self)
        _tls.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tls.stack
        stack.pop()
        _tls.tape = stack[-1] if stack else None
        return False

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Accumulate gradients of a scalar loss into every trainable leaf.

        Returns {leaf tensor: gradient array}, the leaves in the order the
        tape first reads them. Frozen and detached tensors are absent. A tape
        supports a single backward pass.

        Each entry is released as soon as its backward has run: every op that
        read its output was recorded later, so its output's gradient is
        complete and no longer needed. The entry drops that gradient, its
        backward rule (with the arrays the rule saved), its inputs and its
        output, so intermediates are freed during the sweep rather than after
        it. `entries` keeps its recorded length.
        """
        if loss.data.shape != ():
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if self._spent:
            raise RuntimeError("tape already consumed by a previous backward pass")
        self._spent = True

        leaves: dict[Tensor, None] = {}
        for entry in self.entries:
            for t in entry.inputs:
                if t.requires_grad and id(t) not in self._produced:
                    leaves.setdefault(t)
        loss.grad = np.ones((), dtype=loss.dtype)
        for i in range(len(self.entries) - 1, -1, -1):
            entry = self.entries[i]
            g = entry.output.grad
            if g is not None:  # else not on a path to the loss
                input_grads = entry.backward_fn(g)
                for t, gi in zip(entry.inputs, input_grads):
                    if gi is None or not t.requires_grad:
                        continue
                    # never mutate gradient arrays in place, so sharing is safe
                    t.grad = gi if t.grad is None else t.grad + gi
                del g, input_grads  # a summed input's own gradient goes now
            entry.output.grad = None  # leaves keep .grad for the optimizer
            entry.inputs = entry.output = entry.backward_fn = None
        return {t: t.grad for t in leaves if t.grad is not None}

    def _record(self, inputs: tuple[Tensor, ...], output: Tensor, backward_fn):
        output.requires_grad = True
        self.entries.append(_Entry(inputs, output, backward_fn))
        self._produced.add(id(output))


def _maybe_record(inputs: tuple[Tensor, ...], output: Tensor, backward_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        tape._record(inputs, output, backward_fn)
    return output


def _raw(data) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data)  # normalizes numpy scalars to 0-d arrays
    out.requires_grad = False
    out.grad = None
    out._transposed = None
    return out


def constant(data: np.ndarray) -> Tensor:
    """An untracked tensor over `data` itself: a strided view stays a view,
    where `Tensor(data)` would copy it into contiguous storage."""
    return _raw(data)


# ---------------------------------------------------------------------------
# elementwise ops (leading-axis repetition only)
# ---------------------------------------------------------------------------

def _check_suffix(sa: tuple, sb: tuple, op: str):
    if sa == sb:
        return
    small, big = (sa, sb) if len(sa) < len(sb) else (sb, sa)
    if len(small) == len(big) or big[len(big) - len(small):] != small:
        raise ShapeError(f"{op}: shapes {sa} and {sb} do not match (suffix broadcasting only)")


def _check_dtype(a: Tensor, b: Tensor, op: str):
    if a.dtype != b.dtype:
        raise TypeError(f"{op}: mixed dtypes {a.dtype.name} and {b.dtype.name}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(extra)))


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype(a, b, "add")
    _check_suffix(a.shape, b.shape, "add")
    out = _raw(a.data + b.data)

    def backward(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _maybe_record((a, b), out, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype(a, b, "sub")
    _check_suffix(a.shape, b.shape, "sub")
    out = _raw(a.data - b.data)

    def backward(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _maybe_record((a, b), out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype(a, b, "mul")
    _check_suffix(a.shape, b.shape, "mul")
    out = _raw(a.data * b.data)

    def backward(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _maybe_record((a, b), out, backward)


def neg(a: Tensor) -> Tensor:
    out = _raw(-a.data)
    return _maybe_record((a,), out, lambda g: (-g,))


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    sig = 1.0 / (1.0 + np.exp(-x.data))
    out = _raw(x.data * sig)

    def backward(g):
        return (g * sig * (1.0 + x.data * (1.0 - sig)),)

    return _maybe_record((x,), out, backward)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    out = _raw(np.ascontiguousarray(x.data.reshape(shape)))
    return _maybe_record((x,), out, lambda g: (g.reshape(x.shape),))


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    out = _raw(np.ascontiguousarray(x.data.swapaxes(a, b)))
    return _maybe_record((x,), out, lambda g: (np.ascontiguousarray(g.swapaxes(a, b)),))


def concat(parts: list[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = _raw(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(piece) if p.requires_grad else None
                     for p, piece in zip(parts, np.split(g, bounds, axis=axis)))

    return _maybe_record(tuple(parts), out, backward)


def tensor_sum(x: Tensor) -> Tensor:
    out = _raw(x.data.sum())
    return _maybe_record((x,), out, lambda g: (np.broadcast_to(g, x.shape).astype(x.dtype.type, copy=True),))


def tensor_mean(x: Tensor) -> Tensor:
    n = x.data.size
    out = _raw(x.data.mean())

    def backward(g):
        return (np.broadcast_to(g / n, x.shape).astype(x.dtype.type, copy=True),)

    return _maybe_record((x,), out, backward)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. 2-D operands, or stacked operands with identical
    leading (batch) extents. Gradients: dA = dC @ B^T, dB = A^T @ dC."""
    _check_dtype(a, b, "matmul")
    sa, sb = a.shape, b.shape
    if len(sa) < 2 or len(sb) < 2 or len(sa) != len(sb) or sa[:-2] != sb[:-2] or sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: shapes {sa} and {sb} do not conform")
    out = _raw(a.data @ b.data)

    def backward(g):
        return (g @ b.data.swapaxes(-1, -2) if a.requires_grad else None,
                a.data.swapaxes(-1, -2) @ g if b.requires_grad else None)

    return _maybe_record((a, b), out, backward)


def _contiguous_transpose(w: Tensor) -> np.ndarray:
    """W^T as a C-contiguous array. A tensor that does not require grad
    keeps it, keyed on its data array, so a frozen weight is transposed once
    per array rather than once per call; assigning new data refreshes it."""
    if w.requires_grad:
        return np.ascontiguousarray(w.data.swapaxes(0, 1))
    cached = w._transposed
    if cached is None or cached[0] is not w.data:
        cached = w._transposed = (w.data, np.ascontiguousarray(w.data.swapaxes(0, 1)))
    return cached[1]


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x @ W^T for x of shape (..., in) and W of shape (out, in), one op.

    The product runs on x flattened to 2-D against a contiguous W^T, and the
    gradients are dX = dY @ W and dW = (X^T @ dY)^T, so the numbers equal a
    reshape, swapaxes, matmul and reshape chain bit for bit.
    """
    _check_dtype(x, w, "linear")
    if w.data.ndim != 2 or x.shape[-1:] != w.shape[-1:]:
        raise ShapeError(f"linear: input shape {x.shape} vs weight shape {w.shape}")
    lead = x.shape[:-1]
    flat = np.ascontiguousarray(x.data.reshape(-1, x.shape[-1]))
    wt = _contiguous_transpose(w)
    out = _raw((flat @ wt).reshape(lead + (w.shape[0],)))

    def backward(g):
        g = g.reshape(flat.shape[0], w.shape[0])
        return ((g @ wt.swapaxes(-1, -2)).reshape(x.shape) if x.requires_grad else None,
                np.ascontiguousarray((flat.swapaxes(-1, -2) @ g).swapaxes(0, 1))
                if w.requires_grad else None)

    return _maybe_record((x, w), out, backward)


# ---------------------------------------------------------------------------
# softmax / cross entropy
# ---------------------------------------------------------------------------

def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along `axis`; rejects non-finite inputs."""
    nd = x.data.ndim
    if not -nd <= axis < nd:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {x.shape}")
    if not np.isfinite(x.data).all():
        raise ValueError("softmax: input contains non-finite values")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _raw(y)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _maybe_record((x,), out, backward)


# Query rows per attention tile. A grid with at most this many query rows
# runs as one tile over every key.
ATTENTION_TILE = 64


def _tile_extents(mask: np.ndarray, n_rows: int, n_keys: int) -> list[tuple[int, int, int]]:
    """(first row, end row, key extent) per tile of ATTENTION_TILE query rows.

    A tile's key extent is one past the last column any of its rows sees
    (an additive value above MASK_NEG), so each dropped column is masked in
    every row of the tile. A tile holding a fully masked row keeps every key.
    """
    seen = mask > MASK_NEG
    blind = ~seen.any(axis=-1).all(axis=0)  # (S,): some batch row sees nothing
    last = (n_keys - np.argmax(seen[..., ::-1], axis=-1)).max(axis=0)  # (S,)
    tiles = []
    for r0 in range(0, n_rows, ATTENTION_TILE):
        r1 = min(r0 + ATTENTION_TILE, n_rows)
        extent = n_keys if blind[r0:r1].any() else int(last[r0:r1].max())
        tiles.append((r0, r1, extent))
    return tiles


def _add_keys(total: np.ndarray | None, part: np.ndarray, n_keys: int) -> np.ndarray:
    """A tile's key or value gradient, over its first part.shape[2] key
    slots, added into the full-width sum so far (None before the first)."""
    if total is None:
        if part.shape[2] == n_keys:
            return part
        total = np.zeros(part.shape[:2] + (n_keys,) + part.shape[3:], dtype=part.dtype)
    total[:, :, :part.shape[2]] += part
    return total


def _tile_probs(q: np.ndarray, k: np.ndarray, mask: np.ndarray, scale) -> np.ndarray:
    """One tile's probabilities, softmax(q @ k^T * scale + mask), formed in
    place in the tile's own (B, H, rows, keys) grid."""
    p = q @ k.swapaxes(-1, -2)
    p *= scale
    p += mask[:, None]
    if not np.isfinite(p).all():
        raise ValueError("attention: scores contain non-finite values")
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _tile_grads(p, g, q, k, v, gate, scale, needs):
    """One tile's (gq, gk, gv) for its upstream gradient g, each None where
    `needs` says its input takes no gradient. The tile's probabilities p
    become the score gradient's workspace, and the gate (the tile's live
    grid or None) applies to both only after gq is taken."""
    need_q, need_k, need_v = needs
    gq = gk = gv = None
    if need_q or need_k:
        dscores = g @ v.swapaxes(-1, -2)
        dscores -= (dscores * p).sum(axis=-1, keepdims=True)
        dscores *= p
        dscores *= scale
        if need_q:
            gq = dscores @ k
        if need_k:
            if gate is not None:
                dscores *= gate
            gk = dscores.swapaxes(-1, -2) @ q
    if need_v:
        if gate is not None:
            np.multiply(p, gate, out=p)
        gv = p.swapaxes(-1, -2) @ g
    return gq, gk, gv


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray, scale: float,
              live: np.ndarray | None = None) -> Tensor:
    """softmax(q @ k^T * scale + mask) @ v, one op for every head.

    q: (B, H, S, Dh); k, v: (B, H, T, Dh); mask: additive (B, S, T), shared
    by the heads. live: optional (B, S, T) booleans naming the (query, key)
    pairs whose key and value gradients flow; on the other pairs k and v act
    as if detached, while q gets its full gradient either way. None keeps
    every pair live. Rejects non-finite scores, as softmax does.

    A grid of at most ATTENTION_TILE query rows, every decoding step among
    them, runs straight through as one tile over every key. A larger grid
    runs in tiles of ATTENTION_TILE rows. Each tile attends only to the keys
    up to the last column any of its rows sees, read from the mask
    (`_tile_extents`); under a causal mask that skips the upper triangle.
    A dropped key is masked in every row of its tile, so its probability is
    exactly 0 either way, but row sums and the probability-times-v product
    run over fewer keys and may move by ulps. Scores of dropped keys are
    never formed, so the non-finite check covers only the kept ones.

    Each tile owns its (B, H, rows, extent) grid and works on it in place,
    without writing to any input: the forward turns q @ k^T into the
    probabilities, the backward turns g @ v^T into the score gradient, and
    applies the tile's slice of the live grid to both only after the query
    gradient is taken. Key and value gradients of the tiles are added into
    full-width arrays; the op stays one tape entry.
    """
    _check_dtype(q, k, "attention")
    _check_dtype(q, v, "attention")
    b, h, s, dh = q.shape
    t = k.shape[2]
    if (k.shape != (b, h, t, dh) or v.shape != k.shape or np.shape(mask) != (b, s, t)
            or (live is not None and np.shape(live) != (b, s, t))):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, mask "
                         f"{np.shape(mask)} and live {np.shape(live)} do not conform")
    if live is not None:
        live = np.asarray(live, dtype=bool)[:, None]
    scale = q.dtype.type(scale)
    mask = np.asarray(mask, dtype=q.dtype)

    def needs():
        return q.requires_grad, k.requires_grad, v.requires_grad

    if s <= ATTENTION_TILE:
        p = _tile_probs(q.data, k.data, mask, scale)
        out = _raw(p @ v.data)

        def backward(g):
            gate = None if live is None else live.astype(p.dtype)
            return _tile_grads(p, g, q.data, k.data, v.data, gate, scale, needs())

        return _maybe_record((q, k, v), out, backward)

    tiles = _tile_extents(mask, s, t)
    probs = [_tile_probs(q.data[:, :, r0:r1], k.data[:, :, :e], mask[:, r0:r1, :e], scale)
             for r0, r1, e in tiles]
    out = _raw(np.concatenate([p @ v.data[:, :, :e] for p, (_, _, e) in zip(probs, tiles)],
                              axis=2))

    def backward(g):
        gq, gk, gv = [], None, None
        for p, (r0, r1, e) in zip(probs, tiles):
            gate = None if live is None else live[:, :, r0:r1, :e].astype(p.dtype)
            tq, tk, tv = _tile_grads(p, g[:, :, r0:r1], q.data[:, :, r0:r1],
                                     k.data[:, :, :e], v.data[:, :, :e], gate, scale, needs())
            gq.append(tq)
            if tk is not None:
                gk = _add_keys(gk, tk, t)
            if tv is not None:
                gv = _add_keys(gv, tv, t)
        return (np.concatenate(gq, axis=2) if q.requires_grad else None), gk, gv

    return _maybe_record((q, k, v), out, backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray | None = None,
                  *masks: np.ndarray):
    """Mean negative log-likelihood over masked-in positions.

    logits: (..., V); targets: integer array of shape (...); mask: 0/1 array of
    the same shape (None = all positions count). Returns (loss, n) where n is
    the number of scored positions; when every position is masked out the loss
    is an un-tracked zero and n == 0.

    Further masks score other positions of the same logits: the call then
    returns one (loss, n) per mask, in order. Each loss is its own tape
    entry, but they share one log-sum-exp and one softmax, computed once in
    the forward for every mask's backward.
    """
    targets = np.asarray(targets)
    vocab = logits.shape[-1]
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"cross_entropy: targets shape {targets.shape} vs logits {logits.shape}")
    ms = []
    for one in (mask, *masks):
        m = np.ones(targets.shape, dtype=bool) if one is None else np.asarray(one).astype(bool)
        if m.shape != targets.shape:
            raise ShapeError(f"cross_entropy: mask shape {m.shape} vs targets {targets.shape}")
        scored = targets[m]
        bad = scored[(scored < 0) | (scored >= vocab)]
        if bad.size:
            raise IndexError(f"cross_entropy: target id {int(bad[0])} outside vocab of size {vocab}")
        ms.append(m)

    x = logits.data
    counts = [int(m.sum()) for m in ms]
    if any(counts):
        mx = x.max(axis=-1, keepdims=True)
        p = np.exp(x - mx)
        total = p.sum(axis=-1, keepdims=True)
        lse = mx[..., 0] + np.log(total[..., 0])
        p /= total  # the softmax, which every mask's backward reads

    def scored_loss(m, n):
        if n == 0:
            return _raw(np.zeros((), dtype=logits.dtype))
        safe = np.where(m, targets, 0)[..., None]
        picked = np.take_along_axis(x, safe, axis=-1)[..., 0]
        nll = (lse - picked) * m
        out = _raw(np.asarray(nll.sum() / n, dtype=logits.dtype))

        def backward(g):
            # (p - onehot(target)) * m * g / n, built as p * coef with the
            # target column then overwritten by (p - 1) * coef
            coef = (m * (g / n))[..., None]
            d = p * coef
            np.put_along_axis(d, safe, (np.take_along_axis(p, safe, axis=-1) - 1) * coef, axis=-1)
            return (d.astype(x.dtype, copy=False),)

        return _maybe_record((logits,), out, backward)

    results = [(scored_loss(m, n), n) for m, n in zip(ms, counts)]
    return results[0] if not masks else results


# ---------------------------------------------------------------------------
# model-specific primitives
# ---------------------------------------------------------------------------

def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: out[..., :] = table[ids[...]]. Backward scatter-adds."""
    ids = np.asarray(ids)
    out = _raw(np.ascontiguousarray(table.data[ids]))

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (gt,)

    return _maybe_record((table,), out, backward)


def rms_norm(x: Tensor, scale: Tensor, eps: float) -> Tensor:
    """y = x / sqrt(mean(x^2, last) + eps) * scale."""
    d = x.shape[-1]
    inv = 1.0 / np.sqrt((x.data * x.data).mean(axis=-1, keepdims=True) + eps)
    xhat = x.data * inv
    out = _raw(xhat * scale.data)

    def backward(g):
        gx = gscale = None
        if x.requires_grad:
            gxhat = g * scale.data
            dot = (gxhat * x.data).sum(axis=-1, keepdims=True)
            gx = (inv * (gxhat - x.data * (inv * inv / d) * dot)).astype(x.dtype.type, copy=False)
        if scale.requires_grad:
            gscale = (g * xhat).reshape(-1, d).sum(axis=0).astype(x.dtype.type, copy=False)
        return gx, gscale

    return _maybe_record((x, scale), out, backward)


def _rope_tables(positions: np.ndarray, d_head: int, base: float, dtype):
    half = d_head // 2
    inv_freq = base ** (-np.arange(half, dtype=np.float64) * 2.0 / d_head)
    ang = positions[..., None].astype(np.float64) * inv_freq  # (..., half)
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


def rope_rotate(x: Tensor, positions: np.ndarray, base: float) -> Tensor:
    """Rotate adjacent feature pairs of x by position-dependent angles.

    x: (B, H, S, Dh) with Dh even; positions: (B, S). Pair i spins at
    base^(-2i/Dh) radians per position step. The map is orthogonal per slot,
    so the backward pass is a rotation by the negated angles.
    """
    d_head = x.shape[-1]
    cos, sin = _rope_tables(positions, d_head, base, x.dtype.type)  # (B, S, half)
    cos = cos[:, None, :, :]
    sin = sin[:, None, :, :]

    def rot(arr, c, s):
        even = arr[..., 0::2]
        odd = arr[..., 1::2]
        out = np.empty_like(arr)
        out[..., 0::2] = even * c - odd * s
        out[..., 1::2] = even * s + odd * c
        return out

    out = _raw(rot(x.data, cos, sin))
    return _maybe_record((x,), out, lambda g: (rot(g, cos, -sin),))
