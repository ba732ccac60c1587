"""Round-level key/value memory with padding-aware position bookkeeping.

A `RoundMemory` stores, per transformer layer, every previously computed
(rotated) key/value slot for a batch of dialogues, together with which slots
are real tokens versus padding, how many real tokens each sequence has
produced so far, and which dialogue segment each slot belongs to. Cached
arrays are plain numpy data, so no gradient flows back through them. The
memory serves decoding; what a new segment sees and where it sits come from
the rule training uses (`data.visibility_mask`, `data.position_ids`).

The slots live in a preallocated store, one K and one V buffer per layer
plus validity and segment-id buffers, which a chain of memories grown from
one another shares. Each memory views its own first `stored` slots; the
store's tip is where its newest memory ends. A memory starts `empty` and
grows only through a cached forward: `Transformer.forward_segment` with
`cache=memory.layers` writes the new segment's K/V into the free slots after
the tip and attends over a view, and `append` adopts those slots, so a
decoded token copies no stored slot. Appends stay functional. A memory that
is not the tip (a branch point, such as the pre-reply memory evaluation
extends with the gold reply) or whose store is full first copies its own
slots once into a fresh store with room for twice the slots the write needs,
so every memory ever handed out keeps its contents.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .data import position_ids, visibility_mask
from .errors import ShapeError
from .tensor import Tensor


def _lock(arr, dtype=None) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.flags.writeable = False
    return out


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


class _Store:
    """Slot buffers shared by a chain of memories: per layer K and V
    (batch, heads, capacity, head_dim), validity (batch, capacity) and
    segment ids (capacity,). Slots below `tip` belong to a memory or to a
    cached forward's pending write and are never written again; `claim_start`
    is where the latest pending write began."""

    def __init__(self, n_layers: int, batch: int, heads: int, head_dim: int, dtype,
                 capacity: int):
        shape = (batch, heads, capacity, head_dim)
        self.k = [np.empty(shape, dtype=dtype) for _ in range(n_layers)]
        self.v = [np.empty(shape, dtype=dtype) for _ in range(n_layers)]
        self.validity = np.zeros((batch, capacity), dtype=bool)
        self.segments = np.zeros(capacity, dtype=np.int64)
        self.slot_shape, self.dtype = (batch, heads, head_dim), np.dtype(dtype)
        self.tip = self.claim_start = 0

    @property
    def capacity(self) -> int:
        return self.segments.shape[0]

    def moved(self, n: int, capacity: int) -> "_Store":
        """A fresh store of `capacity` slots holding this one's first n."""
        b, h, dh = self.slot_shape
        out = _Store(len(self.k), b, h, dh, self.dtype, capacity)
        for dst, src in zip(out.k + out.v, self.k + self.v):
            dst[:, :, :n] = src[:, :, :n]
        out.validity[:, :n] = self.validity[:, :n]
        out.segments[:n] = self.segments[:n]
        out.tip = out.claim_start = n
        return out

    def write(self, n: int, validity: np.ndarray, segment: int):
        """Bookkeeping of the segment at slots n..n+seg."""
        end = n + validity.shape[1]
        self.validity[:, n:end] = validity
        self.segments[n:end] = segment


class MemoryLayers(Sequence):
    """A memory's per-layer (K, V) slots as read-only views (batch, heads,
    stored, head_dim), plus `attend`, the one write a cached forward makes."""

    def __init__(self, memory: "RoundMemory"):
        self._memory = memory
        self._target: _Store | None = None

    def __len__(self) -> int:
        return len(self._memory._store.k)

    def __getitem__(self, i):
        store, n = self._memory._store, self._memory.stored
        return _read_only(store.k[i][:, :, :n]), _read_only(store.v[i][:, :, :n])

    def attend(self, i: int, k: np.ndarray, v: np.ndarray):
        """Write layer i's new slots k, v (batch, heads, seg, head_dim) after
        the stored ones; return that layer's K and V over stored+seg.

        Layer 0's call claims the slots for this write, moving the memory's
        slots to a fresh store first if they are not free
        (`RoundMemory._room`); the other layers write into the same store.
        """
        memory = self._memory
        n, seg = memory.stored, k.shape[2]
        end = n + seg
        b, h, dh = memory._store.slot_shape
        if k.shape != (b, h, seg, dh) or v.shape != k.shape:
            raise ShapeError(f"segment keys {k.shape} and values {v.shape} vs memory "
                             f"slots {(b, h, dh)}")
        if i == 0:
            self._target = memory._room(seg)
            self._target.claim_start, self._target.tip = n, end
        store = self._target
        store.k[i][:, :, n:end] = k
        store.v[i][:, :, n:end] = v
        return store.k[i][:, :, :end], store.v[i][:, :, :end]


class RoundMemory:
    """Append-only per-layer K/V store for one batch of dialogues.

    layers: per-layer (K, V) read-only views shaped (batch, heads, stored,
    head_dim); validity: (batch, stored) booleans; counts: (batch,)
    valid-token totals (also each sequence's next position id); segments:
    (stored,) the dialogue segment of each slot, shared across the batch — 0
    is the instruction, then one id per utterance in order. A memory starts
    `empty` and grows only by `append`, which adopts the slots its own cached
    forward wrote. The constructor is internal: it views the first `stored`
    slots of a store.
    """

    def __init__(self, store: _Store, stored: int, counts: np.ndarray):
        self._store, self.stored, self.counts = store, stored, _lock(counts, np.int64)

    @classmethod
    def empty(cls, batch: int, n_layers: int, n_heads: int, head_dim: int,
              dtype=np.float32) -> "RoundMemory":
        return cls(_Store(n_layers, batch, n_heads, head_dim, dtype, 0), 0,
                   np.zeros(batch, dtype=np.int64))

    @property
    def layers(self) -> MemoryLayers:
        return MemoryLayers(self)

    @property
    def validity(self) -> np.ndarray:
        return _read_only(self._store.validity[:, :self.stored])

    @property
    def segments(self) -> np.ndarray:
        return _read_only(self._store.segments[:self.stored])

    @property
    def batch(self) -> int:
        return self.counts.shape[0]

    @property
    def capacity(self) -> int:
        """Slots this memory's store holds; a write past them moves the
        memory's slots to a fresh store."""
        return self._store.capacity

    @property
    def n_layers(self) -> int:
        return len(self._store.k)

    @property
    def next_segment(self) -> int:
        """The id of the next utterance: one past the last stored segment."""
        return int(self._store.segments[self.stored - 1]) + 1 if self.stored else 0

    def _room(self, seg: int) -> _Store:
        """This memory's store with slots stored..stored+seg free: a later
        memory or a pending write holding them, or too few slots, first moves
        this memory's slots to a fresh store with room for twice the slots
        the write needs."""
        store, n = self._store, self.stored
        if store.tip != n or n + seg > store.capacity:
            store = self._store = store.moved(n, 2 * (n + seg))
        return store

    def _check(self, segment_validity) -> np.ndarray:
        validity = np.asarray(segment_validity).astype(bool)
        if validity.ndim != 2 or validity.shape[0] != self.batch:
            raise ShapeError(f"segment validity {validity.shape} vs batch {self.batch}")
        return validity

    def append(self, kv, segment_validity, segment: int) -> "RoundMemory":
        """New memory extended by the segment a cached forward from this
        memory wrote.

        kv: per-layer (K, V) arrays or tensors (batch, heads, stored+seg,
        head_dim), as `Transformer.forward_segment` with `cache=self.layers`
        returns them: this memory's slots then the segment's, views of the
        store the forward wrote into. The new memory adopts those slots. Any
        other K/V raises ShapeError: arrays from elsewhere, the older of two
        writes from this memory, or a write from another memory of the store.
        segment_validity: (batch, seg) 0/1; segment: the dialogue segment
        these slots belong to, never below the last stored one (a decoded
        token continues its reply's segment).
        """
        if segment < (self._store.segments[self.stored - 1] if self.stored else 0):
            raise ShapeError(f"segment id {segment} precedes the stored segments")
        if len(kv) != self.n_layers:
            raise ShapeError(f"segment has {len(kv)} layers, memory has {self.n_layers}")
        validity = self._check(segment_validity)
        store, n = self._store, self.stored
        end = n + validity.shape[1]
        b, h, dh = store.slot_shape
        arrays = [(k.data if isinstance(k, Tensor) else np.asarray(k),
                   v.data if isinstance(v, Tensor) else np.asarray(v)) for k, v in kv]
        for k, v in arrays:
            if k.shape != v.shape:
                raise ShapeError(f"key/value shapes differ: {k.shape} vs {v.shape}")
            if k.shape != (b, h, end, dh):
                raise ShapeError(f"layer store shape {k.shape} vs validity {(b, end)}")
        if not (store.claim_start == n and store.tip == end
                and all(k.base is sk and v.base is sv
                        for (k, v), sk, sv in zip(arrays, store.k, store.v))):
            raise ShapeError("segment K/V were not written by this memory's latest "
                             "cached forward (`layers.attend`)")
        store.write(n, validity, segment)
        return RoundMemory(store, end, self.counts + validity.sum(axis=1))

    def next_positions(self, segment_validity) -> np.ndarray:
        """Position ids of an incoming segment (`data.position_ids`),
        continuing from each sequence's valid-token count."""
        return position_ids(self._check(segment_validity), self.counts[:, None])

    def build_mask(self, segment_validity, segment: int, role: str, **regime) -> np.ndarray:
        """Additive attention mask (batch, seg, stored+seg) of an incoming
        segment run under `role`: its rows of `data.visibility_mask` over the
        stored slots plus its own, under the `regime` options. The segment's
        validity and id are written into the free slots after the stored
        ones (an older memory first moves its slots, as for a cached
        forward), and the keys' bookkeeping is read from the store as a
        view."""
        validity = self._check(segment_validity)
        store, n = self._room(validity.shape[1]), self.stored
        store.write(n, validity, segment)
        end = n + validity.shape[1]
        return visibility_mask(np.array([segment]), validity, np.array([role == "agent"]),
                               store.segments[:end], store.validity[:, :end], n, **regime)
