"""Round-level key/value memory with padding-aware position bookkeeping.

A `RoundMemory` stores, per transformer layer, every previously computed
(rotated) key/value slot for a batch of dialogues, together with which slots
are real tokens versus padding, how many real tokens each sequence has
produced so far, and which dialogue segment each slot belongs to. Appends
are functional: a new memory keeps the K/V `Transformer.forward_segment`
attended over (the stored slots, then the new segment's), and an older
memory's arrays, read-only, are never touched. Cached arrays are plain numpy
data, so no gradient flows back through them. The memory serves decoding;
what a new segment sees and where it sits come from the rule training uses
(`data.visibility_mask`, `data.position_ids`).
"""

from __future__ import annotations

import numpy as np

from .data import position_ids, visibility_mask
from .errors import ShapeError
from .tensor import Tensor


def _lock(arr, dtype=None) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.flags.writeable = False
    return out


class RoundMemory:
    """Append-only per-layer K/V store for one batch of dialogues.

    layers: list of (K, V) arrays shaped (batch, heads, stored, head_dim);
    validity: (batch, stored) booleans; counts: (batch,) valid-token totals
    (also each sequence's next position id); segments: (stored,) the
    dialogue segment of each slot, shared across the batch — 0 is the
    instruction, then one id per utterance in order. The memory takes
    ownership of the arrays it is given: they are made read-only, not copied.
    """

    def __init__(self, layers, validity, counts, segments):
        self.layers = [(_lock(k), _lock(v)) for k, v in layers]
        self.validity = _lock(validity, bool)
        self.counts, self.segments = _lock(counts, np.int64), _lock(segments, np.int64)
        b, m = self.validity.shape
        if self.counts.shape != (b,):
            raise ShapeError(f"counts shape {self.counts.shape} vs batch {b}")
        if self.segments.shape != (m,):
            raise ShapeError(f"segments shape {self.segments.shape} vs stored length {m}")
        for k, v in self.layers:
            if k.shape != v.shape:
                raise ShapeError(f"key/value shapes differ: {k.shape} vs {v.shape}")
            if k.shape[0] != b or k.shape[2] != m:
                raise ShapeError(f"layer store shape {k.shape} vs validity {(b, m)}")
        if not np.array_equal(self.validity.sum(axis=1), self.counts):
            raise ShapeError("valid-token counts disagree with validity bitmap")

    @classmethod
    def empty(cls, batch: int, n_layers: int, n_heads: int, head_dim: int,
              dtype=np.float32) -> "RoundMemory":
        no_slots = np.zeros((batch, n_heads, 0, head_dim), dtype=dtype)  # read-only: shareable
        return cls([(no_slots, no_slots)] * n_layers, np.zeros((batch, 0), dtype=bool),
                   np.zeros(batch, dtype=np.int64), np.zeros(0, dtype=np.int64))

    @property
    def batch(self) -> int:
        return self.validity.shape[0]

    @property
    def stored(self) -> int:
        return self.validity.shape[1]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def next_segment(self) -> int:
        """The id of the next utterance: one past the last stored segment."""
        return int(self.segments[-1]) + 1 if self.stored else 0

    def _check(self, segment_validity) -> np.ndarray:
        validity = np.asarray(segment_validity).astype(bool)
        if validity.ndim != 2 or validity.shape[0] != self.batch:
            raise ShapeError(f"segment validity {validity.shape} vs batch {self.batch}")
        return validity

    def append(self, kv, segment_validity, segment: int) -> "RoundMemory":
        """New memory extended by one segment's slots.

        kv: per-layer (K, V) arrays or tensors (batch, heads, stored+seg,
        head_dim), this memory's slots then the segment's, as
        `Transformer.forward_segment` returns them; the new memory owns them
        and detaches tensors, so the stored slots carry no gradient.
        segment_validity: (batch, seg) 0/1; segment: the dialogue segment
        these slots belong to, never below the last stored one (a decoded
        token continues its reply's segment).
        """
        if segment < (self.segments[-1] if self.stored else 0):
            raise ShapeError(f"segment id {segment} precedes the stored segments")
        if len(kv) != self.n_layers:
            raise ShapeError(f"segment has {len(kv)} layers, memory has {self.n_layers}")
        validity = self._check(segment_validity)
        return RoundMemory(
            [(k.data if isinstance(k, Tensor) else k, v.data if isinstance(v, Tensor) else v)
             for k, v in kv],
            np.concatenate([self.validity, validity], axis=1),
            self.counts + validity.sum(axis=1),
            np.concatenate([self.segments, np.full(validity.shape[1], segment, dtype=np.int64)]),
        )

    def next_positions(self, segment_validity) -> np.ndarray:
        """Position ids of an incoming segment (`data.position_ids`),
        continuing from each sequence's valid-token count."""
        return position_ids(self._check(segment_validity), self.counts[:, None])

    def build_mask(self, segment_validity, segment: int, role: str, **regime) -> np.ndarray:
        """Additive attention mask (batch, seg, stored+seg) of an incoming
        segment run under `role`: its rows of `data.visibility_mask` over the
        stored slots plus its own, under the `regime` options."""
        validity = self._check(segment_validity)
        k_segments = np.concatenate([self.segments, np.full(validity.shape[1], segment)])
        return visibility_mask(np.array([segment]), validity, np.array([role == "agent"]),
                               k_segments, np.concatenate([self.validity, validity], axis=1),
                               self.stored, **regime)
