"""Round-level key/value memory with padding-aware position bookkeeping.

A `RoundMemory` stores, per transformer layer, every previously computed
(rotated) key/value slot for a batch of dialogues, together with which slots
are real tokens versus padding and how many real tokens each sequence has
produced so far. Appends are functional: they return a new memory and never
touch the stored arrays, which are kept read-only. Cached arrays are plain
numpy data, so no gradient flows back through them. The memory serves
decoding; training runs each batch of dialogues as one packed pass and
states the round-level regime as a mask (see `training.midi_losses`).

Position ids continue across rounds over valid tokens only (0,1,2,... per
sequence, no gaps), and attention masks grant visibility only to valid slots.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import MASK_NEG, Tensor

SLOT_TAGS = ("instruction", "user", "agent")


def _lock(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


class RoundMemory:
    """Append-only per-layer K/V store for one batch of dialogues.

    layers: list of (K, V) arrays shaped (batch, heads, stored, head_dim);
    validity: (batch, stored) booleans; counts: (batch,) valid-token totals
    (also each sequence's next position id); tags: (stored,) small ints naming
    which kind of segment produced each slot, shared across the batch.
    """

    def __init__(self, layers, validity, counts, tags):
        # copies, so the caller's arrays can change freely
        self._hold([(np.array(k), np.array(v)) for k, v in layers], np.array(validity, dtype=bool),
                   np.array(counts, dtype=np.int64), np.array(tags, dtype=np.int8))

    def _hold(self, layers, validity, counts, tags):
        """Keep arrays built for this memory alone: made read-only, not copied."""
        self.layers = [(_lock(k), _lock(v)) for k, v in layers]
        self.validity, self.counts, self.tags = _lock(validity), _lock(counts), _lock(tags)
        b, m = self.validity.shape
        if self.counts.shape != (b,):
            raise ShapeError(f"counts shape {self.counts.shape} vs batch {b}")
        if self.tags.shape != (m,):
            raise ShapeError(f"tags shape {self.tags.shape} vs stored length {m}")
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
        shape = (batch, n_heads, 0, head_dim)
        layers = [(np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=dtype))
                  for _ in range(n_layers)]
        return cls(layers, np.zeros((batch, 0), dtype=bool),
                   np.zeros(batch, dtype=np.int64), np.zeros(0, dtype=np.int8))

    @property
    def batch(self) -> int:
        return self.validity.shape[0]

    @property
    def stored(self) -> int:
        return self.validity.shape[1]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def append(self, segment_kv, segment_validity, tag: str) -> "RoundMemory":
        """New memory extended by one segment's K/V slots.

        segment_kv: per-layer (K, V) arrays or tensors (batch, heads, seg,
        head_dim) — tensors are detached here, so the stored slots carry no
        gradient;
        segment_validity: (batch, seg) 0/1; tag: which segment kind produced
        these slots (one of SLOT_TAGS).
        """
        if tag not in SLOT_TAGS:
            raise ShapeError(f"unknown slot tag {tag!r}; expected one of {SLOT_TAGS}")
        segment_kv = [(k.data if isinstance(k, Tensor) else k,
                       v.data if isinstance(v, Tensor) else v)
                      for k, v in segment_kv]
        if len(segment_kv) != self.n_layers:
            raise ShapeError(f"segment has {len(segment_kv)} layers, memory has {self.n_layers}")
        validity = np.asarray(segment_validity).astype(bool)
        if validity.ndim != 2 or validity.shape[0] != self.batch:
            raise ShapeError(f"segment validity {validity.shape} vs batch {self.batch}")
        seg = validity.shape[1]
        layers = []
        for (k_old, v_old), (k_new, v_new) in zip(self.layers, segment_kv):
            if k_new.shape[0] != self.batch or k_new.shape[2] != seg:
                raise ShapeError(f"segment K/V shape {k_new.shape} vs batch {self.batch}, seg {seg}")
            layers.append((np.concatenate([k_old, k_new], axis=2),
                           np.concatenate([v_old, v_new], axis=2)))
        out = RoundMemory.__new__(RoundMemory)
        out._hold(
            layers,
            np.concatenate([self.validity, validity], axis=1),
            self.counts + validity.sum(axis=1),
            np.concatenate([self.tags, np.full(seg, SLOT_TAGS.index(tag), dtype=np.int8)]),
        )
        return out

    def next_positions(self, segment_validity) -> np.ndarray:
        """Continuous position ids for an incoming segment.

        Valid slots receive consecutive ids continuing from each sequence's
        valid-token count; padding slots receive the sentinel id 0 (their
        keys are masked out, so the value never matters).
        """
        validity = np.asarray(segment_validity).astype(bool)
        if validity.ndim != 2 or validity.shape[0] != self.batch:
            raise ShapeError(f"segment validity {validity.shape} vs batch {self.batch}")
        offsets = np.cumsum(validity, axis=1) - 1
        return np.where(validity, self.counts[:, None] + offsets, 0).astype(np.int64)

    def build_mask(self, segment_validity) -> np.ndarray:
        """Additive attention mask (batch, seg, stored+seg) for a new segment.

        A valid query slot sees every valid cached slot plus the valid
        current-segment slots at or before it. Every query additionally sees
        its own slot, so no row is ever fully masked; padding queries see
        only themselves and their outputs are never consumed downstream.
        Visible = 0, blocked = a large negative number that underflows to
        exactly zero weight.
        """
        validity = np.asarray(segment_validity).astype(bool)
        if validity.ndim != 2 or validity.shape[0] != self.batch:
            raise ShapeError(f"segment validity {validity.shape} vs batch {self.batch}")
        b, s = validity.shape
        q_valid = validity[:, :, None]
        cached_vis = q_valid & self.validity[:, None, :]  # (b, s, stored)

        causal = np.tri(s, dtype=bool)[None, :, :]
        current_vis = (q_valid & validity[:, None, :] & causal) | np.eye(s, dtype=bool)[None, :, :]

        visible = np.concatenate([cached_vis, current_vis], axis=2)
        return np.where(visible, 0.0, MASK_NEG).astype(np.float32)
