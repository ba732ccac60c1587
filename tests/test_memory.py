"""Tests for the round-level K/V memory: appends, positions, masks."""

import numpy as np
import pytest

from roletune.errors import ShapeError
from roletune.memory import RoundMemory
from roletune.tensor import MASK_NEG


def make_segment(rng, batch=2, heads=2, seg=3, head_dim=4, n_layers=2):
    return [
        (rng.normal(size=(batch, heads, seg, head_dim)).astype(np.float32),
         rng.normal(size=(batch, heads, seg, head_dim)).astype(np.float32))
        for _ in range(n_layers)
    ]


def cached_write(mem, new):
    """What a cached forward from `mem` does with the new slots `new`
    (per-layer (K, V) of the segment alone): write each layer through
    `layers.attend`; returns the views it attended over."""
    layers = mem.layers
    return [layers.attend(i, k, v) for i, (k, v) in enumerate(new)]


def cached_step(mem, new, validity, segment):
    """`cached_write`, then the append that adopts its slots."""
    return mem.append(cached_write(mem, new), validity, segment)


class TestAppend:
    def test_empty_memory_base_case(self):
        mem = RoundMemory.empty(batch=2, n_layers=2, n_heads=2, head_dim=4)
        assert mem.stored == 0
        assert mem.batch == 2
        np.testing.assert_array_equal(mem.counts, [0, 0])

    def test_append_to_empty_equals_segment(self):
        rng = np.random.default_rng(0)
        seg_kv = make_segment(rng)
        validity = np.array([[1, 1, 0], [1, 0, 0]])
        mem = cached_step(RoundMemory.empty(2, 2, 2, 4), seg_kv, validity, 0)
        assert mem.stored == 3
        for (k, v), (ks, vs) in zip(mem.layers, seg_kv):
            np.testing.assert_array_equal(k, ks)
            np.testing.assert_array_equal(v, vs)
        np.testing.assert_array_equal(mem.counts, [2, 1])

    def test_two_appends_lengths_additive(self):
        rng = np.random.default_rng(1)
        mem = RoundMemory.empty(2, 2, 2, 4)
        mem = cached_step(mem, make_segment(rng, seg=3), np.ones((2, 3)), 0)
        mem = cached_step(mem, make_segment(rng, seg=5), np.ones((2, 5)), 1)
        assert mem.stored == 8
        np.testing.assert_array_equal(mem.counts, [8, 8])

    def test_append_is_functional_and_append_only(self):
        rng = np.random.default_rng(2)
        first_kv = make_segment(rng, seg=3)
        mem1 = cached_step(RoundMemory.empty(2, 2, 2, 4), first_kv, np.ones((2, 3)), 0)
        snapshot = [(k.copy(), v.copy()) for k, v in mem1.layers]
        mem2 = cached_step(mem1, make_segment(rng, seg=2), np.ones((2, 2)), 1)
        assert mem1.stored == 3 and mem2.stored == 5
        for (k, v), (ks, vs) in zip(mem1.layers, snapshot):
            np.testing.assert_array_equal(k, ks)
            np.testing.assert_array_equal(v, vs)

    def test_stored_arrays_are_read_only(self):
        rng = np.random.default_rng(3)
        mem = cached_step(RoundMemory.empty(2, 2, 2, 4), make_segment(rng), np.ones((2, 3)), 0)
        with pytest.raises(ValueError):
            mem.layers[0][0][0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            mem.validity[0, 0] = False

    def test_mutating_source_after_append_leaves_memory_unchanged(self):
        # `attend` copies the segment into the store, so a write through the
        # caller's reference does not reach the memory
        rng = np.random.default_rng(4)
        seg_kv = make_segment(rng)
        mem = cached_step(RoundMemory.empty(2, 2, 2, 4), seg_kv, np.ones((2, 3)), 0)
        before = mem.layers[0][0].copy()
        seg_kv[0][0][:] = 0.0
        np.testing.assert_array_equal(mem.layers[0][0], before)

    def test_batch_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        mem = RoundMemory.empty(2, 2, 2, 4)
        with pytest.raises(ShapeError, match="segment validity"):
            mem.append(make_segment(rng, batch=3), np.ones((3, 3)), 0)
        with pytest.raises(ShapeError, match="segment validity"):
            mem.append(make_segment(rng), np.ones((3, 3)), 0)

    def test_segment_slots_alone_rejected(self):
        # an append takes the stored slots plus the new ones, as attended over
        rng = np.random.default_rng(19)
        mem = cached_step(RoundMemory.empty(2, 2, 2, 4), make_segment(rng), np.ones((2, 3)), 0)
        with pytest.raises(ShapeError, match="layer store shape"):
            mem.append(make_segment(rng), np.ones((2, 3)), 1)

    def test_layer_count_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        mem = RoundMemory.empty(2, 2, 2, 4)
        with pytest.raises(ShapeError, match="3 layers"):
            mem.append(make_segment(rng, n_layers=3), np.ones((2, 3)), 0)

    def test_segment_before_stored_rejected(self):
        rng = np.random.default_rng(7)
        mem = RoundMemory.empty(2, 2, 2, 4)
        with pytest.raises(ShapeError, match="precedes"):
            mem.append(cached_write(mem, make_segment(rng)), np.ones((2, 3)), -1)
        mem = cached_step(mem, make_segment(rng), np.ones((2, 3)), 2)
        with pytest.raises(ShapeError, match="precedes"):
            mem.append(cached_write(mem, make_segment(rng)), np.ones((2, 3)), 1)

    def test_segments_recorded_per_slot(self):
        rng = np.random.default_rng(8)
        mem = RoundMemory.empty(2, 2, 2, 4)
        mem = cached_step(mem, make_segment(rng, seg=2), np.ones((2, 2)), 0)
        mem = cached_step(mem, make_segment(rng, seg=3), np.ones((2, 3)), 1)
        np.testing.assert_array_equal(mem.segments, [0, 0, 1, 1, 1])
        # a decoded token continues its reply's segment
        mem = cached_step(mem, make_segment(rng, seg=1), np.ones((2, 1)), 1)
        np.testing.assert_array_equal(mem.segments, [0, 0, 1, 1, 1, 1])
        assert mem.next_segment == 2


class TestNextPositions:
    def test_start_at_zero(self):
        mem = RoundMemory.empty(1, 1, 1, 2)
        pos = mem.next_positions(np.array([[1, 1, 1, 0]]))
        np.testing.assert_array_equal(pos, [[0, 1, 2, 0]])

    def test_continue_from_count_with_padding(self):
        rng = np.random.default_rng(9)
        mem = cached_step(RoundMemory.empty(1, 2, 2, 4), make_segment(rng, batch=1, seg=5),
                          np.ones((1, 5)), 0)
        assert mem.counts[0] == 5
        pos = mem.next_positions(np.array([[1, 0, 1]]))
        assert pos[0, 0] == 5
        assert pos[0, 2] == 6

    def test_per_sequence_counts_independent(self):
        rng = np.random.default_rng(10)
        mem = cached_step(RoundMemory.empty(2, 2, 2, 4), make_segment(rng, seg=3),
                          np.array([[1, 1, 1], [1, 0, 0]]), 0)
        pos = mem.next_positions(np.array([[1, 1], [1, 1]]))
        np.testing.assert_array_equal(pos, [[3, 4], [1, 2]])

    def test_positions_continuous_across_rounds(self):
        # valid ids must tile 0..n-1 with no gaps under arbitrary padding
        rng = np.random.default_rng(11)
        mem = RoundMemory.empty(3, 2, 2, 4)
        collected = [[] for _ in range(3)]
        for _ in range(3):
            seg = int(rng.integers(2, 6))
            validity = rng.integers(0, 2, size=(3, seg))
            validity[:, 0] = 1
            pos = mem.next_positions(validity)
            for b in range(3):
                collected[b].extend(pos[b, validity[b].astype(bool)].tolist())
            mem = cached_step(mem, make_segment(rng, batch=3, seg=seg), validity,
                              mem.next_segment)
        for b in range(3):
            np.testing.assert_array_equal(collected[b], np.arange(len(collected[b])))
            assert len(collected[b]) == mem.counts[b]


class TestBuildMask:
    def test_empty_memory_no_padding_is_causal(self):
        mem = RoundMemory.empty(1, 1, 1, 2)
        mask = mem.build_mask(np.ones((1, 4)), mem.next_segment, "user")
        expected = np.where(np.tri(4, dtype=bool), 0.0, MASK_NEG)
        np.testing.assert_array_equal(mask[0], expected)

    def test_single_token_decode_sees_all_cache_plus_self(self):
        rng = np.random.default_rng(12)
        mem = cached_step(RoundMemory.empty(1, 2, 2, 4), make_segment(rng, batch=1, seg=4),
                          np.ones((1, 4)), 0)
        mask = mem.build_mask(np.ones((1, 1)), mem.next_segment, "user")
        np.testing.assert_array_equal(mask[0, 0], np.zeros(5))

    def test_cached_padding_slot_blocked(self):
        rng = np.random.default_rng(13)
        mem = cached_step(RoundMemory.empty(2, 2, 2, 4), make_segment(rng, seg=3),
                          np.array([[1, 1, 0], [1, 0, 0]]), 0)
        mask = mem.build_mask(np.ones((2, 2)), mem.next_segment, "user")
        assert (mask[0, :, 2] == MASK_NEG).all()      # sequence 0: slot 2 padded
        assert (mask[1, :, 1:3] == MASK_NEG).all()    # sequence 1: slots 1,2 padded
        assert (mask[0, :, :2] == 0.0).all()

    def test_attention_weight_to_cached_padding_is_exactly_zero(self):
        # push the mask through a real softmax on a 2-sequence toy batch
        rng = np.random.default_rng(14)
        mem = cached_step(RoundMemory.empty(2, 2, 2, 4), make_segment(rng, seg=3),
                          np.array([[1, 0, 1], [0, 1, 1]]), 0)
        mask = mem.build_mask(np.ones((2, 2)), mem.next_segment, "user")
        scores = rng.normal(size=(2, 2, 5)).astype(np.float32) + mask
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        assert (weights[0, :, 1] == 0.0).all()
        assert (weights[1, :, 0] == 0.0).all()
        assert weights.sum(axis=-1) == pytest.approx(np.ones((2, 2)))

    def test_current_segment_padding_blocked_for_other_queries(self):
        mem = RoundMemory.empty(1, 1, 1, 2)
        mask = mem.build_mask(np.array([[1, 0, 1]]), mem.next_segment, "user")
        assert mask[0, 2, 1] == MASK_NEG  # valid query never sees the pad slot
        assert mask[0, 2, 0] == 0.0
        assert mask[0, 2, 2] == 0.0

    def test_padding_query_sees_only_itself(self):
        rng = np.random.default_rng(15)
        mem = cached_step(RoundMemory.empty(1, 2, 2, 4), make_segment(rng, batch=1, seg=2),
                          np.ones((1, 2)), 0)
        mask = mem.build_mask(np.array([[1, 0]]), mem.next_segment, "user")
        np.testing.assert_array_equal(mask[0, 1], [MASK_NEG, MASK_NEG, MASK_NEG, 0.0])

    def test_mask_values_are_binary(self):
        rng = np.random.default_rng(18)
        mem = cached_step(RoundMemory.empty(2, 2, 2, 4), make_segment(rng, seg=3),
                          np.array([[1, 1, 0], [1, 0, 0]]), 0)
        mask = mem.build_mask(np.array([[1, 1], [1, 0]]), mem.next_segment, "user")
        assert set(np.unique(mask)) <= {0.0, np.float32(MASK_NEG)}


def expected_state(steps):
    """Slots, validity, segment ids and counts that the chain of (new,
    validity, segment) steps leaves, built by concatenation."""
    layers = [(np.concatenate([new[i][0] for new, _, _ in steps], axis=2),
               np.concatenate([new[i][1] for new, _, _ in steps], axis=2))
              for i in range(len(steps[0][0]))]
    validity = np.concatenate([np.asarray(v, dtype=bool) for _, v, _ in steps], axis=1)
    segments = np.concatenate([np.full(v.shape[1], s) for _, v, s in steps])
    return layers, validity, segments, validity.sum(axis=1)


def assert_holds(mem, steps):
    layers, validity, segments, counts = expected_state(steps)
    assert mem.stored == validity.shape[1]
    for (k, v), (k_want, v_want) in zip(mem.layers, layers, strict=True):
        assert k.tobytes() == k_want.tobytes() and v.tobytes() == v_want.tobytes()
    assert mem.validity.tobytes() == validity.tobytes()
    np.testing.assert_array_equal(mem.segments, segments)
    np.testing.assert_array_equal(mem.counts, counts)


def replay(steps, batch=2):
    mem = RoundMemory.empty(batch, 2, 2, 4)
    for new, validity, segment in steps:
        mem = cached_step(mem, new, validity, segment)
    return mem


class TestStore:
    """Memories grown from one another share one preallocated store; a
    memory that is not its store's tip, or whose store is full, moves its
    own slots to a fresh store once."""

    @staticmethod
    def steps(seed, lengths, batch=2, first_segment=0, padded=False):
        rng = np.random.default_rng(seed)
        out = []
        for j, seg in enumerate(lengths):
            validity = (rng.random((batch, seg)) < 0.7) if padded else np.ones((batch, seg))
            out.append((make_segment(rng, batch=batch, seg=seg), validity, first_segment + j))
        return out

    def test_linear_chain_shares_one_buffer(self):
        steps = self.steps(20, [6, 1, 1, 2, 1])
        mem = RoundMemory.empty(2, 2, 2, 4)
        chain = []
        for new, validity, segment in steps:
            mem = cached_step(mem, new, validity, segment)
            chain.append(mem)
        assert chain[-1].stored <= chain[0].capacity  # the first move left room
        for earlier in chain[:-1]:
            for (k, v), (k_last, v_last) in zip(earlier.layers, chain[-1].layers):
                assert np.shares_memory(k, k_last) and np.shares_memory(v, v_last)
        for i, mem in enumerate(chain):
            assert_holds(mem, steps[:i + 1])

    @pytest.mark.parametrize("order", ["a_first", "b_first"])
    def test_branches_from_an_older_memory_equal_fresh_replays(self, order):
        trunk = self.steps(21, [5, 3])
        later = self.steps(22, [2], first_segment=2)
        branch_a = self.steps(23, [4, 1], first_segment=2)
        branch_b = self.steps(24, [1, 1, 1], first_segment=2)
        base = replay(trunk)
        tip = cached_step(base, *later[0])  # base is no longer its store's tip
        grown = {}
        for name in (("a", "b") if order == "a_first" else ("b", "a")):
            mem = base
            for step in {"a": branch_a, "b": branch_b}[name]:
                mem = cached_step(mem, *step)
            grown[name] = mem
        for mem, steps in ((base, trunk), (tip, trunk + later),
                           (grown["a"], trunk + branch_a), (grown["b"], trunk + branch_b)):
            assert_holds(mem, steps)
            fresh = replay(steps)
            for (k, v), (k_fresh, v_fresh) in zip(mem.layers, fresh.layers):
                assert k.tobytes() == k_fresh.tobytes() and v.tobytes() == v_fresh.tobytes()

    def test_growth_past_capacity_keeps_every_slot(self):
        steps = self.steps(25, [3, 2, 1, 1, 4, 1, 1, 1, 7, 1, 2, 9, 1], padded=True)
        mem = RoundMemory.empty(2, 2, 2, 4)
        chain, capacities = [], set()
        for new, validity, segment in steps:
            mem = cached_step(mem, new, validity, segment)
            chain.append(mem)
            capacities.add(mem.capacity)
        assert len(capacities) >= 3  # the store grew at least twice
        for i, mem in enumerate(chain):
            assert_holds(mem, steps[:i + 1])

    def test_foreign_arrays_are_rejected(self):
        # the stored slots then the segment's, built outside the store
        steps = self.steps(26, [4, 2])
        mem = replay(steps[:1])
        new, validity, segment = steps[1]
        foreign = [(np.concatenate([k, k_new], axis=2), np.concatenate([v, v_new], axis=2))
                   for (k, v), (k_new, v_new) in zip(mem.layers, new)]
        with pytest.raises(ShapeError, match="not written"):
            mem.append(foreign, validity, segment)
        assert_holds(mem, steps[:1])
        assert_holds(cached_step(mem, new, validity, segment), steps)

    def test_the_first_of_two_writes_from_one_memory_is_rejected(self):
        # two cached forwards from one memory before either appends: the
        # second writes into a fresh store, so only the second is adopted
        steps = self.steps(27, [4])
        (new_a, val_a, seg_a), (new_b, val_b, seg_b) = self.steps(28, [2, 2], first_segment=1)
        base = replay(steps)
        kv_a = cached_write(base, new_a)
        kv_b = cached_write(base, new_b)
        with pytest.raises(ShapeError, match="not written"):
            base.append(kv_a, val_a, seg_a)
        mem_b = base.append(kv_b, val_b, seg_b)
        with pytest.raises(ShapeError, match="not written"):
            base.append(kv_a, val_a, seg_a)
        assert_holds(base, steps)
        assert_holds(mem_b, steps + [(new_b, val_b, seg_b)])

    def test_a_later_memorys_write_appended_to_an_earlier_one_is_rejected(self):
        # the write began at the later memory's end, so the earlier memory
        # must not adopt it over the later memory's slots
        steps = self.steps(31, [6, 2], padded=True)
        (new, validity, segment), = self.steps(32, [2], first_segment=2)
        base = replay(steps[:1])
        later = cached_step(base, *steps[1])
        assert later.stored + 2 <= later.capacity  # one store throughout
        kv = cached_write(later, new)
        with pytest.raises(ShapeError, match="not written"):
            base.append(kv, np.ones((2, 4)), segment)
        assert_holds(base, steps[:1])
        assert_holds(later, steps)
        assert_holds(later.append(kv, validity, segment), steps + [(new, validity, segment)])

    def test_attend_rejects_a_mismatched_segment(self):
        rng = np.random.default_rng(29)
        mem = replay(self.steps(29, [3]))
        with pytest.raises(ShapeError):
            mem.layers.attend(0, *make_segment(rng, batch=1, n_layers=1)[0])

    def test_mask_from_an_older_memory_leaves_later_ones_whole(self):
        # build_mask writes the incoming segment's bookkeeping into free
        # slots only: an older memory moves its own slots first
        steps = self.steps(30, [4, 3], padded=True)
        base = replay(steps[:1])
        tip = cached_step(base, *steps[1])
        assert base.stored + 2 <= base.capacity  # room, but not base's
        base.build_mask(np.zeros((2, 2)), 7, "user")
        assert_holds(tip, steps)
        assert_holds(base, steps[:1])
