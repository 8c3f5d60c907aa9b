"""Unit tests for the true-LRU policy: ordering, victims, stack positions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.replacement.base import make_policy
from repro.cache.replacement.lru import LRUPolicy, fresh_word


def touch_seq(policy, ways, set_index=0):
    for w in ways:
        policy.touch(set_index, w, core=0)


class TestVictim:
    def test_oldest_is_victim(self):
        p = LRUPolicy(num_sets=1, assoc=4)
        touch_seq(p, [0, 1, 2, 3])
        assert p.victim(0, 0, 0b1111) == 0

    def test_promotion_moves_victim(self):
        p = LRUPolicy(num_sets=1, assoc=4)
        touch_seq(p, [0, 1, 2, 3, 0])  # 0 promoted to MRU
        assert p.victim(0, 0, 0b1111) == 1

    def test_subset_victim_is_lru_of_subset(self):
        p = LRUPolicy(num_sets=1, assoc=4)
        touch_seq(p, [3, 2, 1, 0])  # LRU order: 3 oldest
        # Restricted to ways {1, 2}: way 2 is older.
        assert p.victim(0, 0, 0b0110) == 2

    def test_single_candidate(self):
        p = LRUPolicy(num_sets=1, assoc=4)
        touch_seq(p, [0, 1, 2, 3])
        assert p.victim(0, 0, 0b1000) == 3

    def test_untouched_ways_are_oldest(self):
        p = LRUPolicy(num_sets=1, assoc=4)
        touch_seq(p, [1, 2])
        assert p.victim(0, 0, 0b1111) in (0, 3)

    def test_rejects_empty_mask(self):
        p = LRUPolicy(num_sets=1, assoc=4)
        with pytest.raises(ValueError):
            p.victim(0, 0, 0)

    def test_sets_independent(self):
        p = LRUPolicy(num_sets=2, assoc=2)
        p.touch(0, 0, 0)
        p.touch(1, 1, 0)
        assert p.victim(0, 0, 0b11) == 1
        assert p.victim(1, 0, 0b11) == 0


class TestStackPosition:
    def test_mru_is_one(self):
        p = LRUPolicy(num_sets=1, assoc=4)
        touch_seq(p, [0, 1, 2, 3])
        assert p.stack_position(0, 3) == 1

    def test_lru_is_assoc(self):
        p = LRUPolicy(num_sets=1, assoc=4)
        touch_seq(p, [0, 1, 2, 3])
        assert p.stack_position(0, 0) == 4

    def test_paper_figure2_example(self):
        # Figure 2(a): lines {A,B,C,D} MRU->LRU as ways {0,1,2,3}; after
        # accesses to C then D, D is MRU and its next access has distance 1.
        p = LRUPolicy(num_sets=1, assoc=4)
        touch_seq(p, [3, 2, 1, 0])   # stack: A(0) B(1) C(2) D(3), A MRU
        touch_seq(p, [2, 3])         # access C, D
        assert p.stack_position(0, 3) == 1  # D is MRU
        # B was degraded to the LRU position.
        assert p.stack_position(0, 1) == 4

    def test_stack_order(self):
        p = LRUPolicy(num_sets=1, assoc=4)
        touch_seq(p, [2, 0, 3, 1])
        assert p.stack_order(0) == [1, 3, 0, 2]

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_positions_are_a_permutation(self, accesses):
        p = LRUPolicy(num_sets=1, assoc=8)
        for w in range(8):
            p.touch(0, w, 0)
        touch_seq(p, accesses)
        positions = sorted(p.stack_position(0, w) for w in range(8))
        assert positions == list(range(1, 9))

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_victim_is_stack_bottom(self, accesses):
        p = LRUPolicy(num_sets=1, assoc=8)
        for w in range(8):
            p.touch(0, w, 0)
        touch_seq(p, accesses)
        victim = p.victim(0, 0, 0xFF)
        assert p.stack_position(0, victim) == 8


class TestInvalidate:
    def test_invalidated_way_becomes_victim(self):
        p = LRUPolicy(num_sets=1, assoc=4)
        touch_seq(p, [0, 1, 2, 3])
        p.invalidate(0, 2)
        assert p.victim(0, 0, 0b1111) == 2


class TestPinnedOrder:
    """A compiled kernel holds a buffer export of ``_recency`` for as
    long as it lives: every mutator stores whole words in place."""

    def test_touch_into_an_empty_order(self):
        p = LRUPolicy(num_sets=2, assoc=4)
        with memoryview(p._recency):
            p.touch(1, 2, core=0)
        assert p._recency[1] & 0xFFFF == 0x3102
        assert p.stack_order(1) == [2, 0, 1, 3]
        assert p._recency[0] == fresh_word(4)

    def test_invalidate_at_the_last_slot(self):
        p = LRUPolicy(num_sets=2, assoc=4)
        touch_seq(p, [0, 1, 2, 3], set_index=1)
        with memoryview(p._recency):
            p.invalidate(1, 0)          # the LRU way: the deepest nibble
            assert p._recency[1] & 0xFFFF == 0x0123
            assert p.victim(1, 0, 0b1111) == 0
            p.reset()
        assert list(p._recency) == [fresh_word(4)] * 2

    def test_the_word_is_the_permutation(self):
        """Nibble ``i`` is the way at position ``i``, MRU first; ``0xF``
        fills the nibbles above ``assoc``."""
        p = LRUPolicy(num_sets=1, assoc=4)
        assert p._recency[0] & 0xFFFF == 0x3210
        touch_seq(p, [2, 0, 3, 1])
        assert p._recency[0] == -0x10000 | 0x2031
        assert p._recency[0] >> 16 == -1


class TestSixteenWays:
    """At A = 16 the word has no filler: way 15 can be any nibble, the
    sign nibble included."""

    def test_deepest_way_15_stores_a_negative_word(self):
        p = LRUPolicy(num_sets=1, assoc=16)
        order = [15] + list(range(15))      # way 15 first: the deepest
        touch_seq(p, order)
        word = p._recency[0]
        assert word < 0 and (word >> 60) & 15 == 15
        assert word & (1 << 64) - 1 == 0xF0123456789ABCDE
        assert p.victim(0, 0, 0xFFFF) == 15
        assert p.stack_position(0, 15) == 16
        assert p.stack_order(0) == order[::-1]
        p.touch(0, 15, core=0)              # out of the sign nibble
        assert p._recency[0] > 0 and p._recency[0] & 15 == 15
        assert p.victim(0, 0, 0xFFFF) == 0

    def test_victim_walks_from_the_sign_nibble(self):
        p = LRUPolicy(num_sets=1, assoc=16)
        touch_seq(p, [15, 8] + list(range(8)) + list(range(9, 15)))
        assert p._recency[0] < 0
        assert p.victim(0, 0, 0x7FFF) == 8
        assert p.victim(0, 0, 1 << 15) == 15

    @pytest.mark.parametrize("name", ["lru", "fifo", "lip", "bip", "dip"])
    def test_17_ways_are_refused(self, name):
        with pytest.raises(ValueError, match="17 ways do not fit"):
            make_policy(name, 4, 17)
        assert make_policy(name, 4, 16).assoc == 16


class TestMisc:
    def test_reset(self):
        p = LRUPolicy(num_sets=1, assoc=4)
        touch_seq(p, [0, 1, 2, 3])
        p.reset()
        assert p.victim(0, 0, 0b1111) == 0  # lowest way on fresh state

    def test_state_bits_match_table1(self):
        assert LRUPolicy(1024, 16).state_bits_per_set() == 64

    def test_registry_name(self):
        assert LRUPolicy.name == "lru"
