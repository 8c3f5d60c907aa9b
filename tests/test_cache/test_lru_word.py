"""The LRU family's recency word against the seed's timestamp LRU.

``LRUPolicy`` keeps one ``int64`` word per set whose nibbles are the
paper's ``A x log2(A)``-bit permutation (Table I(a)); LIP, BIP and FIFO
reach the same word through the same helpers.  Here every one of them
is driven, at A = 2, 4, 8 and 16 — sixteen ways fill the word, its sign
nibble included — by random ``touch`` / ``touch_fill`` / ``victim(mask)``
/ ``invalidate`` / ``stack_position`` sequences, beside its counterpart
in ``tests/seed_reference.py``, which orders ways by timestamps: every
victim, stack position and order must agree.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import seed_reference as sr  # noqa: E402

from repro.cache.replacement.base import make_policy  # noqa: E402
from repro.cache.replacement.lru import find, fresh_word, to_front  # noqa: E402

SETS = 2

#: Fills outnumber invalidations, so sets fill up, all 16 ways included.
steps = st.lists(
    st.tuples(st.sampled_from(["touch"] * 3 + ["touch_fill", "victim"] * 2
                              + ["invalidate", "stack_position"]),
              st.integers(0, SETS - 1), st.integers(0, 15),
              st.integers(1, (1 << 16) - 1)),
    max_size=200)


def observed(policy, name, set_index):
    if name == "fifo":
        return policy.fill_order(set_index)
    return policy.stack_order(set_index)


@given(st.sampled_from(["lru", "lip", "bip", "fifo"]),
       st.sampled_from([2, 4, 8, 16]), st.integers(0, 2**16), steps)
@settings(max_examples=200, deadline=None)
def test_the_word_decides_as_the_seed_timestamps_do(name, assoc, seed, ops):
    seed_policy = sr.make_seed_policy(name, SETS, assoc,
                                      rng=np.random.default_rng(seed))
    policy = make_policy(name, SETS, assoc, rng=np.random.default_rng(seed))
    full = (1 << assoc) - 1
    for op, s, way, mask in ops:
        way %= assoc
        mask = mask & full or full
        if op == "touch":
            seed_policy.touch(s, way, 0)
            policy.touch(s, way, 0)
        elif op == "touch_fill":
            seed_policy.touch_fill(s, way, 0)
            policy.touch_fill(s, way, 0)
        elif op == "victim":
            victim = seed_policy.victim(s, 0, mask)
            assert policy.victim(s, 0, mask) == victim
            seed_policy.touch_fill(s, victim, 0)
            policy.touch_fill(s, victim, 0)
        elif op == "invalidate":
            seed_policy.invalidate(s, way)
            policy.invalidate(s, way)
        elif name != "fifo":
            assert policy.stack_position(s, way) == \
                seed_policy.stack_position(s, way)
        assert observed(policy, name, s) == observed(seed_policy, name, s)


@given(st.permutations(range(16)), st.integers(0, 15))
@settings(max_examples=200, deadline=None)
def test_find_and_to_front_on_a_full_word(order, way):
    """A full word, stored signed when its deepest nibble is 8 or more:
    the SWAR find names each way's position, and the move puts the way
    first and keeps the others in order."""
    word = sum(w << 4 * i for i, w in enumerate(order))
    word -= (word >> 63) << 64
    assert find(word, way) == order.index(way)
    moved = to_front(word, order.index(way), way)
    assert -2**63 <= moved < 2**63
    assert [moved >> 4 * i & 15 for i in range(16)] == \
        [way] + [w for w in order if w != way]


def test_invalidating_each_way_of_a_full_16_way_set():
    """A present way sinks to the deepest present position, the sign
    nibble when all sixteen are present, and rejoins the oldest pool."""
    for way in range(16):
        seed_policy = sr.make_seed_policy("lru", 1, 16)
        policy = make_policy("lru", 1, 16)
        for touched in [3, 15, 0, 9, 12, 1, 14, 7, 8, 2, 11, 5, 13, 4, 10, 6]:
            seed_policy.touch(0, touched, 0)
            policy.touch(0, touched, 0)
        seed_policy.invalidate(0, way)
        policy.invalidate(0, way)
        assert policy._recency[0] >> 60 & 15 == way
        assert policy.stack_order(0) == seed_policy.stack_order(0)
        assert policy.victim(0, 0, 0xFFFF) == way
        assert policy.victim(0, 0, 0xFFFF & ~(1 << way)) == \
            seed_policy.victim(0, 0, 0xFFFF & ~(1 << way))


def test_fresh_words():
    assert fresh_word(16) == 0xFEDCBA9876543210 - 2**64
    assert fresh_word(4) == -0x10000 | 0x3210
    assert fresh_word(1) == -16
