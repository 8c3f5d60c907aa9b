"""True LRU replacement with exact stack positions — one word per set.

The paper prices LRU at an ``A x log2(A)``-bit permutation per set
(Table I(a)); at A = 16 that is one 64-bit word, and that word *is* the
state here.  Both arrays are flat ``array('q')``\\ s, the ``PolicyState``
layout the ``lru`` fragments of :mod:`repro.cache.transitions` bind:

* ``_recency`` — one word per set: nibble ``i`` (bits ``4i .. 4i+3``) is
  the way at recency position ``i``, MRU first.  The first
  ``_present[s].bit_count()`` nibbles of set ``s`` are its present
  (touched) ways, then come every absent way, then ``0xF`` in each
  nibble at or above ``assoc``: each way occurs exactly once.  At
  A = 16 the deepest nibble is the sign nibble, so a word whose deepest
  way is 8 or more is stored negative;
* ``_present`` — per-set bitmask of the ways in the order.

So a way is found with one SWAR zero-nibble test (:func:`find`) and
moved to the front with three masks (:func:`to_front`) — the kernels'
``find`` / ``move`` in C, the classes' here over Python integers, each
stored back as the signed word ``array('q')`` holds.  The LRU way is the
set's deepest present nibble.  Sixteen nibbles bound the family at 16
ways: a wider LRU-family policy is refused at construction.

Behaviourally identical to the seed's per-set timestamp lists (and to the
hardware LRU of the paper, §II-B): never-touched (or invalidated) ways
are older than every touched way, ties breaking toward the lower way
index — exactly the ordering the timestamp representation produced with
its 0 = "never touched" sentinel.  The pins against the seed timestamp
implementation are ``tests/test_cache/test_flat_equivalence.py`` and
``tests/test_cache/test_lru_word.py``.

The two operations the partitioning system needs survive unchanged:

* victim restricted to an arbitrary subset of ways (untouched candidates
  first, lowest index; else the order's deepest member of the mask);
* exact stack distance of a hit for the SDH profiling logic (§II-A): the
  way's position in its set's word, plus one.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.cache.replacement.base import ReplacementPolicy, register_policy
from repro.util.bitops import bit_length_exact

#: A one in every nibble: ``way * NIBBLES`` is ``way`` in every nibble.
NIBBLES = 0x1111111111111111
#: The most ways one word orders.
MAX_WAYS = 16

_TOPS = NIBBLES << 3                # the top bit of every nibble
_SIGN = 1 << 63


def _signed(word: int) -> int:
    """The low 64 bits of ``word`` as the ``int64`` an ``array('q')``
    stores."""
    return ((word + _SIGN) & (2 * _SIGN - 1)) - _SIGN


def fresh_word(assoc: int) -> int:
    """The word of an empty set: way ``i`` at position ``i``, ``0xF``
    above ``assoc``."""
    ways = sum(way << 4 * way for way in range(assoc))
    return _signed(ways | -1 << 4 * assoc)


def find(word: int, way: int) -> int:
    """Position of ``way`` in ``word``, where it occurs exactly once: the
    lowest nibble of ``word ^ way * NIBBLES`` that is zero."""
    x = word ^ way * NIBBLES
    zero = (x - NIBBLES) & ~x & _TOPS
    return ((zero & -zero).bit_length() - 1) >> 2


def to_front(word: int, position: int, way: int) -> int:
    """``word`` with ``way``, at ``position``, moved to the front and the
    ways in front of it one deeper."""
    below = (1 << 4 * position) - 1
    return _signed(word & ~(below << 4 | 15) | (word & below) << 4 | way)


def _sunk(word: int, position: int, depth: int, way: int) -> int:
    """``word`` with ``way``, at ``position``, moved down to ``depth`` and
    the ways between one shallower."""
    below = (1 << 4 * position) - 1
    through = (1 << 4 * depth + 4) - 1
    between = word >> 4 & through >> 4 & ~below
    return _signed(word & ~through | word & below | between
                   | way << 4 * depth)


@register_policy("lru")
class LRUPolicy(ReplacementPolicy):
    """Exact LRU over one recency word per set."""

    def __init__(self, num_sets: int, assoc: int, rng=None) -> None:
        super().__init__(num_sets, assoc, rng=rng)
        if assoc > MAX_WAYS:
            raise ValueError(
                f"{type(self).__name__}: {assoc} ways do not fit one "
                f"recency word (at most {MAX_WAYS} 4-bit positions)")
        # Kernels capture both arrays at cache construction and C shares
        # them by address: they are only ever mutated in place, never
        # resized or rebound.
        self._fresh = fresh_word(assoc)
        self._recency = array("q", [self._fresh]) * num_sets
        self._present = array("q", [0]) * num_sets

    # ------------------------------------------------------------------
    def touch(self, set_index: int, way: int, core: int,
              reset_domain: Optional[int] = None) -> None:
        word = self._recency[set_index]
        position = find(word, way)
        if position:
            self._recency[set_index] = to_front(word, position, way)
        self._present[set_index] |= 1 << way

    def victim(self, set_index: int, core: int, mask: int) -> int:
        if mask == 0:
            raise ValueError("victim mask must be nonzero")
        present = self._present[set_index]
        untouched = mask & ~present
        if untouched:
            # Never-touched ways are the oldest; lowest index breaks ties.
            return (untouched & -untouched).bit_length() - 1
        word = self._recency[set_index]
        shift = 4 * present.bit_count() - 4
        way = word >> shift & 15
        while not (mask >> way) & 1:
            shift -= 4
            way = word >> shift & 15
        return way

    def reset(self) -> None:
        self._recency[:] = array("q", [self._fresh]) * self.num_sets
        self._present[:] = array("q", [0]) * self.num_sets

    def invalidate(self, set_index: int, way: int) -> None:
        # An invalidated line rejoins the "never touched" (oldest) pool.
        if (self._present[set_index] >> way) & 1:
            self._remove_from_order(set_index, way)

    def _remove_from_order(self, set_index: int, way: int) -> None:
        """Take a present ``way`` out of the order: it sinks to the
        deepest present position, which then stops being present."""
        present = self._present[set_index]
        word = self._recency[set_index]
        self._recency[set_index] = _sunk(word, find(word, way),
                                         present.bit_count() - 1, way)
        self._present[set_index] = present & ~(1 << way)

    def _touched(self, set_index: int) -> List[int]:
        """The present ways of ``set_index``, MRU first."""
        word = self._recency[set_index]
        return [word >> 4 * i & 15
                for i in range(self._present[set_index].bit_count())]

    # ------------------------------------------------------------------
    # Profiling support (exact stack property)
    # ------------------------------------------------------------------
    def stack_position(self, set_index: int, way: int) -> int:
        """Exact LRU stack position of ``way`` (1 = MRU .. A = LRU).

        Must be read *before* :meth:`touch` promotes the line.
        """
        self._check_way(way)
        present = self._present[set_index]
        if (present >> way) & 1:
            return find(self._recency[set_index], way) + 1
        return present.bit_count() + 1

    def stack_order(self, set_index: int) -> List[int]:
        """Ways of ``set_index`` ordered MRU first (ties: lower way first)."""
        present = self._present[set_index]
        return (self._touched(set_index)
                + [w for w in range(self.assoc) if not (present >> w) & 1])

    def state_bits_per_set(self) -> int:
        """``A x log2(A)`` bits per set (paper Table I(a))."""
        return self.assoc * bit_length_exact(self.assoc)
