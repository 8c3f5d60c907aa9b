"""True LRU replacement with exact stack positions — flat per-set slots.

State is the ``PolicyState`` layout the ``lru`` fragments of
:mod:`repro.cache.transitions` bind directly, both flat ``array('q')``\\ s
like every array a kernel binds:

* ``_order`` — ``num_sets * assoc`` slots, ``assoc`` per set: the set's
  *touched* ways in MRU-first recency order, then ``-1`` in every
  remaining slot (always a suffix).  The first
  ``_present[s].bit_count()`` slots of set ``s`` are a permutation of
  its present ways and nothing else;
* ``_present`` — per-set bitmask of the ways in the order.

This is the private L1's layout (``SmallLRUCache._slots``) and the
paper's ``A x log2(A)``-bit permutation per set (Table I(a)).  A hit or
fill moves the way to the front with a same-length slice move (skipped
when the way already is the MRU); the LRU way is the set's deepest
present slot.

Behaviourally identical to the seed's per-set timestamp lists (and to the
hardware LRU of the paper, §II-B): never-touched (or invalidated) ways
are older than every touched way, ties breaking toward the lower way
index — exactly the ordering the timestamp representation produced with
its 0 = "never touched" sentinel.  The pin against the seed timestamp
implementation is ``tests/test_cache/test_flat_equivalence.py``.

The two operations the partitioning system needs survive unchanged:

* victim restricted to an arbitrary subset of ways (untouched candidates
  first, lowest index; else the order's deepest member of the mask);
* exact stack distance of a hit for the SDH profiling logic (§II-A): the
  way's slot in its set, a bounded ``array.index``.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.cache.replacement.base import ReplacementPolicy, register_policy
from repro.util.bitops import bit_length_exact


@register_policy("lru")
class LRUPolicy(ReplacementPolicy):
    """Exact LRU over flat per-set MRU-first slots."""

    kernel_kind = "lru"

    def __init__(self, num_sets: int, assoc: int, rng=None) -> None:
        super().__init__(num_sets, assoc, rng=rng)
        # Kernels capture both arrays at cache construction and C shares
        # them by address: they are only ever mutated in place, never
        # resized or rebound.
        self._order = array("q", [-1]) * (num_sets * assoc)
        self._present = array("q", [0]) * num_sets

    # ------------------------------------------------------------------
    def touch(self, set_index: int, way: int, core: int,
              reset_domain: Optional[int] = None) -> None:
        o = self._order
        row = set_index * self.assoc
        if o[row] == way:                   # already the MRU
            return
        present = self._present[set_index]
        if (present >> way) & 1:
            k = o.index(way, row, row + self.assoc)
        else:
            k = row + present.bit_count()
            self._present[set_index] = present | (1 << way)
        # An empty slice move raises while a kernel pins ``o``.
        if k > row:
            o[row + 1:k + 1] = o[row:k]
        o[row] = way

    def victim(self, set_index: int, core: int, mask: int) -> int:
        if mask == 0:
            raise ValueError("victim mask must be nonzero")
        present = self._present[set_index]
        untouched = mask & ~present
        if untouched:
            # Never-touched ways are the oldest; lowest index breaks ties.
            return (untouched & -untouched).bit_length() - 1
        o = self._order
        k = set_index * self.assoc + present.bit_count() - 1
        while not (mask >> o[k]) & 1:
            k -= 1
        return o[k]

    def reset(self) -> None:
        self._order[:] = array("q", [-1]) * len(self._order)
        self._present[:] = array("q", [0]) * self.num_sets

    def invalidate(self, set_index: int, way: int) -> None:
        # An invalidated line rejoins the "never touched" (oldest) pool.
        if (self._present[set_index] >> way) & 1:
            self._remove_from_order(set_index, way)

    def _remove_from_order(self, set_index: int, way: int) -> None:
        o = self._order
        end = (set_index + 1) * self.assoc
        k = o.index(way, end - self.assoc, end)
        # An empty slice move raises while a kernel pins ``o``.
        if k < end - 1:
            o[k:end - 1] = o[k + 1:end]
        o[end - 1] = -1
        self._present[set_index] &= ~(1 << way)

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
            row = set_index * self.assoc
            return self._order.index(way, row, row + self.assoc) - row + 1
        return present.bit_count() + 1

    def stack_order(self, set_index: int) -> List[int]:
        """Ways of ``set_index`` ordered MRU first (ties: lower way first)."""
        present = self._present[set_index]
        row = set_index * self.assoc
        return (self._order[row:row + present.bit_count()].tolist()
                + [w for w in range(self.assoc) if not (present >> w) & 1])

    def state_bits_per_set(self) -> int:
        """``A x log2(A)`` bits per set (paper Table I(a))."""
        return self.assoc * bit_length_exact(self.assoc)
