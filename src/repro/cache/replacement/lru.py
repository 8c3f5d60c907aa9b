"""True LRU replacement with exact stack positions — per-set order lists.

State is the ``PolicyState`` layout the ``lru`` fragments of
:mod:`repro.cache.transitions` bind directly:

* ``_order`` — one list per set holding the *touched* ways in MRU-first
  recency order: a permutation of the present ways, nothing else
  (``len(_order[s]) == _present[s].bit_count()``, no stale slots);
* ``_present`` — per-set bitmask of the ways in the order.

A hit or fill moves the way to the front with CPython's C-level
``list.remove`` + ``list.insert(0, …)`` on a list of at most ``assoc``
elements (skipped when the way already is the MRU); the LRU way is the
list's last entry.  The layout was chosen by measurement, like
``TagStore``'s, over flat ``set * assoc + slot`` segments and per-way
timestamps (``docs/architecture.md``, "``PolicyState`` layout").

Behaviourally identical to the seed's per-set timestamp lists (and to the
``A x log2(A)``-bit hardware LRU of the paper, §II-B): never-touched (or
invalidated) ways are older than every touched way, ties breaking toward
the lower way index — exactly the ordering the timestamp representation
produced with its 0 = "never touched" sentinel.  The pin against the seed
timestamp implementation is ``tests/test_cache/test_flat_equivalence.py``.

The two operations the partitioning system needs survive unchanged:

* victim restricted to an arbitrary subset of ways (untouched candidates
  first, lowest index; else the order's deepest member of the mask);
* exact stack distance of a hit for the SDH profiling logic (§II-A): the
  way's index in its set's list, a C-speed ``list.index``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.replacement.base import ReplacementPolicy, register_policy
from repro.util.bitops import bit_length_exact


@register_policy("lru")
class LRUPolicy(ReplacementPolicy):
    """Exact LRU over per-set MRU-first order lists."""

    kernel_kind = "lru"

    def __init__(self, num_sets: int, assoc: int, rng=None) -> None:
        super().__init__(num_sets, assoc, rng=rng)
        # Invariant the kernels rely on: a set's list holds every present
        # way exactly once and nothing else.  Kernels capture the outer
        # list at cache construction; ``reset`` empties the per-set lists
        # in place and never rebinds it.
        self._order: List[List[int]] = [[] for _ in range(num_sets)]
        self._present: List[int] = [0] * num_sets

    # ------------------------------------------------------------------
    def touch(self, set_index: int, way: int, core: int,
              reset_domain: Optional[int] = None) -> None:
        o = self._order[set_index]
        if (self._present[set_index] >> way) & 1:
            if o[0] != way:
                o.remove(way)
                o.insert(0, way)
        else:
            o.insert(0, way)
            self._present[set_index] |= 1 << way

    def victim(self, set_index: int, core: int, mask: int) -> int:
        if mask == 0:
            raise ValueError("victim mask must be nonzero")
        untouched = mask & ~self._present[set_index]
        if untouched:
            # Never-touched ways are the oldest; lowest index breaks ties.
            return (untouched & -untouched).bit_length() - 1
        o = self._order[set_index]
        i = -1
        while not (mask >> o[i]) & 1:
            i -= 1
        return o[i]

    def reset(self) -> None:
        for s, o in enumerate(self._order):
            o.clear()
            self._present[s] = 0

    def invalidate(self, set_index: int, way: int) -> None:
        # An invalidated line rejoins the "never touched" (oldest) pool.
        if (self._present[set_index] >> way) & 1:
            self._remove_from_order(set_index, way)

    def _remove_from_order(self, set_index: int, way: int) -> None:
        self._order[set_index].remove(way)
        self._present[set_index] &= ~(1 << way)

    # ------------------------------------------------------------------
    # Profiling support (exact stack property)
    # ------------------------------------------------------------------
    def stack_position(self, set_index: int, way: int) -> int:
        """Exact LRU stack position of ``way`` (1 = MRU .. A = LRU).

        Must be read *before* :meth:`touch` promotes the line.
        """
        self._check_way(way)
        o = self._order[set_index]
        if (self._present[set_index] >> way) & 1:
            return o.index(way) + 1
        return len(o) + 1

    def stack_order(self, set_index: int) -> List[int]:
        """Ways of ``set_index`` ordered MRU first (ties: lower way first)."""
        present = self._present[set_index]
        return self._order[set_index] + [w for w in range(self.assoc)
                                         if not (present >> w) & 1]

    def state_bits_per_set(self) -> int:
        """``A x log2(A)`` bits per set (paper Table I(a))."""
        return self.assoc * bit_length_exact(self.assoc)
