"""Not Recently Used (NRU) replacement — Sun UltraSPARC T2 scheme.

Paper §III-A.  State:

* one *used bit* per line (stored here as a per-set integer bitmask);
* a single *replacement pointer* for the whole cache — **not** per set —
  shared by all running threads.  Because every set consults the same
  rotating pointer, victim selection behaves "random-like" (paper §V-A).

Rules implemented exactly as described:

* On any access (hit or fill) the line's used bit is set to 1.  If
  afterwards *all* used bits inside the access's reset domain are 1, they are
  reset to 0 except the accessed line's bit.  Unpartitioned caches use the
  whole set as the domain; with global replacement masks the domain is the
  accessing core's owned ways ("if all the used bits of the owned ways are
  set to 1, we reset all used bits except the one that belongs to the line
  currently accessed").
* On a miss the victim search starts at the replacement pointer and walks
  forward (wrapping) until it finds a way whose used bit is 0, skipping ways
  outside the candidate mask.  If every candidate's used bit is 1 (possible
  transiently with masks), the candidates' used bits are first reset.
  After the fill the pointer rotates forward one way.
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.cache.replacement.base import ReplacementPolicy, register_policy
from repro.util.bitops import bit_length_exact


@register_policy("nru")
class NRUPolicy(ReplacementPolicy):
    """Used-bit NRU with a cache-global rotating replacement pointer.

    The state was already flat — ``_used`` is one per-set bitmask word plus
    the scalar cache-global ``pointer`` — so the array-core refactor left
    it as it was for the batch renderings of
    :mod:`repro.cache.transitions` to bind.
    """

    def __init__(self, num_sets: int, assoc: int, rng=None) -> None:
        super().__init__(num_sets, assoc, rng=rng)
        self._used = array("q", [0]) * num_sets
        # Cache-global replacement pointer, boxed in a 1-slot array so the
        # access kernels rotate it with locals-bound writes.
        self._pointer_box = array("q", [0])

    @property
    def pointer(self) -> int:
        """Cache-global replacement pointer (one for all sets and threads)."""
        return self._pointer_box[0]

    @pointer.setter
    def pointer(self, value: int) -> None:
        self._pointer_box[0] = value

    # ------------------------------------------------------------------
    def touch(self, set_index: int, way: int, core: int,
              reset_domain: Optional[int] = None) -> None:
        domain = self.full_mask if reset_domain is None else reset_domain
        used = self._used[set_index] | (1 << way)
        # Reset rule: when every used bit in the domain is set, clear the
        # domain except the line just accessed (paper §III-A).
        if domain and (used & domain) == domain:
            used &= ~domain
            used |= 1 << way
        self._used[set_index] = used

    def victim(self, set_index: int, core: int, mask: int) -> int:
        if mask == 0:
            raise ValueError("victim mask must be nonzero")
        used = self._used[set_index]
        if (used & mask) == mask:
            # Every candidate is recently used; hardware would have reset on
            # the access that set the last bit.  Clear the candidates now.
            used &= ~mask
            self._used[set_index] = used
        assoc = self.assoc
        way = self.pointer
        # At most one full rotation is needed: mask has a zero used bit.
        for _ in range(assoc):
            if (mask >> way) & 1 and not (used >> way) & 1:
                break
            way = way + 1 if way + 1 < assoc else 0
        return way

    def fill_done(self) -> None:
        """Rotate the global pointer forward one way after a replacement."""
        self.pointer = self.pointer + 1 if self.pointer + 1 < self.assoc else 0

    def reset(self) -> None:
        for s in range(self.num_sets):
            self._used[s] = 0
        self.pointer = 0

    def invalidate(self, set_index: int, way: int) -> None:
        self._used[set_index] &= ~(1 << way)

    # ------------------------------------------------------------------
    # Profiling support (paper §III-A: eSDH inputs)
    # ------------------------------------------------------------------
    def used_bit(self, set_index: int, way: int) -> bool:
        """Used bit of ``way`` (read *before* :meth:`touch`)."""
        self._check_way(way)
        return bool((self._used[set_index] >> way) & 1)

    def used_count(self, set_index: int, domain: Optional[int] = None) -> int:
        """Number of used bits set in ``domain`` (default: whole set).

        This is the quantity ``U`` of the paper's eSDH estimate.  Note that
        the paper counts the accessed line's bit as part of ``U`` ("there are
        U = 8 lines in a given set with used bits set to 1, *including the
        line that is accessed*"), so callers evaluate ``U`` *after* observing
        the access — equivalently ``used_count`` on the pre-access state plus
        one when the accessed line's bit was clear.
        """
        used = self._used[set_index]
        if domain is not None:
            used &= domain
        return used.bit_count()

    def used_mask(self, set_index: int) -> int:
        """Raw used-bit bitmask of a set."""
        return self._used[set_index]

    def state_bits_per_set(self) -> int:
        """``A`` used bits per set (the pointer is per cache; Table I(a))."""
        return self.assoc

    def pointer_bits(self) -> int:
        """``log2(A)`` bits for the cache-global replacement pointer."""
        return bit_length_exact(self.assoc)
