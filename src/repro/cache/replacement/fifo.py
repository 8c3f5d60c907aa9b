"""First-In First-Out (FIFO / round-robin) replacement.

A reference baseline that, like NRU, abandons exact recency: each line is
promoted once, at *fill* time, and the victim is the oldest fill among the
candidate ways.  Hits do not move a line ("no promotion"), which is what
separates FIFO from LRU and makes it vulnerable to cyclic working sets that
slightly exceed the cache.

State is :class:`LRUPolicy`'s (``_recency``, one word per set whose
nibbles are the filled ways newest first, then the others, and the
``_present`` bitmasks), except only :meth:`touch_fill` moves a way to
the front — behaviourally identical to the seed's fill-timestamp lists
(never-filled ways oldest, ties toward lower way).

Hardware equivalent: one ``log2(A)``-bit insertion pointer per set (the
classical round-robin implementation).  The order representation used here
behaves identically while also supporting victim-from-subset, which the
per-set pointer cannot express directly; ``state_bits_per_set`` reports the
hardware pointer cost.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.replacement.base import register_policy
from repro.cache.replacement.lru import LRUPolicy
from repro.util.bitops import bit_length_exact


@register_policy("fifo")
class FIFOPolicy(LRUPolicy):
    """Oldest-fill-first replacement; hits never reorder."""

    def touch(self, set_index: int, way: int, core: int,
              reset_domain: Optional[int] = None) -> None:
        """Hits leave the FIFO order untouched."""

    def touch_fill(self, set_index: int, way: int, core: int,
                   reset_domain: Optional[int] = None) -> None:
        LRUPolicy.touch(self, set_index, way, core, reset_domain)

    # ------------------------------------------------------------------
    def fill_order(self, set_index: int) -> List[int]:
        """Ways ordered newest fill first (ties: lower way first)."""
        return self.stack_order(set_index)

    def stack_position(self, set_index: int, way: int) -> int:
        raise NotImplementedError("FIFO has no stack property")

    def state_bits_per_set(self) -> int:
        """``log2(A)`` bits: the per-set round-robin insertion pointer."""
        return bit_length_exact(self.assoc)
