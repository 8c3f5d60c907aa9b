"""Insertion-controlled LRU variants: LIP, BIP and set-dueling DIP.

Qureshi et al. (ISCA 2007, and the paper's reference [20] for the
set-dueling monitor) observed that LRU's weakness is *insertion*, not
eviction: thrashing working sets stream through the MRU position without
ever being re-referenced.  Three variants, all built on the exact-LRU
recency order:

* **LIP** (LRU Insertion Policy) — fills insert at the *LRU* position, so a
  line must earn a hit before it displaces anything useful.
* **BIP** (Bimodal Insertion Policy) — LIP, except a 1/32 trickle of fills
  inserts at MRU, letting a slowly-rotating fraction of a thrashing working
  set become resident.
* **DIP** (Dynamic Insertion Policy) — *set dueling*: a handful of leader
  sets permanently run classic LRU insertion, another handful run BIP, and
  a single saturating ``PSEL`` counter tallies which leader group misses
  less; follower sets adopt the winner.  The monitor costs tens of bits —
  this is the "dozens of bytes" monitoring alternative the paper cites when
  arguing the ATD is no longer the CPA bottleneck.

LRU-position insertions live in a per-set *below* block
(``_below``/``_below_size``/``_below_mask``, flat ``set * assoc + slot``
segments like :class:`LRUPolicy`'s order, but plain lists with an
explicit size: these policies run on the generic object path only, and
no kernel binds the block): ways below the recency order,
ordered so the **newest** insertion is the next victim — the exact
behaviour of the seed implementation's strictly-decreasing stamp floor
(each LRU-insertion took a stamp below every valid line and below all
previous LRU-insertions).  The full victim
priority is therefore: below block (newest first) -> never-touched ways
(lowest index) -> recency order (LRU end).  Pinned against the seed stamp
implementation by ``tests/test_cache/test_flat_equivalence.py``.

All three inherit exact-LRU victim selection (works with victim-from-subset
and therefore with every partition-enforcement scheme) and exact stack
positions for profiling — only the fill path differs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.replacement.base import register_policy
from repro.cache.replacement.lru import LRUPolicy
from repro.util.rng import make_rng

#: BIP inserts at MRU once every ``BIP_THROTTLE`` fills on average.
BIP_THROTTLE = 32

#: Width of the DIP policy-selection counter (Qureshi et al. use 10 bits).
PSEL_BITS = 10


@register_policy("lip")
class LIPPolicy(LRUPolicy):
    """LRU with fills inserted at the LRU position."""

    kernel_kind = ""    # generic object-protocol path

    def __init__(self, num_sets: int, assoc: int, rng=None) -> None:
        super().__init__(num_sets, assoc, rng=rng)
        self._below: List[int] = [0] * (num_sets * assoc)
        self._below_size: List[int] = [0] * num_sets
        self._below_mask: List[int] = [0] * num_sets

    def _insert_lru(self, set_index: int, way: int) -> None:
        """(Re-)insert ``way`` below everything, newest insertion deepest."""
        below = self._below
        base = set_index * self.assoc
        sz = self._below_size[set_index]
        if (self._below_mask[set_index] >> way) & 1:
            if sz and below[base + sz - 1] == way:
                return          # already the newest insertion (the common
                                # refill-the-victim case): nothing moves
            self._remove_from_below(set_index, way)
            sz -= 1
        elif (self._present[set_index] >> way) & 1:
            self._remove_from_order(set_index, way)
        below[base + sz] = way
        self._below_size[set_index] = sz + 1
        self._below_mask[set_index] |= 1 << way

    def _remove_from_below(self, set_index: int, way: int) -> None:
        below = self._below
        base = set_index * self.assoc
        sz = self._below_size[set_index]
        pos = below.index(way, base, base + sz)
        below[pos:base + sz - 1] = below[pos + 1:base + sz]
        self._below_size[set_index] = sz - 1
        self._below_mask[set_index] &= ~(1 << way)

    # ------------------------------------------------------------------
    def touch(self, set_index: int, way: int, core: int,
              reset_domain: Optional[int] = None) -> None:
        if (self._below_mask[set_index] >> way) & 1:
            self._remove_from_below(set_index, way)
        super().touch(set_index, way, core, reset_domain)

    def touch_fill(self, set_index: int, way: int, core: int,
                   reset_domain: Optional[int] = None) -> None:
        self._insert_lru(set_index, way)

    def victim(self, set_index: int, core: int, mask: int) -> int:
        if mask == 0:
            raise ValueError("victim mask must be nonzero")
        bmask = self._below_mask[set_index]
        if bmask & mask:
            # Newest LRU-insertion first (deepest below the stack).
            below = self._below
            base = set_index * self.assoc
            i = base + self._below_size[set_index] - 1
            way = below[i]
            while not (mask >> way) & 1:
                i -= 1
                way = below[i]
            return way
        untouched = mask & ~self._present[set_index] & ~bmask
        if untouched:
            return (untouched & -untouched).bit_length() - 1
        return super().victim(set_index, core, mask)

    def invalidate(self, set_index: int, way: int) -> None:
        if (self._below_mask[set_index] >> way) & 1:
            self._remove_from_below(set_index, way)
        else:
            super().invalidate(set_index, way)

    def reset(self) -> None:
        super().reset()
        for s in range(self.num_sets):
            self._below_size[s] = 0
            self._below_mask[s] = 0

    # ------------------------------------------------------------------
    def stack_position(self, set_index: int, way: int) -> int:
        """Stack position with the below block deepest (newest last)."""
        self._check_way(way)
        if (self._below_mask[set_index] >> way) & 1:
            base = set_index * self.assoc
            sz = self._below_size[set_index]
            idx = self._below.index(way, base, base + sz) - base
            return self.assoc - sz + idx + 1
        return super().stack_position(set_index, way)

    def stack_order(self, set_index: int) -> List[int]:
        base = set_index * self.assoc
        present = self._present[set_index]
        touched = self._order[base:base + present.bit_count()].tolist()
        bmask = self._below_mask[set_index]
        untouched = [w for w in range(self.assoc)
                     if not ((present | bmask) >> w) & 1]
        below = self._below[base:base + self._below_size[set_index]]
        return touched + untouched + below


@register_policy("bip")
class BIPPolicy(LIPPolicy):
    """Bimodal insertion: mostly LIP, 1/32 of fills at MRU."""

    kernel_kind = ""

    def __init__(self, num_sets: int, assoc: int, rng=None,
                 throttle: int = BIP_THROTTLE) -> None:
        super().__init__(num_sets, assoc, rng=rng)
        if throttle < 1:
            raise ValueError(f"throttle must be >= 1, got {throttle}")
        self.throttle = throttle
        if self.rng is None:
            self.rng = make_rng(0, "bip")

    def touch_fill(self, set_index: int, way: int, core: int,
                   reset_domain: Optional[int] = None) -> None:
        if self.rng.random() < 1.0 / self.throttle:
            self.touch(set_index, way, core, reset_domain)   # MRU insertion
        else:
            self._insert_lru(set_index, way)


@register_policy("dip")
class DIPPolicy(BIPPolicy):
    """Set-dueling DIP: leader sets arbitrate LRU- vs BIP-insertion.

    Parameters
    ----------
    leader_stride:
        One LRU-leader and one BIP-leader per ``leader_stride`` consecutive
        sets (32 in the original paper).  Automatically reduced for tiny
        caches so both leader groups are non-empty.
    """

    kernel_kind = ""

    def __init__(self, num_sets: int, assoc: int, rng=None,
                 throttle: int = BIP_THROTTLE,
                 leader_stride: int = 32) -> None:
        super().__init__(num_sets, assoc, rng=rng, throttle=throttle)
        if leader_stride < 2:
            raise ValueError(f"leader_stride must be >= 2, got {leader_stride}")
        if num_sets < 2:
            raise ValueError("DIP set dueling needs at least 2 sets")
        self.leader_stride = min(leader_stride, num_sets)
        self.psel_max = (1 << PSEL_BITS) - 1
        self.psel = (self.psel_max + 1) // 2
        # Leader-set roles: +1 LRU leader, -1 BIP leader, 0 follower.
        stride = self.leader_stride
        self._role: List[int] = [0] * num_sets
        for s in range(num_sets):
            offset = s % stride
            if offset == 0:
                self._role[s] = 1
            elif offset == stride // 2:
                self._role[s] = -1

    # ------------------------------------------------------------------
    def touch_fill(self, set_index: int, way: int, core: int,
                   reset_domain: Optional[int] = None) -> None:
        # A fill *is* a miss in this set: leader fills steer PSEL.  The
        # BIP arm is inlined (identical decision/RNG sequence) to keep the
        # fill path one call deep — it runs on every L2 miss.
        role = self._role[set_index]
        if role > 0:                                  # LRU leader missed
            if self.psel < self.psel_max:
                self.psel += 1
            self.touch(set_index, way, core, reset_domain)
            return
        if role < 0:                                  # BIP leader missed
            if self.psel > 0:
                self.psel -= 1
        elif self.psel <= self.psel_max // 2:         # followers on LRU
            self.touch(set_index, way, core, reset_domain)
            return
        if self.rng.random() < 1.0 / self.throttle:
            self.touch(set_index, way, core, reset_domain)   # MRU insertion
        else:
            self._insert_lru(set_index, way)

    @property
    def bip_selected(self) -> bool:
        """True when followers currently use BIP insertion (PSEL MSB set)."""
        return self.psel > self.psel_max // 2

    def set_role(self, set_index: int) -> int:
        """Dueling role of a set: +1 LRU leader, -1 BIP leader, 0 follower."""
        return self._role[set_index]

    def reset(self) -> None:
        super().reset()
        self.psel = (self.psel_max + 1) // 2

    def state_bits_per_set(self) -> int:
        """LRU bits per set; PSEL and roles are per cache (see monitor_bits)."""
        return super().state_bits_per_set()

    def monitor_bits(self) -> int:
        """Per-cache dueling cost: the PSEL counter (roles are wired)."""
        return PSEL_BITS
