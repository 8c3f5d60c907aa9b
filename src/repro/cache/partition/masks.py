"""Global replacement masks — the paper's ``M`` enforcement (§II-B item 2).

One ``A``-bit mask per core for the whole cache "specifies the ways that a
given core is allowed to search for a victim line".  On a miss the victim
search is ANDed with the mask; on a hit any way may be accessed.  For NRU
the mask also bounds the used-bit reset domain (§III-A enforcement logic).

Storage cost: ``A × N`` owner-mask bits per cache (Table I(a)).
"""

from __future__ import annotations

from array import array

from repro.cache.partition.allocation import WayAllocation
from repro.cache.partition.base import PartitionScheme


class MasksPartition(PartitionScheme):
    """Static per-core way masks, uniform across sets."""

    name = "masks"

    def __init__(self, num_cores: int, num_sets: int, assoc: int) -> None:
        super().__init__(num_cores, num_sets, assoc)
        # Before the first repartition every core may use every way.
        self._masks = array("q", [self.full_mask]) * num_cores

    def apply(self, allocation) -> None:
        if not isinstance(allocation, WayAllocation):
            raise TypeError(
                f"masks enforcement needs a WayAllocation, got {type(allocation).__name__}"
            )
        if allocation.num_cores != self.num_cores:
            raise ValueError(
                f"allocation has {allocation.num_cores} cores, scheme has {self.num_cores}"
            )
        if allocation.assoc != self.assoc:
            raise ValueError(
                f"allocation is for {allocation.assoc}-way, cache is {self.assoc}-way"
            )
        self._allocation = allocation
        self._masks[:] = array("q", allocation.masks)

    def candidate_mask(self, set_index: int, core: int) -> int:
        return self._masks[core]

    def reset_domain(self, core: int) -> int:
        # NRU used-bit resets are confined to the core's owned ways.
        return self._masks[core]

    def mask_of(self, core: int) -> int:
        """The current replacement mask of ``core``."""
        return self._masks[core]

    def storage_bits(self) -> int:
        """``A × N`` mask bits (Table I(a), "owner mask bits")."""
        return self.assoc * self.num_cores
