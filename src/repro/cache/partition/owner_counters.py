"""Per-set owner counters — the paper's ``C`` enforcement (§II-B item 1).

Every line carries ``log2(N)`` *owner core* bits; every set has ``N``
counters of ``log2(A)`` bits counting the lines each core owns in that set.
On a miss by core ``c``:

* if ``c`` owns fewer lines in the set than its quota, the victim is the LRU
  line among the lines **not** owned by ``c`` (growing its share);
* otherwise the victim is the LRU line among ``c``'s **own** lines.

State follows the array-core layout: a flat ``_owner`` array indexed
``set * assoc + way`` (the per-line owner-core bits) and a flat ``_owned``
array indexed ``set * num_cores + core`` (the per-set per-core owned-way
bitmasks the counters derive from).

Storage cost: ``A × log2(N) + N × log2(A)`` bits per set (Table I(a)
footnote), the most expensive of the three schemes — which is why the paper
adopts global masks for all pseudo-LRU configurations after showing masks
cost < 0.5 % performance (§V-B).
"""

from __future__ import annotations

from array import array

from repro.cache.partition.allocation import WayAllocation
from repro.cache.partition.base import PartitionScheme
from repro.util.bitops import bit_length_exact


class OwnerCountersPartition(PartitionScheme):
    """Quota enforcement via per-set per-core owned-line counters."""

    name = "counters"

    def __init__(self, num_cores: int, num_sets: int, assoc: int) -> None:
        super().__init__(num_cores, num_sets, assoc)
        # Quotas default to "no constraint" until the first apply().
        self._quota = array("q", [assoc]) * num_cores
        # owner[s*assoc+w]: core that filled the line, -1 when invalid/unowned.
        self._owner = array("q", [-1]) * (num_sets * assoc)
        # owned[s*num_cores+c]: bitmask of ways owned by core c in set s.
        self._owned = array("q", [0]) * (num_sets * num_cores)

    # ------------------------------------------------------------------
    def apply(self, allocation) -> None:
        if not isinstance(allocation, WayAllocation):
            raise TypeError(
                f"counters enforcement needs a WayAllocation, got {type(allocation).__name__}"
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
        self._quota[:] = array("q", allocation.counts)

    def candidate_mask(self, set_index: int, core: int) -> int:
        owned = self._owned[set_index * self.num_cores + core]
        if owned.bit_count() < self._quota[core]:
            # Below quota: evict a foreign (or invalid) line if any exists.
            foreign = self.full_mask & ~owned
            return foreign if foreign else owned
        # At/above quota: recycle one of the core's own lines.
        return owned if owned else self.full_mask

    def on_fill(self, set_index: int, way: int, core: int) -> None:
        previous = self._owner[set_index * self.assoc + way]
        if previous == core:
            return
        bit = 1 << way
        row = set_index * self.num_cores
        if previous >= 0:
            self._owned[row + previous] &= ~bit
        self._owner[set_index * self.assoc + way] = core
        self._owned[row + core] |= bit

    def on_invalidate(self, set_index: int, way: int) -> None:
        previous = self._owner[set_index * self.assoc + way]
        if previous >= 0:
            self._owned[set_index * self.num_cores + previous] &= ~(1 << way)
            self._owner[set_index * self.assoc + way] = -1

    def on_flush(self) -> None:
        """A flushed cache owns nothing: clear every owner and counter.

        Quotas (the enforced allocation) survive — only the per-line
        ownership mirror of the now-empty tag store is discarded.  Mutates
        in place (the arrays may be bound by access kernels).
        """
        self._owner[:] = array("q", [-1]) * len(self._owner)
        self._owned[:] = array("q", [0]) * len(self._owned)

    # ------------------------------------------------------------------
    def owned_count(self, set_index: int, core: int) -> int:
        """Number of lines ``core`` owns in ``set_index``."""
        return self._owned[set_index * self.num_cores + core].bit_count()

    def owner_of(self, set_index: int, way: int) -> int:
        """Owning core of a way (-1 when unowned)."""
        return self._owner[set_index * self.assoc + way]

    def quota(self, core: int) -> int:
        """Current way quota of ``core``."""
        return self._quota[core]

    def storage_bits(self) -> int:
        """``(A·log2(N) + N·log2(A)) × num_sets`` bits (Table I(a))."""
        per_set = (self.assoc * bit_length_exact(self.num_cores)
                   + self.num_cores * bit_length_exact(self.assoc))
        return per_set * self.num_sets
