"""BT ``up``/``down`` force vectors — the paper's enforcement for BT (§III-B,
Figure 5).

Each core owns two global ``log2(A)``-bit vectors.  During the victim
traversal, a set ``up`` bit at a tree level overrides the stored BT bit with
"go to the upper sub-tree" and a set ``down`` bit with "go to the lower
sub-tree"; both clear leaves the BT bit in charge.  Both vectors can never be
1 at the same level (truth table of Figure 5).

Because the vectors force a *prefix* of levels, a core's reachable victim set
is always a subtree-aligned power-of-two group of ways — a
:class:`~repro.cache.partition.allocation.Subcube`.  The scheme installs the
per-level forced directions straight into the :class:`BTPolicy`, mirroring
how the hardware vectors override the traversal muxes.

Storage cost: ``2 × log2(A)`` bits per core for the whole cache
(Table I(a): "log2(A) up bits per core + log2(A) down bits per core"); no
per-line owner bits are needed (§III-C).
"""

from __future__ import annotations

from array import array

from repro.cache.partition.allocation import SubcubeAllocation
from repro.cache.partition.base import PartitionScheme
from repro.cache.replacement.bt import BTPolicy
from repro.util.bitops import bit_length_exact


class BTVectorPartition(PartitionScheme):
    """Subcube enforcement through per-core forced tree directions."""

    name = "btvectors"

    def __init__(self, num_cores: int, num_sets: int, assoc: int,
                 policy: BTPolicy) -> None:
        super().__init__(num_cores, num_sets, assoc)
        if not isinstance(policy, BTPolicy):
            raise TypeError(
                f"BTVectorPartition requires a BTPolicy, got {type(policy).__name__}"
            )
        if policy.num_sets != num_sets or policy.assoc != assoc:
            raise ValueError("policy dimensions do not match the partition scheme")
        self._policy = policy
        self._masks = array("q", [self.full_mask]) * num_cores

    def apply(self, allocation) -> None:
        if not isinstance(allocation, SubcubeAllocation):
            raise TypeError(
                "btvectors enforcement needs a SubcubeAllocation, got "
                f"{type(allocation).__name__}"
            )
        if allocation.num_cores != self.num_cores:
            raise ValueError(
                f"allocation has {allocation.num_cores} cores, scheme has {self.num_cores}"
            )
        if allocation.cubes[0].levels != self._policy.levels:
            raise ValueError(
                f"allocation is for 2^{allocation.cubes[0].levels}-way, "
                f"cache is {self.assoc}-way"
            )
        self._allocation = allocation
        for core, cube in enumerate(allocation.cubes):
            self._policy.set_force(core, cube.force_vector())
            self._masks[core] = cube.mask

    def candidate_mask(self, set_index: int, core: int) -> int:
        return self._masks[core]

    def on_flush(self) -> None:
        """Re-install the force vectors after a cache flush.

        ``SetAssociativeCache.flush`` resets the replacement policy, which
        clears the per-core forced directions along with the tree bits —
        but the vectors encode the enforced *allocation*, which must
        survive a flush.
        """
        if self._allocation is not None:
            for core, cube in enumerate(self._allocation.cubes):
                self._policy.set_force(core, cube.force_vector())

    def up_down_vectors(self, core: int):
        """The paper's ``(up, down)`` bit vectors for ``core``."""
        if self._allocation is None:
            return (0, 0)
        return self._allocation.cubes[core].up_down_vectors()

    def storage_bits(self) -> int:
        """``2 × log2(A) × N`` bits for the up/down vectors (Table I(a))."""
        return 2 * bit_length_exact(self.assoc) * self.num_cores
