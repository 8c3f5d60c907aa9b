"""Cache-way allocation descriptions produced by partition selectors.

Two shapes exist because the enforcement hardware differs:

* :class:`WayAllocation` — an integer number of ways per core, realised as
  contiguous way masks.  Consumed by the owner-counter and global-mask
  schemes; any combination of counts summing to the associativity is
  expressible.
* :class:`SubcubeAllocation` — one :class:`Subcube` (subtree-aligned
  power-of-two group of ways) per core.  This is all the BT ``up``/``down``
  force vectors can express (each vector forces a prefix of tree levels), and
  is the mechanistic reason the BT partitioning is less flexible than the
  LRU/NRU ones (the paper's larger BT degradations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.util.bitops import contiguous_mask, ilog2, is_power_of_two


@dataclass(frozen=True)
class WayAllocation:
    """Ways-per-core allocation with derived contiguous masks."""

    counts: Tuple[int, ...]
    masks: Tuple[int, ...]
    assoc: int

    @classmethod
    def from_counts(cls, counts: Sequence[int], assoc: int) -> "WayAllocation":
        """Build an allocation from per-core way counts.

        Masks are laid out contiguously in core order: core 0 gets the lowest
        ways.  Counts must be positive and sum to the associativity.
        """
        counts = tuple(int(c) for c in counts)
        if any(c <= 0 for c in counts):
            raise ValueError(f"every core needs at least one way, got {counts}")
        if sum(counts) != assoc:
            raise ValueError(
                f"way counts {counts} must sum to associativity {assoc}"
            )
        masks = []
        start = 0
        for count in counts:
            masks.append(contiguous_mask(start, count))
            start += count
        return cls(counts=counts, masks=tuple(masks), assoc=assoc)

    @property
    def num_cores(self) -> int:
        """Number of cores the allocation partitions the ways across."""
        return len(self.counts)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "/".join(str(c) for c in self.counts)


@dataclass(frozen=True)
class Subcube:
    """A subtree-aligned group of ways in an ``A = 2**levels`` way set.

    ``prefix`` fixes the ``depth`` most significant way-index bits; the
    subcube contains the ``2**(levels - depth)`` ways sharing that prefix,
    which form a contiguous aligned range.
    """

    prefix: int
    depth: int
    levels: int

    def __post_init__(self) -> None:
        if not (0 <= self.depth <= self.levels):
            raise ValueError(f"depth {self.depth} out of range 0..{self.levels}")
        if not (0 <= self.prefix < (1 << self.depth)):
            raise ValueError(
                f"prefix {self.prefix} does not fit in {self.depth} bits"
            )

    @property
    def size(self) -> int:
        """Number of ways in the subcube."""
        return 1 << (self.levels - self.depth)

    @property
    def first_way(self) -> int:
        """Lowest way index of the subcube."""
        return self.prefix << (self.levels - self.depth)

    @property
    def mask(self) -> int:
        """Bitmask of member ways (contiguous, aligned)."""
        return contiguous_mask(self.first_way, self.size)

    def force_vector(self) -> Tuple[Optional[int], ...]:
        """Per-level forced directions for :meth:`BTPolicy.set_force`.

        The first ``depth`` levels are forced to the prefix bits (0 = upper
        sub-tree = the paper's ``up`` vector bit, 1 = lower = ``down``);
        deeper levels are free (both vectors 0).
        """
        forced = [
            (self.prefix >> (self.depth - 1 - level)) & 1
            for level in range(self.depth)
        ]
        free: list = [None] * (self.levels - self.depth)
        return tuple(forced + free)

    def up_down_vectors(self) -> Tuple[int, int]:
        """The paper's ``up``/``down`` bit vectors (MSB = root level)."""
        up = down = 0
        for level, direction in enumerate(self.force_vector()):
            bit = 1 << (self.levels - 1 - level)
            if direction == 0:
                up |= bit
            elif direction == 1:
                down |= bit
        return up, down

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"ways[{self.first_way}:{self.first_way + self.size}]"


@dataclass(frozen=True)
class SubcubeAllocation:
    """One disjoint subcube per core, jointly covering all ways."""

    cubes: Tuple[Subcube, ...]

    def __post_init__(self) -> None:
        if not self.cubes:
            raise ValueError("allocation needs at least one subcube")
        levels = self.cubes[0].levels
        if any(c.levels != levels for c in self.cubes):
            raise ValueError("all subcubes must describe the same associativity")
        union = 0
        for cube in self.cubes:
            if union & cube.mask:
                raise ValueError(f"subcubes overlap: {self.cubes}")
            union |= cube.mask
        if union != (1 << (1 << levels)) - 1:
            raise ValueError(
                f"subcubes {self.cubes} do not cover all {1 << levels} ways"
            )

    @property
    def counts(self) -> Tuple[int, ...]:
        """Ways per core (always powers of two)."""
        return tuple(cube.size for cube in self.cubes)

    @property
    def num_cores(self) -> int:
        """Number of cores the subcubes are assigned to."""
        return len(self.cubes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "/".join(str(c.size) for c in self.cubes)


def even_allocation(num_cores: int, assoc: int) -> WayAllocation:
    """Near-even static split: ``assoc // num_cores`` ways each, remainder to
    the first cores.  Used as the initial allocation and as an ablation
    baseline."""
    if num_cores <= 0:
        raise ValueError("num_cores must be positive")
    if assoc < num_cores:
        raise ValueError(
            f"cannot give {num_cores} cores at least one of {assoc} ways"
        )
    base, extra = divmod(assoc, num_cores)
    counts = [base + (1 if i < extra else 0) for i in range(num_cores)]
    return WayAllocation.from_counts(counts, assoc)


def even_subcube_allocation(num_cores: int, assoc: int) -> SubcubeAllocation:
    """Near-even subcube split for BT caches.

    With ``2**k`` the smallest power of two >= ``num_cores``: the first
    ``num_cores - 1`` cores get one depth-``k`` subcube each and the last
    core gets the remaining range as a single wider aligned cube.  When that
    remainder is not a single aligned cube (e.g. 6 cores on 16 ways), no
    one-subcube-per-core even split exists and a ``ValueError`` is raised —
    the selector DP (:func:`repro.core.buddy.best_subcube_allocation`) covers
    those shapes.
    """
    if num_cores <= 0:
        raise ValueError("num_cores must be positive")
    if not is_power_of_two(assoc):
        raise ValueError(f"assoc must be a power of two, got {assoc}")
    levels = ilog2(assoc)
    if assoc < num_cores:
        raise ValueError(
            f"cannot give {num_cores} cores at least one of {assoc} ways"
        )
    depth = 0
    while (1 << depth) < num_cores:
        depth += 1
    if is_power_of_two(num_cores):
        cubes = [Subcube(i, depth, levels) for i in range(num_cores)]
        return SubcubeAllocation(tuple(cubes))
    leaves = 1 << depth
    start = num_cores - 1
    length = leaves - start
    if not is_power_of_two(length) or start % length:
        raise ValueError(
            f"no single-subcube even split for {num_cores} cores and "
            f"{assoc} ways; use the selector DP instead"
        )
    cubes = [Subcube(i, depth, levels) for i in range(num_cores - 1)]
    cubes.append(Subcube(start // length, depth - ilog2(length), levels))
    return SubcubeAllocation(tuple(cubes))
