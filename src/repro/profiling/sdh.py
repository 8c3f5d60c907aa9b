"""Stack Distance Histogram registers (paper §II-A, Figure 2).

For an ``A``-way cache the SDH keeps ``A + 1`` registers: ``r[1] .. r[A]``
count hits at each stack position (1 = MRU), ``r[A+1]`` counts ATD misses.
The *miss curve* derives from the registers by the stack property: a thread
owning ``w`` ways misses ``sum(r[w+1] .. r[A+1])`` times (Figure 2(c)).

At every interval boundary all registers are halved ("right bit shift in
each counter") so past behaviour decays while the ratio between stack
positions is preserved.

The register file is a flat ``array('q')`` (part of the array core: the
ATD observe kernels increment registers as locals-bound writes — a numpy
scalar ``+= 1`` costs several times more than an array store on this
path — and a compiled drain increments them in place, by address); the
read-side API hands out numpy copies for the selectors.
"""

from __future__ import annotations

from array import array

import numpy as np


class SDH:
    """SDH register file for one thread."""

    def __init__(self, assoc: int) -> None:
        """Allocate the ``A + 1`` registers of an ``assoc``-way cache."""
        if assoc <= 0:
            raise ValueError("assoc must be positive")
        self.assoc = assoc
        # Index 0 unused; 1..assoc are stack positions; assoc + 1 is misses.
        self._r = array("q", [0]) * (assoc + 2)

    # ------------------------------------------------------------------
    def record(self, distance: int) -> None:
        """Count one access at stack position ``distance`` (1..A)."""
        if not 1 <= distance <= self.assoc:
            raise ValueError(
                f"stack distance {distance} out of range 1..{self.assoc}"
            )
        self._r[distance] += 1

    def record_miss(self) -> None:
        """Count one ATD miss (position ``A + 1``)."""
        self._r[self.assoc + 1] += 1

    def record_range(self, distance: int) -> None:
        """Literal-reading eSDH update: increment ``r[1] .. r[distance]``.

        Implements the paper's sentence "we increase both SDH registers r1
        and r2, assuming the stack distance to be 2" read literally; see
        the eSDH-update ablation bench
        (``benchmarks/bench_ablation_scaling.py``).
        """
        if not 1 <= distance <= self.assoc:
            raise ValueError(
                f"stack distance {distance} out of range 1..{self.assoc}"
            )
        r = self._r
        for i in range(1, distance + 1):
            r[i] += 1

    def halve(self) -> None:
        """Interval-boundary decay: every register is right-shifted by one.

        In place — the observe kernels bind the register array.
        """
        r = self._r
        for i in range(len(r)):
            r[i] >>= 1

    def reset(self) -> None:
        """Zero every register (cold start, in place)."""
        r = self._r
        for i in range(len(r)):
            r[i] = 0

    # ------------------------------------------------------------------
    @property
    def registers(self) -> np.ndarray:
        """Copy of ``r[1] .. r[A+1]`` (length ``A + 1``)."""
        return np.array(self._r[1:], dtype=np.int64)

    def register(self, index: int) -> int:
        """Value of ``r[index]`` (1..A+1)."""
        if not 1 <= index <= self.assoc + 1:
            raise ValueError(f"register index {index} out of range")
        return self._r[index]

    @property
    def total(self) -> int:
        """Total recorded accesses (including misses)."""
        return sum(self._r)

    def misses_with_ways(self, ways: int) -> int:
        """Predicted misses when the thread owns ``ways`` ways (Fig. 2(c))."""
        if not 0 <= ways <= self.assoc:
            raise ValueError(f"ways {ways} out of range 0..{self.assoc}")
        return sum(self._r[ways + 1:])

    def hits_with_ways(self, ways: int) -> int:
        """Predicted hits when the thread owns ``ways`` ways."""
        return sum(self._r[1:ways + 1])

    def miss_curve(self) -> np.ndarray:
        """Predicted misses for every allocation ``w = 0 .. A``.

        ``curve[w] == misses_with_ways(w)``; non-increasing in ``w`` by
        construction (it is a suffix sum of non-negative registers).
        """
        r = np.array(self._r, dtype=np.int64)
        suffix = np.cumsum(r[::-1])[::-1]
        # suffix[i] = sum(r[i:]); curve[w] = sum(r[w+1:]) = suffix[w+1]
        return suffix[1:].copy()
