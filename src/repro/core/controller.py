"""Dynamic partitioning interval controller (paper §II-B).

"Dynamic CPAs divide the execution of the workload into time intervals and
at each interval boundary, the CPA tries to optimize a given target metric
by assigning a new cache partition."

At every boundary (1 M cycles in the paper) the controller:

1. reads each thread's (e)SDH miss curve,
2. runs the configured selector (MinMisses DP, lookahead, fairness, static
   even — and the subcube DP when the enforcement is BT vectors),
3. programs the enforcement scheme with the new allocation,
4. halves every SDH register (saturation control, §II-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.partition.allocation import (
    SubcubeAllocation,
    WayAllocation,
    even_allocation,
)
from repro.cache.partition.base import PartitionScheme
from repro.cache.partition.btvectors import BTVectorPartition
from repro.core.buddy import best_subcube_allocation
from repro.core.fairness import fair_partition
from repro.core.lookahead import lookahead_partition
from repro.core.minmisses import minmisses_partition
from repro.profiling.monitor import ProfilingSystem


@dataclass(frozen=True)
class PartitionRecord:
    """One repartitioning decision (for analysis and tests)."""

    cycle: int
    counts: Tuple[int, ...]
    predicted_misses: float


def select_allocation(curves: np.ndarray, assoc: int, selector: str,
                      min_ways: int = 1, subcube: bool = False,
                      static_counts: Optional[Tuple[int, ...]] = None):
    """Run one selector over the given miss curves.

    Returns a :class:`WayAllocation` or, when ``subcube`` is set (BT
    enforcement), a :class:`SubcubeAllocation`.
    """
    if subcube:
        if selector not in ("minmisses", "even"):
            raise ValueError(
                f"subcube enforcement supports the 'minmisses' and 'even' "
                f"selectors, got {selector!r}"
            )
        if selector == "even":
            # Even == subcube DP over flat curves.
            flat = np.zeros_like(np.asarray(curves, dtype=np.float64))
            return best_subcube_allocation(flat, assoc)
        return best_subcube_allocation(curves, assoc)
    threads = np.asarray(curves).shape[0]
    if selector == "minmisses":
        counts = minmisses_partition(curves, assoc, min_ways=min_ways)
    elif selector == "lookahead":
        counts = lookahead_partition(curves, assoc, min_ways=min_ways)
    elif selector == "fair":
        counts = fair_partition(curves, assoc, min_ways=min_ways)
    elif selector == "even":
        return even_allocation(threads, assoc)
    elif selector == "static":
        if static_counts is None:
            raise ValueError("selector='static' needs static_counts")
        if len(static_counts) != threads:
            raise ValueError(
                f"{len(static_counts)} static counts for {threads} threads"
            )
        counts = tuple(int(c) for c in static_counts)
    else:
        raise ValueError(f"unknown selector {selector!r}")
    return WayAllocation.from_counts(counts, assoc)


class PartitionController:
    """Interval-boundary glue between profiling and enforcement."""

    def __init__(self, profiling: ProfilingSystem, scheme: PartitionScheme,
                 assoc: int, selector: str = "minmisses", min_ways: int = 1,
                 static_counts: Optional[Tuple[int, ...]] = None) -> None:
        """Wire a profiling system to an enforcement scheme.

        ``selector`` names the partition-selection block (``minmisses`` /
        ``lookahead`` / ``fair`` / ``even`` / ``static``); BT-vector
        enforcement automatically switches to the subcube DP.  Every
        boundary appends a :class:`PartitionRecord` to :attr:`history`
        (results, tests and examples read it); ``static_counts`` is
        required by — and only meaningful for — ``selector='static'``.
        An initial allocation (even split, or the static one) is
        installed immediately.
        """
        self.profiling = profiling
        self.scheme = scheme
        self.assoc = assoc
        self.selector = selector
        self.min_ways = min_ways
        self.static_counts = static_counts
        self.subcube = isinstance(scheme, BTVectorPartition)
        self.history: List[PartitionRecord] = []
        self.repartitions = 0
        self._install_initial()

    def _install_initial(self) -> None:
        """Start from an even split (or the fixed static allocation)."""
        threads = len(self.profiling)
        if self.selector == "static":
            allocation = select_allocation(
                np.zeros((threads, self.assoc + 1)), self.assoc, "static",
                static_counts=self.static_counts,
            )
            self.scheme.apply(allocation)
            return
        flat = np.zeros((threads, self.assoc + 1))
        allocation = select_allocation(
            flat, self.assoc, "minmisses" if self.subcube else "even",
            min_ways=self.min_ways, subcube=self.subcube,
        )
        self.scheme.apply(allocation)

    # ------------------------------------------------------------------
    def interval_boundary(self, cycle: int = 0) -> None:
        """Repartition from the current SDHs, then decay them."""
        curves = self.profiling.miss_curves()
        allocation = select_allocation(
            curves, self.assoc, self.selector,
            min_ways=self.min_ways, subcube=self.subcube,
            static_counts=self.static_counts,
        )
        self.scheme.apply(allocation)
        self.repartitions += 1
        counts = tuple(allocation.counts)
        predicted = float(sum(curves[t][w] for t, w in enumerate(counts)))
        self.history.append(PartitionRecord(cycle, counts, predicted))
        self.profiling.halve_all()

    @property
    def current_counts(self) -> Optional[Tuple[int, ...]]:
        """Ways per core currently enforced."""
        allocation = self.scheme.allocation
        return tuple(allocation.counts) if allocation is not None else None
