"""Two-level cache hierarchy: private L1 data caches over a shared L2.

Mirrors the paper's baseline (Figure 1): each core owns a private L1 (LRU,
2-way in the baseline) and all cores share the unified L2.  The hierarchy is
*non-inclusive*: an L2 eviction does not back-invalidate L1 copies.  The
paper's traces are read streams (the partitioning study is insensitive to
write handling), which :meth:`CacheHierarchy.access_line` serves.  A trace
with a write overlay (:mod:`repro.workloads.writes`) goes through
:meth:`CacheHierarchy.access_line_rw` instead, which models write-back
traffic: dirty L1 evictions into the L2 or past it to memory, and dirty L2
evictions, counted but charged no thread latency.

:meth:`CacheHierarchy.access` returns the access *level* — ``L1``, ``L2`` or
``MEM`` — from which the timing model derives the cycle penalty, and invokes
the registered L2 observer (the profiling monitor) for every access that
reaches the L2, which is exactly the stream the paper's ATDs sample.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Callable, List, Optional, Union

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import SmallLRUCache
from repro.cache.partition.base import PartitionScheme
from repro.cache.replacement.base import ReplacementPolicy, make_policy


class HierarchyAccess(IntEnum):
    """Deepest level an access had to travel to."""

    L1 = 0
    L2 = 1
    MEM = 2


class CacheHierarchy:
    """Private per-core L1 data caches in front of one shared L2."""

    def __init__(self, num_cores: int,
                 l1_geometry: CacheGeometry,
                 l2_geometry: CacheGeometry,
                 l2_policy: Union[str, ReplacementPolicy] = "lru",
                 l2_partition: Optional[PartitionScheme] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        if l1_geometry.line_bytes != l2_geometry.line_bytes:
            raise ValueError("L1 and L2 must share a line size")
        self.num_cores = num_cores
        # Private L1s are LRU (paper Table II); the specialised SmallLRUCache
        # keeps the hottest path cheap.
        self.l1: List[SmallLRUCache] = [
            SmallLRUCache(l1_geometry, name=f"l1d{core}")
            for core in range(num_cores)
        ]
        if isinstance(l2_policy, str):
            l2_policy = make_policy(l2_policy, l2_geometry.num_sets,
                                    l2_geometry.assoc, rng=rng)
        self.l2 = SetAssociativeCache(l2_geometry, l2_policy,
                                      partition=l2_partition,
                                      num_cores=num_cores, name="l2")
        #: Called as ``observer(core, line)`` for every L2 access — the ATD
        #: is accessed in parallel with the L2 (paper §II-A).  Only demand
        #: accesses are observed; write-back drains are not profiled.
        self.l2_observer: Optional[Callable[[int, int], None]] = None
        #: Write-back traffic counters (populated by :meth:`access_line_rw`).
        self.writebacks_l1_to_l2 = 0
        self.writebacks_l1_to_mem = 0

    def access_line(self, core: int, line: int) -> HierarchyAccess:
        """Route one line access through the hierarchy for ``core``."""
        if self.l1[core].access_line_hit(line, 0):
            return HierarchyAccess.L1
        observer = self.l2_observer
        if observer is not None:
            observer(core, line)
        if self.l2.access_line_hit(line, core):
            return HierarchyAccess.L2
        return HierarchyAccess.MEM

    def access_line_rw(self, core: int, line: int,
                       write: bool = False) -> HierarchyAccess:
        """Read/write access with write-back traffic modelling.

        Both levels are write-back with write-allocate.  An L1 dirty
        eviction writes back into the L2 (marking the L2 copy dirty without
        a recency update); if the non-inclusive L2 no longer holds the line
        the writeback bypasses to memory.  L2 dirty evictions are counted
        by the L2's own statistics.  Writebacks are assumed buffered — they
        cost energy, not thread latency (DESIGN.md §extensions).
        """
        hit, dirty_victim = self.l1[core].access_line_rw(line, write)
        if dirty_victim is not None:
            if self.l2.write_back_line(dirty_victim, core):
                self.writebacks_l1_to_l2 += 1
            else:
                self.writebacks_l1_to_mem += 1
        if hit:
            return HierarchyAccess.L1
        observer = self.l2_observer
        if observer is not None:
            observer(core, line)
        # Demand fill installs the line clean in L2 — with write-allocate
        # the dirty data lives in the L1 until its eviction writes it back.
        if self.l2.access_line_rw(line, core, False):
            return HierarchyAccess.L2
        return HierarchyAccess.MEM

    @property
    def l2_writebacks_to_memory(self) -> int:
        """Dirty L2 evictions plus L1 writebacks that bypassed the L2."""
        return self.l2.stats.total_writebacks + self.writebacks_l1_to_mem

    def flush(self) -> None:
        """Cold-start every level (statistics are kept)."""
        for l1 in self.l1:
            l1.flush()
        self.l2.flush()
