"""Reference execution engine: one access per scheduler event.

The oracle.  Every memory reference is routed through the full hierarchy
(:meth:`CacheHierarchy.access_line`) as its own scheduler event, like the
seed simulator's hot loop.  Three things changed relative to the seed:

* a binary heap of ``(clock, thread)`` pairs (:mod:`heapq`) replaces
  the min-scan.  The scan kept the *first* thread among equal minimum
  clocks (strict ``<``), so ties broke toward the lowest thread index;
  the heap's tuple order pops the lowest thread index among equal
  clocks too — the identical total order, so no pair of events is
  reordered;
* the interval-boundary check catches up with a ``while`` (a clock jump
  across several boundaries — large ``base_cost`` or a memory-queue
  delay — used to fire only one repartition and silently skip the rest);
* the timing/freeze arithmetic is restructured so hit-streak batching can
  reproduce it exactly: the clock is ``anchor + count * base`` instead of
  incremental ``now + base``, and budgets freeze on a precomputed integer
  access count instead of accumulating ``+= ipm``.  For dyadic
  ``ipm``/``cpi`` (the unit tests' parameters) this is bit-equal to the
  seed loop.  For non-dyadic parameters — which includes every catalog
  benchmark — the rounding differs, the freeze can land one access away,
  and ulp-different clocks can reorder ties, so experiment outputs are
  *not* comparable to pre-engine runs at the same seed; regenerate any
  recorded figures.  Within this PR's two engines this shared recurrence
  is what makes bit-identity hold.

The batched engine must reproduce this loop's results bit for bit; the
equivalence suite (``tests/test_cmp/test_engine_equivalence.py``) runs both
on the same workloads and compares every field.  This loop binds no
rendering of :mod:`repro.cache.transitions`: the L2's ``access_line_hit``
and each ATD's ``observe`` step the policy, scheme and profiler classes,
so the comparison is against an oracle that shares no transition body
with the batched engine.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional

from repro.cmp.engine.common import EngineBase
from repro.cmp.results import SimulationResult, ThreadResult


class ReferenceEngine(EngineBase):
    """Per-access oracle loop."""

    name = "reference"

    def run(self) -> SimulationResult:
        """Step one memory reference per scheduler pop until all freeze."""
        sim = self.sim
        n = self.n
        traces = sim.traces
        lines_per_thread = [t.lines.tolist() for t in traces]
        writes_per_thread = [
            t.writes.tolist() if t.writes is not None else [False] * len(t)
            for t in traces
        ] if self.has_writes else None
        lengths = self.lengths
        base = self.base_cost
        freeze_counts = self.freeze_counts
        l2_hit_pen = self.l2_hit_pen
        mem_pen = self.mem_pen
        channel = self.channel
        max_cycles = self.max_cycles

        controller = sim.controller
        interval = self.interval
        next_boundary = interval
        # The hierarchy routing is inlined — per-thread L1 probes, the L2
        # observer and the L2's ``access_line_hit`` are locals-bound,
        # replacing the per-access ``hierarchy.access_line`` attribute
        # chase.  Every one of them steps the classes: no rendering of the
        # transition spec runs here.
        hierarchy = sim.hierarchy
        l1_hit = [l1.access_line_hit for l1 in hierarchy.l1]
        l2_hit = hierarchy.l2.access_line_hit
        observer = hierarchy.l2_observer
        access_rw = hierarchy.access_line_rw
        l1_caches = hierarchy.l1
        l2_stats = hierarchy.l2.stats

        anchor = [0.0] * n
        count = [0] * n
        acc_total = [0] * n
        positions = [0] * n
        frozen: List[Optional[ThreadResult]] = [None] * n
        active = n

        # Sorted, so already a heap.
        events = [(0.0, t) for t in range(n)]

        while active:
            now, t = heappop(events)
            if controller is not None:
                # Catch up on *every* interval the clock jumped across.
                while now >= next_boundary:
                    controller.interval_boundary(cycle=int(next_boundary))
                    next_boundary += interval
            pos = positions[t]
            line = lines_per_thread[t][pos]
            positions[t] = pos + 1 if pos + 1 < lengths[t] else 0
            if writes_per_thread is None:
                # Inline CacheHierarchy.access_line (levels 0/1/2).
                if l1_hit[t](line, 0):
                    level = 0
                else:
                    if observer is not None:
                        observer(t, line)
                    level = 1 if l2_hit(line, t) else 2
            else:
                level = access_rw(t, line, writes_per_thread[t][pos])
            if level == 0:
                c = count[t] + 1
                count[t] = c
                clock = anchor[t] + c * base[t]
            else:
                if level == 1:
                    clock = now + base[t] + l2_hit_pen
                elif channel is not None:
                    # Bandwidth-limited memory: the miss issues after the L2
                    # lookup and may queue behind earlier misses.
                    clock = channel.request(now + l2_hit_pen) + base[t]
                else:
                    clock = now + base[t] + mem_pen
                anchor[t] = clock
                count[t] = 0
            a = acc_total[t] + 1
            acc_total[t] = a
            if frozen[t] is None and a >= freeze_counts[t]:
                l1s = l1_caches[t].stats
                frozen[t] = ThreadResult(
                    name=traces[t].name,
                    instructions=freeze_counts[t] * self.ipms[t],
                    cycles=clock,
                    l1_accesses=l1s.accesses[0],
                    l1_misses=l1s.misses[0],
                    l2_accesses=l2_stats.accesses[t],
                    l2_misses=l2_stats.misses[t],
                )
                active -= 1
            if max_cycles is not None and now > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded max_cycles={max_cycles} with "
                    f"{active} threads still running"
                )
            if active:
                heappush(events, (clock, t))

        hierarchy = sim.hierarchy
        return self._assemble(
            frozen,
            l1_accesses=sum(c.stats.total_accesses for c in l1_caches),
            l1_writebacks=(hierarchy.writebacks_l1_to_l2
                           + hierarchy.writebacks_l1_to_mem),
            memory_writebacks=hierarchy.l2_writebacks_to_memory,
        )
