"""Shared scaffolding of the CMP execution engines.

Both engines (reference, batched) simulate the identical
machine: the same per-thread analytic core model, the same shared hierarchy
objects, the same interval controller.  This module owns everything that
must be *equal by construction* between them so the equivalence suites
compare engines, not setup code:

* the timing recurrence.  A thread's clock is ``anchor + count * base_cost``
  where ``anchor`` is the clock after its last L2-reaching access and
  ``count`` the L1 hits committed since.  Written this way, advancing one
  hit at a time (reference) and keying a thread's next L2 access by the
  whole gap of hits before it (batched) evaluate the *same*
  floating-point expression, so the engines
  agree bit for bit even for non-dyadic ``ipm``/``cpi`` values;
* the freeze rule.  Statistics freeze on the access where the committed
  instruction count ``count * ipm`` first reaches the budget; the crossing
  access index is precomputed as an integer (:func:`freeze_count`) so both
  engines freeze on exactly the same access;
* result assembly (:class:`ThreadResult` / :class:`EventCounts`).

The per-window L1-miss stream the batched engine walks is the private
L1's own bulk entry point
(:meth:`repro.cache.l1.SmallLRUCache.access_lines_hit`, the read-only
``prefilter`` rendering of :mod:`repro.cache.transitions`), called by
``BatchedEngine._load_chunk``;
the reference engine steps the same L1 one access at a time.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.cmp.memory import MemoryChannel
from repro.cmp.results import EventCounts, SimulationResult, ThreadResult
from repro.profiling.monitor import ProfilingSystem


def deferrable_profiling(sim) -> Optional[ProfilingSystem]:
    """The :class:`ProfilingSystem` behind the L2 observer, or ``None``.

    Deferred ATD drains only engage when the hierarchy's observer is the
    *stock* ``ProfilingSystem.observe`` of the simulator's own profiling
    system: its state is per-thread and read exclusively at controller
    boundaries and run end, which is what makes buffering exact.  A custom
    observer (tests, examples wiring their own callable) keeps immediate
    per-access calls — the engine cannot know when its state is read.
    """
    profiling = sim.profiling
    if profiling is None:
        return None
    observer = sim.hierarchy.l2_observer
    if observer is None:
        return None
    if getattr(observer, "__self__", None) is not profiling:
        return None
    if getattr(observer, "__func__", None) is not ProfilingSystem.observe:
        return None
    return profiling


def freeze_count(budget: float, ipm: float) -> int:
    """Smallest access count ``c >= 1`` with ``c * ipm >= budget`` (in
    float arithmetic, so the comparison matches the engines' freeze test).
    """
    c = int(math.ceil(budget / ipm))
    if c < 1:
        c = 1
    while c > 1 and (c - 1) * ipm >= budget:
        c -= 1
    while c * ipm < budget:
        c += 1
    return c


class EngineBase:
    """Configuration-derived state shared by the execution engines."""

    def __init__(self, sim) -> None:
        self.sim = sim
        processor = sim.processor
        simulation = sim.simulation
        traces = sim.traces
        n = len(traces)
        self.n = n
        self.base_cost: List[float] = [t.ipm * t.cpi_base for t in traces]
        self.ipms: List[float] = [t.ipm for t in traces]
        self.lengths: List[int] = [len(t) for t in traces]
        self.has_writes = any(t.writes is not None for t in traces)

        per_thread = simulation.per_thread_instructions
        if per_thread is not None:
            if len(per_thread) != n:
                raise ValueError(
                    f"per_thread_instructions has {len(per_thread)} entries "
                    f"for {n} threads"
                )
            budgets = [float(b) for b in per_thread]
        else:
            budgets = [
                float(min(simulation.instructions_per_thread, t.instructions))
                for t in traces
            ]
        self.freeze_counts: List[int] = [
            freeze_count(budget, trace.ipm)
            for budget, trace in zip(budgets, traces)
        ]

        self.l2_hit_pen = float(processor.l2_hit_penalty)
        self.mem_pen = float(processor.l2_hit_penalty + processor.memory_penalty)
        self.channel: Optional[MemoryChannel] = None
        if simulation.memory_service_interval > 0:
            self.channel = MemoryChannel(simulation.memory_service_interval,
                                         float(processor.memory_penalty))
        self.interval = float(sim.partitioning.interval_cycles)
        self.max_cycles = simulation.max_cycles

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the simulation until every thread's statistics freeze.

        Engines must produce *identical* :class:`SimulationResult` values
        for identical inputs — the contract the equivalence suite pins.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _assemble(self, frozen: Sequence[Optional[ThreadResult]],
                  l1_accesses: int, l1_writebacks: int,
                  memory_writebacks: int) -> SimulationResult:
        """Build the :class:`SimulationResult` from engine-side counters."""
        sim = self.sim
        l2_stats = sim.hierarchy.l2.stats
        atd_accesses = 0
        if sim.profiling is not None:
            atd_accesses = sum(
                m.atd.sampled_accesses for m in sim.profiling.monitors
            )
        controller = sim.controller
        events = EventCounts(
            l1_accesses=l1_accesses,
            l2_accesses=l2_stats.total_accesses,
            l2_hits=l2_stats.total_hits,
            l2_misses=l2_stats.total_misses,
            atd_accesses=atd_accesses,
            repartitions=controller.repartitions if controller else 0,
            wall_cycles=max(r.cycles for r in frozen if r is not None),
            l1_writebacks=l1_writebacks,
            memory_writebacks=memory_writebacks,
            memory_queue_cycles=self.channel.queue_cycles if self.channel else 0.0,
        )
        history = list(controller.history) if controller is not None else []
        return SimulationResult(
            acronym=sim.partitioning.acronym,
            threads=[r for r in frozen if r is not None],
            events=events,
            partition_history=history,
        )
