"""Trace-driven CMP simulator with an analytic core timing model.

Substitutes the paper's cycle-accurate Turandot/PTCMP substrate.  Every
thread carries its own clock; the execution engine
always steps the thread with the smallest clock, so shared-L2 accesses
interleave in global-time order and contention is modelled faithfully at
the cache level.

Timing model per memory access of thread ``t``::

    cycles += ipm_t * cpi_base_t            (core work between accesses)
            + 0                              if the access hits the L1
            + l2_hit_penalty (11)            if it hits the shared L2
            + l2_hit_penalty + memory_penalty (11 + 250)  on an L2 miss

All penalties are the paper's Table II values.  Statistics freeze per thread
once it commits its instruction budget; the thread keeps executing (trace
wrap-around) so the others still see its contention — the standard
multiprogrammed methodology behind "we stop the simulation when each of the
threads commits 100 million instructions".

This module is the configuration facade; the hot loop lives in
:mod:`repro.cmp.engine`.  ``SimulationConfig.engine`` selects the engine;
the default ``"auto"`` resolves to the batched engine (compiled bulk L1
prefilter, one event per L2 access) wherever it can run the simulation,
else to ``"reference"``, the per-access oracle loop it is pinned against.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.partition.base import make_partition
from repro.cache.replacement.base import make_policy
from repro.cmp.engine import make_engine
from repro.cmp.results import EventCounts, SimulationResult, ThreadResult
from repro.config import (
    ENFORCE_BTVECTORS,
    PartitioningConfig,
    ProcessorConfig,
    SimulationConfig,
)
from repro.core.controller import PartitionController
from repro.profiling.monitor import ProfilingSystem
from repro.util.rng import make_rng
from repro.workloads.trace import Trace

__all__ = [
    "CMPSimulator",
    "EventCounts",
    "SimulationResult",
    "ThreadResult",
    "run_workload",
]


class CMPSimulator:
    """One configured CMP: cores, hierarchy, profiling, controller."""

    def __init__(self, processor: ProcessorConfig,
                 partitioning: PartitioningConfig,
                 traces: Sequence[Trace],
                 simulation: Optional[SimulationConfig] = None) -> None:
        if len(traces) != processor.num_cores:
            raise ValueError(
                f"{processor.num_cores} cores need {processor.num_cores} "
                f"traces, got {len(traces)}"
            )
        if simulation is None:
            simulation = SimulationConfig()
        self.processor = processor
        self.partitioning = partitioning
        self.simulation = simulation
        self.traces = list(traces)

        seed = simulation.seed
        num_cores = processor.num_cores
        l2 = processor.l2
        policy = make_policy(partitioning.policy, l2.num_sets, l2.assoc,
                             rng=make_rng(seed, "l2policy"))
        scheme = make_partition(
            partitioning.enforcement, num_cores, l2.num_sets, l2.assoc,
            policy=policy if partitioning.enforcement == ENFORCE_BTVECTORS else None,
        )
        self.hierarchy = CacheHierarchy(
            num_cores, processor.l1d, l2,
            l2_policy=policy, l2_partition=scheme,
        )
        self.scheme = scheme
        if scheme is not None:
            sampling = partitioning.atd_sampling
            if l2.num_sets % sampling:
                raise ValueError(
                    f"atd_sampling={sampling} must divide the L2 set count "
                    f"{l2.num_sets}; pick a smaller sampling for scaled runs"
                )
            self.profiling: Optional[ProfilingSystem] = ProfilingSystem(
                num_cores, l2, partitioning.policy, sampling=sampling,
                nru_scaling=partitioning.nru_scaling,
                nru_spread_update=partitioning.nru_spread_update,
                seed=seed,
            )
            self.hierarchy.l2_observer = self.profiling.observe
            self.controller: Optional[PartitionController] = PartitionController(
                self.profiling, scheme, l2.assoc,
                selector=partitioning.selector,
                min_ways=partitioning.min_ways,
                static_counts=partitioning.static_counts,
            )
        else:
            self.profiling = None
            self.controller = None

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Simulate until every thread's statistics are frozen."""
        return make_engine(self, self.simulation.engine).run()


def run_workload(processor: ProcessorConfig,
                 partitioning: PartitioningConfig,
                 traces: Sequence[Trace],
                 simulation: Optional[SimulationConfig] = None) -> SimulationResult:
    """Convenience one-call simulation."""
    return CMPSimulator(processor, partitioning, traces, simulation).run()
