"""Isolation runs: per-thread IPC with the whole cache to itself.

The weighted-speedup and harmonic-mean metrics normalise each thread's CMP
IPC by the IPC it achieves running *alone* on the same machine with the same
(unpartitioned) replacement policy.  :class:`IsolationRunner` memoises those
runs — the same (trace, policy, geometry) pair is reused across every
configuration of an experiment sweep.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.config import (
    PartitioningConfig,
    ProcessorConfig,
    SimulationConfig,
    config_unpartitioned,
)
from repro.cmp.simulator import CMPSimulator, ThreadResult
from repro.workloads.trace import Trace


class IsolationRunner:
    """Memoised single-thread simulations."""

    def __init__(self, processor: ProcessorConfig,
                 simulation: SimulationConfig) -> None:
        self.processor = replace(processor, num_cores=1)
        self.simulation = simulation
        self._cache: Dict[Tuple, ThreadResult] = {}

    def _key(self, trace: Trace, policy: str) -> Tuple:
        # Keyed on the trace's content fingerprint: the old
        # (name, first_line, length, ...) tuple collided for distinct
        # traces that shared a name and length (e.g. two seeds of the same
        # benchmark), silently returning the wrong cached result.  The name
        # stays in the key because the cached ThreadResult carries it.
        l2 = self.processor.l2
        return (
            trace.name, trace.fingerprint(), policy,
            l2.size_bytes, l2.assoc, l2.line_bytes,
            self.simulation.instructions_per_thread, self.simulation.seed,
        )

    def thread_result(self, trace: Trace, policy: str) -> ThreadResult:
        """Isolation statistics for one trace under one replacement policy."""
        key = self._key(trace, policy)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = self.simulate(trace, policy)
        return cached

    def simulate(self, trace: Trace, policy: str) -> ThreadResult:
        """One isolation run, outside the memo (and without the trace
        fingerprint that keys it): for callers that memoise elsewhere."""
        config = config_unpartitioned(policy)
        sim = CMPSimulator(self.processor, config, [trace], self.simulation)
        return sim.run().threads[0]

    def ipc(self, trace: Trace, policy: str) -> float:
        """Isolation IPC for one trace under one replacement policy."""
        return self.thread_result(trace, policy).ipc

    def ipcs(self, traces: Sequence[Trace], policy: str) -> List[float]:
        """Isolation IPCs for a workload's traces."""
        return [self.ipc(trace, policy) for trace in traces]

    def __len__(self) -> int:
        return len(self._cache)
