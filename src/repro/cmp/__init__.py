"""CMP simulation: analytic core timing over the shared cache hierarchy.

:class:`CMPSimulator` runs N trace-driven threads against private L1s and a
shared (optionally partitioned) L2, merging per-thread clocks in global-time
order, firing the partition controller at every interval boundary, and
freezing each thread's statistics after its instruction budget (the paper's
"stop when each thread commits 100 M instructions" methodology — fast
threads keep running to preserve contention).

The hot loop lives in :mod:`repro.cmp.engine`; ``SimulationConfig.engine``
selects the engine — the default ``"auto"`` is the batched engine wherever
it can run the simulation, the per-access reference oracle otherwise.
"""

from repro.cmp.engine import (
    BatchedEngine,
    ReferenceEngine,
    make_engine,
    resolve_engine_name,
)
from repro.cmp.results import (
    EventCounts,
    SimulationResult,
    ThreadResult,
)
from repro.cmp.simulator import (
    CMPSimulator,
    run_workload,
)
from repro.cmp.metrics import (
    ipc_throughput,
    weighted_speedup,
    hmean_relative,
    relative_metric,
)
from repro.cmp.isolation import IsolationRunner
from repro.cmp.memory import BandwidthConfig, MemoryChannel

__all__ = [
    "CMPSimulator",
    "SimulationResult",
    "ThreadResult",
    "EventCounts",
    "run_workload",
    "BatchedEngine",
    "ReferenceEngine",
    "make_engine",
    "resolve_engine_name",
    "MemoryChannel",
    "BandwidthConfig",
    "ipc_throughput",
    "weighted_speedup",
    "hmean_relative",
    "relative_metric",
    "IsolationRunner",
]
