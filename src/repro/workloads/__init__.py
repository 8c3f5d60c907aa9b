"""Workloads: SPEC CPU 2000 benchmark catalog, trace generator, Table II mixes.

The paper drives its evaluation with SimPoint traces of 26 SPEC CPU 2000
benchmarks combined into 49 multiprogrammed mixes (Table II).  We cannot
ship SPEC traces; instead each benchmark is modelled by a *synthetic address
stream* whose reuse profile (hot set, working set, streaming fraction,
phases) is calibrated to the published memory behaviour class of that
benchmark — which is exactly the property the partitioning system
consumes.
"""

from repro.workloads.trace import Trace
from repro.workloads.generator import generate_trace
from repro.workloads.spec2000 import (
    BenchmarkSpec,
    Phase,
    RegionSpec,
    CATALOG,
    benchmark_names,
    get_benchmark,
)
from repro.workloads.mixes import (
    WORKLOADS_2T,
    WORKLOADS_4T,
    WORKLOADS_8T,
    ALL_WORKLOADS,
    get_workload,
    workload_names,
)
from repro.workloads.writes import (
    DEFAULT_WRITE_FRACTION,
    overlay_workload_writes,
    overlay_writes,
)

__all__ = [
    "DEFAULT_WRITE_FRACTION",
    "overlay_writes",
    "overlay_workload_writes",
    "Trace",
    "generate_trace",
    "BenchmarkSpec",
    "Phase",
    "RegionSpec",
    "CATALOG",
    "benchmark_names",
    "get_benchmark",
    "WORKLOADS_2T",
    "WORKLOADS_4T",
    "WORKLOADS_8T",
    "ALL_WORKLOADS",
    "get_workload",
    "workload_names",
]
