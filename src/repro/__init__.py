"""repro — cache partitioning for pseudo-LRU replacement policies.

A from-scratch reproduction of *"Adapting Cache Partitioning Algorithms to
Pseudo-LRU Replacement Policies"* (Kędzierski, Moreto, Cazorla, Valero —
IPDPS 2010): a complete dynamic cache-partitioning system for shared last
level caches running the NRU (UltraSPARC T2) and Binary-Tree (IBM)
pseudo-LRU replacement policies, including the estimated-SDH profiling
logic, the mask/counter/up-down-vector enforcement hardware, a trace-driven
CMP simulator, SPEC CPU 2000-like synthetic workloads, and the paper's
complexity and power models.

Quickstart::

    from repro import (ProcessorConfig, SimulationConfig, config_M_N,
                       generate_workload_traces, run_workload)

    processor = ProcessorConfig(num_cores=2).scaled(8)
    traces = generate_workload_traces(("mcf", "crafty"), 200_000,
                                      processor.l2.num_lines, seed=1)
    result = run_workload(processor, config_M_N(0.75, atd_sampling=8),
                          traces, SimulationConfig(instructions_per_thread=500_000))
    print(result.throughput, [t.ipc for t in result.threads])

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.config import (
    PartitioningConfig,
    ProcessorConfig,
    SimulationConfig,
    config_C_L,
    config_M_BT,
    config_M_L,
    config_M_N,
    config_unpartitioned,
    paper_figure7_configs,
)
from repro.cache import (
    BASELINE_L1D,
    BASELINE_L1I,
    BASELINE_L2,
    CacheGeometry,
    CacheHierarchy,
    SetAssociativeCache,
)
from repro.cache.replacement import (
    BIPPolicy,
    BRRIPPolicy,
    BTPolicy,
    DIPPolicy,
    FIFOPolicy,
    LIPPolicy,
    LRUPolicy,
    NRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
    make_policy,
)
from repro.cache.partition import (
    BTVectorPartition,
    MasksPartition,
    OwnerCountersPartition,
    Subcube,
    SubcubeAllocation,
    WayAllocation,
    make_partition,
)
from repro.core import (
    PartitionController,
    best_subcube_allocation,
    fair_partition,
    lookahead_partition,
    minmisses_partition,
)
from repro.profiling import (
    ATD,
    SDH,
    BTDistanceProfiler,
    LRUDistanceProfiler,
    NRUDistanceProfiler,
    ProfilingSystem,
    ReuseDistanceAnalyzer,
    SetReuseDistanceAnalyzer,
    ThreadMonitor,
    exact_miss_curve,
    exact_sdh,
)
from repro.cmp import (
    CMPSimulator,
    IsolationRunner,
    SimulationResult,
    ThreadResult,
    hmean_relative,
    ipc_throughput,
    run_workload,
    weighted_speedup,
)
from repro.workloads import (
    ALL_WORKLOADS,
    CATALOG,
    Trace,
    generate_trace,
    get_benchmark,
    get_workload,
    workload_names,
)
from repro.workloads.generator import generate_workload_traces
from repro.hwmodel import (
    PowerModel,
    PowerParams,
    PowerReport,
    ReplacementComplexity,
    event_bits_table,
    storage_bits_table,
)

__version__ = "1.1.0"

__all__ = [
    # configuration
    "ProcessorConfig", "PartitioningConfig", "SimulationConfig",
    "config_C_L", "config_M_L", "config_M_N", "config_M_BT",
    "config_unpartitioned", "paper_figure7_configs",
    # cache substrate
    "CacheGeometry", "SetAssociativeCache", "CacheHierarchy",
    "BASELINE_L1D", "BASELINE_L1I", "BASELINE_L2",
    "LRUPolicy", "NRUPolicy", "BTPolicy", "RandomPolicy", "FIFOPolicy",
    "SRRIPPolicy", "BRRIPPolicy", "LIPPolicy", "BIPPolicy", "DIPPolicy",
    "make_policy",
    "MasksPartition", "OwnerCountersPartition", "BTVectorPartition",
    "WayAllocation", "Subcube", "SubcubeAllocation", "make_partition",
    # partitioning algorithms
    "minmisses_partition", "lookahead_partition", "best_subcube_allocation",
    "fair_partition", "PartitionController",
    # profiling
    "SDH", "ATD", "ThreadMonitor", "ProfilingSystem",
    "LRUDistanceProfiler", "NRUDistanceProfiler", "BTDistanceProfiler",
    "ReuseDistanceAnalyzer", "SetReuseDistanceAnalyzer",
    "exact_sdh", "exact_miss_curve",
    # CMP simulation
    "CMPSimulator", "SimulationResult", "ThreadResult", "run_workload",
    "IsolationRunner", "ipc_throughput", "weighted_speedup", "hmean_relative",
    # workloads
    "Trace", "generate_trace", "generate_workload_traces",
    "CATALOG", "get_benchmark", "ALL_WORKLOADS", "get_workload",
    "workload_names",
    # hardware models
    "ReplacementComplexity", "storage_bits_table", "event_bits_table",
    "PowerModel", "PowerParams", "PowerReport",
    "__version__",
]
