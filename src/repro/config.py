"""Processor and simulation configuration.

:class:`ProcessorConfig` mirrors the paper's Table II baseline: per-core
private L1 instruction/data caches, a shared unified L2, an 11-cycle L2
access (= L1 miss) penalty and a 250-cycle main-memory (= L2 miss) penalty.

:class:`PartitioningConfig` selects the replacement policy, the enforcement
scheme and the profiling variant — the axes of the paper's Figure 7
configuration acronyms (``C-L``, ``M-L``, ``M-1.0N``, ``M-0.75N``,
``M-0.5N``, ``M-BT``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.cache.geometry import (
    BASELINE_L1D,
    BASELINE_L1I,
    BASELINE_L2,
    CacheGeometry,
)
from repro.util.validation import check_in, check_positive

#: Replacement policy identifiers.
POLICY_LRU = "lru"
POLICY_NRU = "nru"
POLICY_BT = "bt"
POLICY_RANDOM = "random"
POLICY_FIFO = "fifo"
POLICY_SRRIP = "srrip"
POLICY_BRRIP = "brrip"
POLICY_LIP = "lip"
POLICY_BIP = "bip"
POLICY_DIP = "dip"
POLICIES = (POLICY_LRU, POLICY_NRU, POLICY_BT, POLICY_RANDOM, POLICY_FIFO,
            POLICY_SRRIP, POLICY_BRRIP, POLICY_LIP, POLICY_BIP, POLICY_DIP)
#: Policies with a paper-defined stack-distance profiler — the only ones a
#: *partitioned* configuration may use (§II-A, §III-A, §III-B).
PROFILABLE_POLICIES = (POLICY_LRU, POLICY_NRU, POLICY_BT)

#: Partition enforcement scheme identifiers.
ENFORCE_NONE = "none"            # unpartitioned cache
ENFORCE_COUNTERS = "counters"    # per-set owner counters (paper: "C")
ENFORCE_MASKS = "masks"          # global replacement masks (paper: "M")
ENFORCE_BTVECTORS = "btvectors"  # BT up/down vectors (paper: "M" for BT)
ENFORCEMENTS = (ENFORCE_NONE, ENFORCE_COUNTERS, ENFORCE_MASKS, ENFORCE_BTVECTORS)

#: Partition selection algorithm identifiers.
SELECTOR_MINMISSES = "minmisses"    # exact DP (paper's MinMisses target)
SELECTOR_LOOKAHEAD = "lookahead"    # Qureshi-Patt greedy (ablation)
SELECTOR_EVEN = "even"              # static even split (ablation baseline)
SELECTOR_FAIR = "fair"              # fairness-oriented variant (extension)
SELECTOR_STATIC = "static"          # fixed counts (QoS epochs; extension)
SELECTORS = (SELECTOR_MINMISSES, SELECTOR_LOOKAHEAD, SELECTOR_EVEN,
             SELECTOR_FAIR, SELECTOR_STATIC)

#: Simulation engine identifiers (see :mod:`repro.cmp.engine`).
ENGINE_REFERENCE = "reference"   # per-access oracle loop
ENGINE_BATCHED = "batched"       # bulk L1 prefilter + event scheduler
ENGINE_AUTO = "auto"             # batched where it can run, else reference
ENGINES = (ENGINE_REFERENCE, ENGINE_BATCHED, ENGINE_AUTO)


@dataclass(frozen=True)
class ProcessorConfig:
    """Static CMP processor parameters (Table II, left side)."""

    num_cores: int = 2
    l1i: CacheGeometry = BASELINE_L1I
    l1d: CacheGeometry = BASELINE_L1D
    l2: CacheGeometry = BASELINE_L2
    #: Extra cycles paid by an access that misses L1 and hits L2.
    l2_hit_penalty: int = 11
    #: Extra cycles paid by an access that misses the L2 (on top of the
    #: L2 access penalty).
    memory_penalty: int = 250

    def __post_init__(self) -> None:
        check_positive("num_cores", self.num_cores)
        check_positive("l2_hit_penalty", self.l2_hit_penalty)
        check_positive("memory_penalty", self.memory_penalty)

    def with_l2(self, l2: CacheGeometry) -> "ProcessorConfig":
        """Copy of this config with a different L2 geometry."""
        return replace(self, l2=l2)

    def scaled(self, factor: int) -> "ProcessorConfig":
        """Scale all cache capacities by ``1/factor`` (associativity kept)."""
        return replace(
            self,
            l1i=self.l1i.scaled(factor),
            l1d=self.l1d.scaled(factor),
            l2=self.l2.scaled(factor),
        )


@dataclass(frozen=True)
class PartitioningConfig:
    """One point in the paper's configuration space.

    The paper names configurations ``<enforcement>-<scale><policy>``:

    * ``C-L``    -> counters + LRU           (baseline)
    * ``M-L``    -> masks + LRU
    * ``M-1.0N`` -> masks + NRU, eSDH scaling factor 1.0
    * ``M-0.75N``-> masks + NRU, eSDH scaling factor 0.75
    * ``M-0.5N`` -> masks + NRU, eSDH scaling factor 0.5
    * ``M-BT``   -> up/down vectors + BT
    """

    policy: str = POLICY_LRU
    enforcement: str = ENFORCE_COUNTERS
    selector: str = SELECTOR_MINMISSES
    #: eSDH scaling factor for the NRU profiler (paper: 1.0, 0.75, 0.5).
    nru_scaling: float = 1.0
    #: Literal-reading NRU eSDH update (increment r_1..r_d).
    nru_spread_update: bool = False
    #: Repartitioning interval in cycles (paper: 1 million).
    interval_cycles: int = 1_000_000
    #: ATD set-sampling ratio: 1 ATD set per ``atd_sampling`` L2 sets
    #: (paper: 32).
    atd_sampling: int = 32
    #: Every thread gets at least this many ways (paper: 1).
    min_ways: int = 1
    #: Fixed per-core way counts for ``selector='static'`` (QoS epochs).
    static_counts: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        check_in("policy", self.policy, POLICIES)
        check_in("enforcement", self.enforcement, ENFORCEMENTS)
        check_in("selector", self.selector, SELECTORS)
        if not (0.0 < self.nru_scaling <= 1.0):
            raise ValueError(f"nru_scaling must be in (0, 1], got {self.nru_scaling}")
        check_positive("interval_cycles", self.interval_cycles)
        check_positive("atd_sampling", self.atd_sampling)
        check_positive("min_ways", self.min_ways)
        if self.enforcement == ENFORCE_BTVECTORS and self.policy != POLICY_BT:
            raise ValueError("btvectors enforcement requires the BT policy")
        if self.enforcement != ENFORCE_NONE and self.policy not in PROFILABLE_POLICIES:
            raise ValueError(
                f"policy {self.policy!r} has no stack-distance profiler; "
                f"partitioned configurations require one of {PROFILABLE_POLICIES}"
            )
        if self.selector == SELECTOR_STATIC:
            if self.static_counts is None:
                raise ValueError("selector='static' requires static_counts")
            if any(int(c) < 1 for c in self.static_counts):
                raise ValueError("static_counts entries must be >= 1")
            if self.enforcement == ENFORCE_BTVECTORS:
                raise ValueError(
                    "static counts cannot be expressed as BT up/down "
                    "subcubes; use masks or counters enforcement"
                )
        elif self.static_counts is not None:
            raise ValueError("static_counts requires selector='static'")
        if self.policy == POLICY_BT and self.enforcement == ENFORCE_MASKS:
            raise ValueError(
                "the BT policy enforces partitions through up/down vectors; "
                "use enforcement='btvectors'"
            )

    @property
    def partitioned(self) -> bool:
        """True when a partition is enforced on the L2."""
        return self.enforcement != ENFORCE_NONE

    @property
    def acronym(self) -> str:
        """Paper-style configuration acronym, e.g. ``M-0.75N``."""
        if not self.partitioned:
            return {POLICY_LRU: "LRU", POLICY_NRU: "NRU", POLICY_BT: "BT",
                    POLICY_RANDOM: "RND"}.get(self.policy, self.policy.upper())
        prefix = "C" if self.enforcement == ENFORCE_COUNTERS else "M"
        if self.policy == POLICY_LRU:
            return f"{prefix}-L"
        if self.policy == POLICY_BT:
            return f"{prefix}-BT"
        if self.policy == POLICY_NRU:
            scaling = f"{self.nru_scaling:g}"
            if "." not in scaling:
                scaling += ".0"
            return f"{prefix}-{scaling}N"
        return f"{prefix}-RND"


# ----------------------------------------------------------------------
# The paper's named configurations (Figure 7 x-axis)
# ----------------------------------------------------------------------
def config_C_L(**kw) -> PartitioningConfig:
    """``C-L``: per-set owner counters + LRU (the paper's baseline)."""
    return PartitioningConfig(policy=POLICY_LRU, enforcement=ENFORCE_COUNTERS, **kw)


def config_M_L(**kw) -> PartitioningConfig:
    """``M-L``: global replacement masks + LRU."""
    return PartitioningConfig(policy=POLICY_LRU, enforcement=ENFORCE_MASKS, **kw)


def config_M_N(scaling: float = 0.75, **kw) -> PartitioningConfig:
    """``M-<s>N``: global replacement masks + NRU with eSDH scaling ``s``."""
    return PartitioningConfig(
        policy=POLICY_NRU, enforcement=ENFORCE_MASKS, nru_scaling=scaling, **kw
    )


def config_M_BT(**kw) -> PartitioningConfig:
    """``M-BT``: up/down vectors + BT."""
    return PartitioningConfig(policy=POLICY_BT, enforcement=ENFORCE_BTVECTORS, **kw)


def config_unpartitioned(policy: str, **kw) -> PartitioningConfig:
    """Non-partitioned cache with the given replacement policy (Figure 6)."""
    return PartitioningConfig(policy=policy, enforcement=ENFORCE_NONE, **kw)


def paper_figure7_configs() -> list:
    """The six configurations on the x-axis of the paper's Figure 7."""
    return [
        config_C_L(),
        config_M_L(),
        config_M_N(1.0),
        config_M_N(0.75),
        config_M_N(0.5),
        config_M_BT(),
    ]


@dataclass(frozen=True)
class SimulationConfig:
    """Run-length and bookkeeping knobs for one simulation."""

    #: Instructions after which a thread's statistics freeze (paper: 100 M).
    instructions_per_thread: int = 100_000_000
    #: Optional per-thread budgets overriding ``instructions_per_thread``.
    #: The experiment harness uses these to *cycle-match* threads of very
    #: different speeds (all threads freeze around the same global time),
    #: which bounds the trace-wrap spinning of fast threads; budgets may
    #: exceed one trace pass (the trace wraps deterministically).
    per_thread_instructions: Optional[Tuple[int, ...]] = None
    #: Base random seed for every stochastic component of the run.
    seed: int = 12345
    #: Optional cap on total simulated cycles (safety valve; None = off).
    max_cycles: Optional[int] = None
    #: Minimum cycles between successive memory services (single-channel
    #: FCFS queue).  0 = the paper's fixed-latency memory (default).
    memory_service_interval: float = 0.0
    #: Execution engine: ``"auto"`` (the default — ``"batched"`` wherever
    #: it can run the simulation, else ``"reference"``), ``"batched"``
    #: (the compiled L1 prefilter and event loop) or ``"reference"`` (the
    #: per-access oracle loop).  Both engines produce identical results;
    #: the equivalence suites and ``repro fuzz`` pin this.
    engine: str = ENGINE_AUTO

    def __post_init__(self) -> None:
        check_positive("instructions_per_thread", self.instructions_per_thread)
        if self.per_thread_instructions is not None:
            for i, budget in enumerate(self.per_thread_instructions):
                check_positive(f"per_thread_instructions[{i}]", budget)
        if self.memory_service_interval < 0:
            raise ValueError("memory_service_interval cannot be negative")
        check_in("engine", self.engine, ENGINES)
