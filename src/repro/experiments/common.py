"""Shared experiment machinery: scaling, trace/isolation caching, runners.

The paper's full configuration (2 MB L2, 100 M instructions per thread, 49
mixes) is hours of pure-Python simulation; the default
:class:`ExperimentScale` shrinks capacities by 8 (associativity — the
quantity the algorithms operate on — is untouched), shortens traces, and
uses a representative subset of the Table II mixes chosen to cover the
contention spectrum.  :func:`resolve_scale` is the one parser of a
scale: the ``--scale`` of every verb (a preset or a capacity divisor),
refined by ``--accesses``, ``--seed``, ``--target-cycles`` and
``--mixes all``.

**Cycle matching.** The paper freezes each thread's statistics at 100 M
instructions and lets fast threads keep running (trace wrap) so contention
persists.  With mixes like (mcf, crafty) the speed gap means a fast thread
replays its trace dozens of times — pure simulation overhead.  The harness
instead gives thread ``i`` a budget proportional to its isolation IPC
(``budget_i = iso_ipc_i × target_cycles``), so all threads freeze near the
same global time.  Budgets are computed once per (mix, geometry) from *LRU*
isolation runs and reused identically for every configuration, so relative
comparisons — everything the paper plots — are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.geometry import CacheGeometry
from repro.config import (
    PartitioningConfig,
    ProcessorConfig,
    SimulationConfig,
)
from repro.cmp.isolation import IsolationRunner
from repro.cmp.metrics import hmean_relative, ipc_throughput, weighted_speedup
from repro.cmp.simulator import CMPSimulator, SimulationResult, ThreadResult
from repro.hwmodel.power import PowerModel, PowerReport
from repro.workloads.generator import generate_trace
from repro.workloads.mixes import get_workload, workload_names
from repro.util.validation import check_positive
from repro.workloads.trace import Trace

#: Baseline L2 capacity of the paper (scaled by ExperimentScale.scale).
BASE_L2_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class ExperimentScale:
    """Laptop-scale knobs for the experiment harness."""

    #: Cache capacity divisor (1 = paper scale).
    scale: int = 8
    #: Trace length per thread, in memory accesses.
    accesses: int = 60_000
    #: Cycle-matching horizon: threads freeze around this global time.
    target_cycles: float = 5_000_000.0
    #: ATD set-sampling ratio (paper: 32; scaled caches need denser sampling).
    atd_sampling: int = 8
    #: Repartitioning interval in cycles (paper: 1 M).
    interval_cycles: int = 1_000_000
    seed: int = 42
    mixes_2t: Tuple[str, ...] = ("2T_02", "2T_05", "2T_08")
    mixes_4t: Tuple[str, ...] = ("4T_01", "4T_04")
    mixes_8t: Tuple[str, ...] = ("8T_02", "8T_05")
    #: Figure 8 averages over many mixes in the paper; the default subset is
    #: wider than ``mixes_2t`` so the AVG row is not dominated by a single
    #: heavy-contention mix.
    mixes_fig8: Tuple[str, ...] = ("2T_02", "2T_04", "2T_05", "2T_08",
                                   "2T_21", "2T_22")
    #: Single benchmarks for the 1-core points of Figure 6.
    benchmarks_1t: Tuple[str, ...] = ("mcf", "parser", "crafty",
                                      "apsi", "twolf", "gzip")

    def mixes_for(self, num_threads: int) -> Tuple[str, ...]:
        """The scale's Table II mix subset for a core count (2/4/8)."""
        return {2: self.mixes_2t, 4: self.mixes_4t, 8: self.mixes_8t}[num_threads]

    def processor(self, num_cores: int,
                  l2_bytes: int = BASE_L2_BYTES) -> ProcessorConfig:
        """Scaled processor with an optionally non-baseline L2 capacity."""
        proc = ProcessorConfig(num_cores=num_cores).scaled(self.scale)
        if l2_bytes != BASE_L2_BYTES:
            proc = proc.with_l2(
                CacheGeometry(l2_bytes // self.scale, proc.l2.assoc,
                              proc.l2.line_bytes)
            )
        return proc

    @property
    def baseline_l2_lines(self) -> int:
        """Line count footprints are calibrated against (always 2 MB/scale)."""
        return (BASE_L2_BYTES // self.scale) // 128

    def partitioning(self, config: PartitioningConfig) -> PartitioningConfig:
        """Apply the scale's sampling/interval knobs to a paper config."""
        return replace(config, atd_sampling=self.atd_sampling,
                       interval_cycles=self.interval_cycles)


def _micro_scale() -> ExperimentScale:
    """1/16-size machine, very short traces, one mix per core count."""
    return ExperimentScale(
        scale=16, accesses=2_000, target_cycles=200_000.0,
        atd_sampling=4, interval_cycles=50_000, seed=7,
        mixes_2t=("2T_05",), mixes_4t=("4T_03",), mixes_8t=("8T_11",),
        mixes_fig8=("2T_05",),
        benchmarks_1t=("crafty",),
    )


def _all_mixes() -> Dict[str, Tuple[str, ...]]:
    """The mix-selection fields covering all 49 Table II mixes."""
    return dict(mixes_2t=tuple(workload_names(2)),
                mixes_4t=tuple(workload_names(4)),
                mixes_8t=tuple(workload_names(8)),
                mixes_fig8=tuple(workload_names(2)))


def _paper_scale() -> ExperimentScale:
    """Paper-scale caches, long traces, all 49 Table II mixes (hours)."""
    return ExperimentScale(
        scale=1, accesses=2_000_000, target_cycles=200_000_000.0,
        atd_sampling=32, **_all_mixes(),
    )


#: Named scale presets for the reproduction report (``repro report
#: --scale NAME``) and the docs: ``micro`` exercises the full pipeline in
#: seconds (numbers are meaningless, plumbing is real), ``small`` is the
#: laptop default every figure command uses, ``paper`` is the full
#: configuration of the paper.
SCALE_PRESETS = {
    "micro": _micro_scale,
    "small": ExperimentScale,
    "paper": _paper_scale,
}


def scale_preset(name: str) -> ExperimentScale:
    """Resolve a named scale preset (``micro`` / ``small`` / ``paper``)."""
    try:
        factory = SCALE_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown scale preset {name!r}; known: {sorted(SCALE_PRESETS)}"
        ) from None
    return factory()


def check_divisor(divisor) -> None:
    """Raise ``ValueError`` unless ``divisor`` is an integer every cache
    capacity takes (:meth:`CacheGeometry.scaled`)."""
    if isinstance(divisor, bool) or not isinstance(divisor, int):
        raise ValueError(f"the divisor must be an integer, got {divisor!r}")
    ProcessorConfig().scaled(divisor)


def check_accesses(accesses) -> None:
    """Raise ``ValueError`` unless ``accesses`` is a positive integer
    trace length."""
    if isinstance(accesses, bool) or not isinstance(accesses, int):
        raise ValueError(f"the trace length must be an integer, got "
                         f"{accesses!r}")
    check_positive("the trace length", accesses)


def resolve_scale(scale: str = "small", *, accesses: Optional[int] = None,
                  seed: Optional[int] = None,
                  target_cycles: Optional[float] = None,
                  mixes: str = "default") -> ExperimentScale:
    """The one parser of a scale: ``--scale`` and its refinements.

    ``scale`` is a preset name (``micro`` / ``small`` / ``paper``) or an
    integer capacity divisor (the ``small`` preset's other fields); the
    given refinements then replace their fields, and ``mixes="all"``
    widens every mix subset to all 49 Table II mixes.  A value that makes
    no scale — neither a preset nor a number, a divisor some cache
    capacity does not take (:meth:`CacheGeometry.scaled`), no accesses —
    raises one :class:`ValueError` naming the flag.
    """
    if scale in SCALE_PRESETS:
        base = scale_preset(scale)
    else:
        try:
            divisor = int(scale)
        except ValueError:
            raise ValueError(
                f"--scale={scale}: expected one of {sorted(SCALE_PRESETS)} "
                f"or an integer divisor") from None
        try:
            check_divisor(divisor)
        except ValueError as exc:
            raise ValueError(f"--scale={scale}: {exc}") from None
        base = ExperimentScale(scale=divisor)
    fields: Dict[str, object] = {}
    if mixes == "all":
        fields.update(_all_mixes())
    elif mixes != "default":
        raise ValueError(f"--mixes={mixes}: expected 'default' or 'all'")
    if accesses is not None:
        try:
            check_accesses(accesses)
        except ValueError as exc:
            raise ValueError(f"--accesses={accesses}: {exc}") from None
        fields["accesses"] = accesses
    if seed is not None:
        fields["seed"] = seed
    if target_cycles is not None:
        fields["target_cycles"] = target_cycles
    return replace(base, **fields)  # type: ignore[arg-type]


@dataclass
class RunOutcome:
    """One (mix, configuration) simulation with its derived metrics."""

    mix: str
    acronym: str
    result: SimulationResult
    #: Isolation IPCs matching this configuration's replacement policy.
    iso_ipcs: List[float]
    power: PowerReport

    @property
    def throughput(self) -> float:
        """IPC throughput (sum of per-thread IPCs)."""
        return ipc_throughput(self.result.ipcs)

    @property
    def wspeedup(self) -> float:
        """Weighted speedup against the isolation IPCs."""
        return weighted_speedup(self.result.ipcs, self.iso_ipcs)

    @property
    def hmean(self) -> float:
        """Harmonic mean of relative IPCs (fairness metric)."""
        return hmean_relative(self.result.ipcs, self.iso_ipcs)

    def metric(self, name: str) -> float:
        """One of the paper's metrics: throughput / wspeedup / hmean."""
        return {"throughput": self.throughput, "wspeedup": self.wspeedup,
                "hmean": self.hmean}[name]


class WorkloadRunner:
    """Caches traces, isolation runs and budgets across an experiment."""

    def __init__(self, scale: ExperimentScale) -> None:
        self.scale = scale
        self.power_model = PowerModel()
        #: Traces of the mixes run so far, by slot ``(benchmark, core_id)``:
        #: mixes sharing a slot share its trace.
        self._traces: Dict[Tuple[str, int], Trace] = {}
        self._mixes: Dict[Tuple[str, ...], List[Trace]] = {}
        self._iso_trace: Dict[Tuple[str, int], Trace] = {}   # one slot
        self._isolation: Dict[int, IsolationRunner] = {}
        self._budgets: Dict[Tuple, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    def _generate(self, benchmark: str, core_id: int) -> Trace:
        return generate_trace(benchmark, self.scale.accesses,
                              self.scale.baseline_l2_lines,
                              seed=self.scale.seed, core_id=core_id)

    def traces_for(self, benchmarks: Sequence[str]) -> List[Trace]:
        """Traces of a mix (footprints tied to the baseline L2 capacity).

        Core ``i`` of the mix is slot ``(benchmarks[i], i)``; a slot's
        trace is generated once per runner, or taken over from the
        isolation slot when that holds it."""
        key = tuple(benchmarks)
        traces = self._mixes.get(key)
        if traces is None:
            traces = self._mixes[key] = [
                self._slot_trace(benchmark, core_id)
                for core_id, benchmark in enumerate(key)]
        return traces

    def _slot_trace(self, benchmark: str, core_id: int) -> Trace:
        key = (benchmark, core_id)
        trace = self._traces.get(key)
        if trace is None:
            trace = self._iso_trace.get(key)
            if trace is None:
                trace = self._generate(benchmark, core_id)
            self._traces[key] = trace
        return trace

    def isolation_trace(self, benchmark: str, core_id: int) -> Trace:
        """Trace of one isolation job.

        A slot some mix already holds is reused.  Otherwise the trace goes
        into the one isolation slot, which is emptied *before* the next is
        generated, so an isolation-only campaign never holds two
        paper-scale traces (16 MB each) at once; :func:`plan_jobs
        <repro.campaign.runner.plan_jobs>` orders isolation jobs by trace,
        so each is generated once."""
        key = (benchmark, core_id)
        trace = self._traces.get(key)
        if trace is None:
            trace = self._iso_trace.get(key)
        if trace is None:
            self._iso_trace.clear()
            trace = self._iso_trace[key] = self._generate(benchmark, core_id)
        return trace

    def isolation(self, l2_bytes: int = BASE_L2_BYTES) -> IsolationRunner:
        """Isolation runner for a given L2 capacity."""
        runner = self._isolation.get(l2_bytes)
        if runner is None:
            runner = IsolationRunner(
                self.scale.processor(1, l2_bytes),
                SimulationConfig(seed=self.scale.seed),
            )
            self._isolation[l2_bytes] = runner
        return runner

    def iso_results(self, benchmarks: Tuple[str, ...], policy: str,
                    l2_bytes: int = BASE_L2_BYTES) -> List["ThreadResult"]:
        """Per-thread isolation results of a mix under one policy.

        The single funnel for isolation lookups — budgets and relative
        metrics both go through here, so a subclass can substitute a shared
        backing store (``repro.campaign.runner.StoreWorkloadRunner``) and
        every consumer inherits the memoisation.
        """
        traces = self.traces_for(benchmarks)
        iso = self.isolation(l2_bytes)
        return [iso.thread_result(t, policy) for t in traces]

    def budgets_for(self, mix_key: Tuple[str, ...],
                    l2_bytes: int = BASE_L2_BYTES) -> Tuple[int, ...]:
        """Cycle-matched per-thread instruction budgets (LRU isolation)."""
        key = (mix_key, l2_bytes)
        cached = self._budgets.get(key)
        if cached is None:
            cached = tuple(
                max(10_000, int(r.ipc * self.scale.target_cycles))
                for r in self.iso_results(tuple(mix_key), "lru", l2_bytes)
            )
            self._budgets[key] = cached
        return cached

    # ------------------------------------------------------------------
    def run(self, mix: str, config: PartitioningConfig,
            l2_bytes: int = BASE_L2_BYTES,
            benchmarks: Optional[Sequence[str]] = None,
            memory_service_interval: float = 0.0) -> RunOutcome:
        """Simulate one (mix, configuration) point.

        ``mix`` is a Table II name unless ``benchmarks`` overrides the
        benchmark tuple (used by the 1-core Figure 6 points);
        ``memory_service_interval`` enables the bandwidth-limited memory
        (0 = the paper's fixed-latency memory).
        """
        bench = tuple(benchmarks) if benchmarks is not None else get_workload(mix)
        traces = self.traces_for(bench)
        config = self.scale.partitioning(config)
        processor = self.scale.processor(len(bench), l2_bytes)
        sim_config = SimulationConfig(
            seed=self.scale.seed,
            per_thread_instructions=self.budgets_for(bench, l2_bytes),
            memory_service_interval=memory_service_interval,
        )
        sim = CMPSimulator(processor, config, traces, sim_config)
        result = sim.run()
        profiling_bits = (sim.profiling.storage_bits()
                          if sim.profiling is not None else 0)
        power = self.power_model.evaluate(result, processor, config,
                                          profiling_bits=profiling_bits)
        # Relative metrics normalise to same-policy isolation runs; random
        # maps to LRU so the denominator stays configuration-independent.
        iso_policy = "lru" if config.policy == "random" else config.policy
        iso_ipcs = [r.ipc for r in self.iso_results(bench, iso_policy, l2_bytes)]
        return RunOutcome(mix=mix, acronym=config.acronym, result=result,
                          iso_ipcs=iso_ipcs, power=power)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (used to average relative values across mixes)."""
    if not values:
        raise ValueError("need at least one value")
    product = 1.0
    for v in values:
        if v <= 0:
            raise ValueError(f"values must be positive, got {v}")
        product *= v
    return product ** (1.0 / len(values))
