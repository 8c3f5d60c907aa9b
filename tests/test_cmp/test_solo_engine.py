"""Single-thread ("solo") runs and the deferred-drain differential suite.

There is no single-thread engine: an isolation job or a 1-core figure
point is ``BatchedEngine.run`` over a heap of one (``auto`` resolves to
``batched`` at every core count wherever it can run).  Two exactness
claims are pinned here:

* the **batched engine at n = 1** must reproduce the reference loop's
  results bit for bit on every single-thread workload it runs — the
  paper policies, every partition scheme, the bandwidth channel with
  and without boundaries, interval-boundary catch-ups, freeze edges
  (freeze on a miss, freeze on an L1 hit, budgets wrapping the trace),
  mid-trace chunk reloads and ``max_cycles`` — the edges no multi-core
  case isolates; what it does not run (other policies, a kernel-less
  policy, write traces) it refuses by name, and ``auto`` takes it to the
  reference engine;
* **deferred ATD profiling drains** (the engine buffers L2-reaching lines
  and drains at boundaries / freezes / run end) must leave the ATDs, SDHs
  and sampled/skipped counters in exactly the state per-access observation
  produces — including a boundary landing with non-empty buffers and a
  thread freezing with a non-empty buffer.

(Module and class names date from the dedicated solo engine; they are
kept because they are the suite's recorded test ids.)
"""

import dataclasses
from array import array

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.state import rendered_key
import repro.cmp.engine.batched as batched_mod
from repro.cmp.engine import BatchedEngine, make_engine, resolve_engine_name
from repro.cmp.isolation import IsolationRunner
from repro.cmp.simulator import CMPSimulator
from repro.config import (
    POLICIES,
    ProcessorConfig,
    SimulationConfig,
    config_C_L,
    config_M_BT,
    config_M_L,
    config_M_N,
    config_unpartitioned,
)
from repro.profiling.atd import ATD
from repro.profiling.profilers import make_profiler
from repro.workloads.trace import Trace
from repro.workloads.writes import overlay_writes
from test_compiled_target import binds


def processor(num_cores=1):
    return ProcessorConfig(
        num_cores=num_cores,
        l1i=CacheGeometry(2 * 2 * 128, 2, 128),
        l1d=CacheGeometry(2 * 2 * 128, 2, 128),
        l2=CacheGeometry(16 * 8 * 128, 8, 128),
    )


def make_trace(count=6000, footprint=300, seed=100, ipm=4.0, cpi=1.0,
               name="t0"):
    rng = np.random.default_rng(seed)
    return Trace(name, rng.integers(0, footprint, size=count),
                 ipm=ipm, cpi_base=cpi)


def run_engines(partitioning, traces, engines, num_cores=1, budget=30_000,
                service_interval=0.0, per_thread=None, keep_sim=False):
    """Run the same workload under each engine; returns results (and sims)."""
    results = []
    sims = []
    for engine in engines:
        sim_config = SimulationConfig(
            instructions_per_thread=budget,
            per_thread_instructions=per_thread,
            seed=7,
            memory_service_interval=service_interval,
            engine=engine,
        )
        sim = CMPSimulator(processor(num_cores), partitioning, traces,
                           sim_config)
        results.append(sim.run())
        sims.append(sim)
    if keep_sim:
        return results, sims
    return results


def assert_identical(reference, other):
    assert len(reference.threads) == len(other.threads)
    for ref, oth in zip(reference.threads, other.threads):
        assert dataclasses.asdict(ref) == dataclasses.asdict(oth)
    assert dataclasses.asdict(reference.events) == \
        dataclasses.asdict(other.events)
    assert reference.partition_history == other.partition_history
    assert reference.acronym == other.acronym


def reference_only(partitioning, traces, reason, keep_sim=False, **knobs):
    """The reference result of a run the batched engine refuses naming
    ``reason``; ``auto`` runs it on the reference engine, identically."""
    with pytest.raises(ValueError, match=reason):
        run_engines(partitioning, traces, ("batched",), **knobs)
    (ref, auto), sims = run_engines(partitioning, traces,
                                    ("reference", "auto"), keep_sim=True,
                                    **knobs)
    assert_identical(ref, auto)
    return (ref, sims[1]) if keep_sim else ref


def profiling_state(sim):
    """Full observable profiling state: tag lines, SDH registers, counters."""
    return [
        (
            list(m.atd.state.lines),
            list(m.atd.sdh._r),
            m.atd.sampled_accesses,
            m.atd.skipped_accesses,
        )
        for m in sim.profiling.monitors
    ]


PARTITIONED_CONFIGS = [
    config_C_L(atd_sampling=4, interval_cycles=20_000),
    config_M_L(atd_sampling=4, interval_cycles=20_000),
    config_M_N(1.0, atd_sampling=4, interval_cycles=20_000),
    config_M_N(0.75, atd_sampling=4, interval_cycles=20_000),
    config_M_N(0.5, atd_sampling=4, interval_cycles=20_000),
    config_M_BT(atd_sampling=4, interval_cycles=20_000),
]


class TestSoloVsReference:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_policies_unpartitioned(self, policy):
        config = config_unpartitioned(policy)
        if policy not in ("lru", "nru", "bt"):
            reference_only(config, [make_trace()],
                           "no rendering of the L2's .*Policy")
            return
        ref, bat = run_engines(config, [make_trace()],
                               ("reference", "batched"))
        assert_identical(ref, bat)

    @pytest.mark.parametrize("config", PARTITIONED_CONFIGS,
                             ids=lambda c: c.acronym)
    def test_partitioned_schemes(self, config):
        (ref, bat), (ref_sim, bat_sim) = run_engines(
            config, [make_trace()], ("reference", "batched"), keep_sim=True)
        assert_identical(ref, bat)
        assert ref.events.repartitions > 0
        # The deferred drains must leave the exact per-access ATD/SDH state.
        assert profiling_state(ref_sim) == profiling_state(bat_sim)

    def test_write_trace(self):
        trace = overlay_writes(make_trace(), 0.4, seed=3)
        ref = reference_only(config_unpartitioned("lru"), [trace],
                             "a trace writes")
        assert ref.events.l1_writebacks > 0

    def test_write_trace_partitioned(self):
        trace = overlay_writes(make_trace(), 0.4, seed=3)
        reference_only(
            config_M_N(0.75, atd_sampling=4, interval_cycles=20_000),
            [trace], "a trace writes")

    def test_bandwidth_channel(self):
        # A single thread issues misses >= latency + base apart, so the
        # service interval must exceed that turnaround for queueing to
        # actually bite.
        ref, bat = run_engines(config_unpartitioned("lru"),
                               [make_trace(footprint=5000)],
                               ("reference", "batched"),
                               service_interval=400.0)
        assert_identical(ref, bat)
        assert ref.events.memory_queue_cycles > 0

    def test_bandwidth_channel_with_writes(self):
        trace = overlay_writes(make_trace(footprint=5000), 0.3, seed=4)
        ref = reference_only(config_unpartitioned("lru"), [trace],
                             "a trace writes", service_interval=350.0)
        assert ref.events.memory_queue_cycles > 0

    def test_tiny_interval_boundary_catchup(self):
        """Sub-access intervals force multi-boundary catch-ups at one pop."""
        ref, bat = run_engines(
            config_C_L(atd_sampling=4, interval_cycles=500),
            [make_trace(count=3000)], ("reference", "batched"), budget=10_000)
        assert_identical(ref, bat)
        assert ref.events.repartitions > 10

    def test_boundary_lands_mid_drain(self):
        """An interval shorter than the typical miss gap: most boundaries
        fire with undrained misses behind the thread's cursor."""
        (ref, bat), (ref_sim, bat_sim) = run_engines(
            config_M_L(atd_sampling=4, interval_cycles=2_000),
            [make_trace(footprint=3000)], ("reference", "batched"),
            budget=20_000, keep_sim=True)
        assert_identical(ref, bat)
        assert profiling_state(ref_sim) == profiling_state(bat_sim)

    def test_freeze_on_miss(self):
        """All-distinct lines: every access misses, the budget lands on a
        miss."""
        trace = Trace("stream", np.arange(20_000) + 1_000_000,
                      ipm=4.0, cpi_base=1.0)
        ref, bat = run_engines(config_unpartitioned("lru"), [trace],
                               ("reference", "batched"), budget=40_000)
        assert_identical(ref, bat)
        assert ref.threads[0].l1_misses == ref.threads[0].l1_accesses

    def test_freeze_on_hit(self):
        """Tiny footprint: after warm-up everything hits, the budget lands
        on an L1 hit inside a trailing hit-streak."""
        rng = np.random.default_rng(5)
        trace = Trace("tiny", rng.integers(0, 4, size=4000),
                      ipm=4.0, cpi_base=1.0)
        ref, bat = run_engines(config_unpartitioned("lru"), [trace],
                               ("reference", "batched"), budget=12_000)
        assert_identical(ref, bat)

    def test_budget_wraps_trace(self):
        """Budgets beyond one trace pass exercise the wrap-around reload."""
        ref, bat = run_engines(config_unpartitioned("lru"),
                               [make_trace(count=2500)],
                               ("reference", "batched"),
                               per_thread=(24_000,))
        assert_identical(ref, bat)

    def test_non_dyadic_timing_parameters(self):
        ref, bat = run_engines(config_unpartitioned("lru"),
                               [make_trace(ipm=2.6, cpi=1.1)],
                               ("reference", "batched"), budget=20_000)
        assert_identical(ref, bat)

    def test_mid_trace_chunk_reloads(self, monkeypatch):
        """Traces longer than the prefilter window exercise per-window
        offset arithmetic and boundary/freeze edges at window seams."""
        monkeypatch.setattr(batched_mod, "CHUNK_SIZE", 512)
        ref, bat = run_engines(
            config_C_L(atd_sampling=4, interval_cycles=20_000),
            [make_trace()], ("reference", "batched"))
        assert_identical(ref, bat)

    def test_max_cycles_raises(self):
        trace = Trace("stream", np.arange(20_000) + 1_000_000,
                      ipm=4.0, cpi_base=1.0)
        sim = CMPSimulator(
            processor(), config_unpartitioned("lru"), [trace],
            SimulationConfig(instructions_per_thread=40_000, seed=7,
                             max_cycles=10_000, engine="batched"))
        with pytest.raises(RuntimeError, match="max_cycles"):
            sim.run()

    def test_bandwidth_channel_partitioned(self):
        """Queue feedback plus boundaries in one single-thread run."""
        ref, bat = run_engines(
            config_M_L(atd_sampling=4, interval_cycles=20_000),
            [make_trace(footprint=5000)], ("reference", "batched"),
            service_interval=400.0)
        assert_identical(ref, bat)
        assert ref.events.memory_queue_cycles > 0 < ref.events.repartitions

    def test_kernelless_policy_runs_on_the_vector_path(self, monkeypatch):
        """A subclass of a paper policy is not the stock class, so it has
        no rendering: it runs on the reference engine over the generic
        ``access_line_hit``, which ``auto`` picks and the batched engine
        refuses by name.  (The name dates from the vector engine's window
        path.)"""
        from repro.cache.replacement.base import POLICY_REGISTRY

        class MRUVictim(POLICY_REGISTRY["lru"]):
            def victim(self, set_index, core, mask):
                for way in self.stack_order(set_index):
                    if (mask >> way) & 1:
                        return way
                return super().victim(set_index, core, mask)

        config = config_unpartitioned("lru")
        stock = run_engines(config, [make_trace()], ("reference",))[0]
        monkeypatch.setitem(POLICY_REGISTRY, "lru", MRUVictim)
        ref, auto_sim = reference_only(
            config, [make_trace()], "no rendering of the L2's MRUVictim",
            keep_sim=True)
        assert rendered_key(auto_sim.hierarchy.l2) is None
        assert ref.threads[0].l2_misses != stock.threads[0].l2_misses


class TestDeferredDrains:
    """The batched engine's buffered ATD observation vs immediate calls."""

    def _make(self, engine, immediate=False, per_thread=None,
              interval=20_000):
        traces = []
        for core in range(2):
            rng = np.random.default_rng(100 + core)
            lines = rng.integers(0, 48 * (4 ** core), size=6000) \
                + core * 1_000_000
            traces.append(Trace(f"t{core}", lines, ipm=4.0, cpi_base=1.0))
        sim = CMPSimulator(
            processor(2),
            config_M_L(atd_sampling=4, interval_cycles=interval),
            traces,
            SimulationConfig(instructions_per_thread=30_000,
                             per_thread_instructions=per_thread,
                             seed=7, engine=engine),
        )
        if immediate:
            # A wrapper is not the stock bound ProfilingSystem.observe, so
            # only the reference engine's immediate calls are exact.
            observe = sim.profiling.observe
            sim.hierarchy.l2_observer = \
                lambda core, line: observe(core, line)
        return sim

    def test_deferred_vs_immediate_bit_identity(self):
        """An immediate observer is not deferrable: the batched engine
        refuses it and ``auto`` observes per access on the reference
        engine — the state deferral reproduces."""
        with pytest.raises(ValueError, match="a custom L2 observer"):
            self._make("batched", immediate=True).run()
        deferred = self._make("batched")
        immediate = self._make("auto", immediate=True)
        reference = self._make("reference")
        r_def = deferred.run()
        r_imm = immediate.run()
        r_ref = reference.run()
        assert_identical(r_ref, r_def)
        assert_identical(r_ref, r_imm)
        assert profiling_state(deferred) == profiling_state(immediate)
        assert profiling_state(deferred) == profiling_state(reference)

    def test_boundary_lands_mid_drain(self):
        """Short intervals: boundaries fire with non-empty buffers on both
        threads; the drains must precede every SDH read/halve."""
        deferred = self._make("batched", interval=2_000)
        reference = self._make("reference", interval=2_000)
        r_def = deferred.run()
        r_ref = reference.run()
        assert r_ref.events.repartitions > 5
        assert_identical(r_ref, r_def)
        assert profiling_state(deferred) == profiling_state(reference)

    def test_freeze_with_non_empty_buffer(self):
        """One thread freezes long before any boundary: its buffer drains
        at the freeze and keeps filling afterwards (frozen threads still
        execute), with counts identical to per-access observation."""
        per_thread = (2_000, 60_000)
        deferred = self._make("batched", per_thread=per_thread,
                              interval=10_000_000)
        reference = self._make("reference", per_thread=per_thread,
                               interval=10_000_000)
        r_def = deferred.run()
        r_ref = reference.run()
        assert_identical(r_ref, r_def)
        assert r_ref.events.atd_accesses > 0
        assert profiling_state(deferred) == profiling_state(reference)

    @pytest.mark.parametrize("policy", ["lru", "nru", "bt"])
    def test_observe_many_kernel_equivalence(self, policy):
        """Batch kernels vs per-line observation on identical streams."""
        geometry = CacheGeometry(64 * 8 * 128, 8, 128)
        rng = np.random.default_rng(3)
        stream = [int(x) for x in rng.integers(0, 2048, size=8_000)]
        one = ATD(geometry, 4, policy, make_profiler(policy),
                  rng=np.random.default_rng(9))
        many = ATD(geometry, 4, policy, make_profiler(policy),
                   rng=np.random.default_rng(9))
        assert type(one).observe_many is not type(many.observe_many), \
            "batch kernel must be bound for kernelised policies"
        for line in stream:
            one.observe(line)
        # Drain in irregular slices, like the engines do.
        cut1, cut2 = 1_000, 5_500
        many.observe_many(array("q", stream[:cut1]))
        many.observe_many(array("q", stream[cut1:cut2]))
        many.observe_many(array("q", stream[cut2:]))
        assert list(one.state.lines) == list(many.state.lines)
        assert list(one.sdh._r) == list(many.sdh._r)
        assert one.sampled_accesses == many.sampled_accesses
        assert one.skipped_accesses == many.skipped_accesses

    @pytest.mark.parametrize("policy", ["lru", "nru", "bt"])
    def test_observe_many_generic_fallback(self, policy):
        """The class's ``observe_many`` loop, called on a stock ATD whose
        drains are bound to the compiled kernel, leaves the same state
        as the kernel."""
        geometry = CacheGeometry(64 * 8 * 128, 8, 128)
        rng = np.random.default_rng(3)
        stream = [int(x) for x in rng.integers(0, 2048, size=4_000)]
        kernel = ATD(geometry, 4, policy, make_profiler(policy),
                     rng=np.random.default_rng(9))
        generic = ATD(geometry, 4, policy, make_profiler(policy),
                      rng=np.random.default_rng(9))
        kernel.observe_many(array("q", stream))
        ATD.observe_many(generic, array("q", stream))
        assert list(kernel.state.lines) == list(generic.state.lines)
        assert list(kernel.sdh._r) == list(generic.sdh._r)
        assert kernel.sampled_accesses == generic.sampled_accesses
        assert kernel.skipped_accesses == generic.skipped_accesses


class TestEngineSelection:
    def test_default_is_auto(self):
        assert SimulationConfig().engine == "auto"

    def test_auto_resolution(self):
        """``auto`` is batched at every core count for a read-only stock
        run and the reference engine for a write trace; explicit names
        pass through."""
        for cores in (1, 2, 8):
            traces = [make_trace(name=f"t{i}", seed=100 + i)
                      for i in range(cores)]
            sim = CMPSimulator(processor(cores), config_unpartitioned("lru"),
                               traces, SimulationConfig())
            assert resolve_engine_name("auto", sim) == "batched"
            for explicit in ("reference", "batched"):
                assert resolve_engine_name(explicit, sim) == explicit
        sim = CMPSimulator(processor(), config_unpartitioned("lru"),
                           [overlay_writes(make_trace(), 0.2, seed=1)],
                           SimulationConfig())
        assert resolve_engine_name("auto", sim) == "reference"

    def test_make_engine_auto_is_batched_for_one_core(self):
        sim = CMPSimulator(processor(), config_unpartitioned("lru"),
                           [make_trace()], SimulationConfig())
        engine = make_engine(sim, sim.simulation.engine)
        assert type(engine) is BatchedEngine and engine.n == 1

    def test_make_engine_auto_picks_batched_for_multi_core(self):
        traces = [make_trace(name=f"t{i}", seed=100 + i) for i in range(2)]
        sim = CMPSimulator(processor(2), config_unpartitioned("lru"),
                           traces, SimulationConfig())
        assert isinstance(make_engine(sim, sim.simulation.engine),
                          BatchedEngine)

    def test_solo_rejects_multi_core(self):
        """``solo`` is no engine name any more — multi-core or not."""
        assert_unknown_engine("solo")

    def test_isolation_runner_uses_batched(self):
        """Campaign isolation jobs run through IsolationRunner with the
        default config — the auto engine resolves to batched there, and
        on a host with ``cc`` the run binds the compiled loop."""
        runner = IsolationRunner(processor(), SimulationConfig())
        assert runner.simulation.engine == "auto"
        before = binds(("lru", "none"))
        result = runner.thread_result(make_trace(), "lru")
        assert result.ipc > 0
        assert binds(("lru", "none")) == before + 1


def assert_unknown_engine(removed):
    """The configuration refuses ``removed`` as an engine name, and so
    does the registry for a caller that bypasses it — at one core as at
    two."""
    with pytest.raises(ValueError, match="engine must be one of"):
        SimulationConfig(engine=removed)
    for cores in (1, 2):
        traces = [make_trace(name=f"t{i}", seed=100 + i)
                  for i in range(cores)]
        sim = CMPSimulator(processor(cores), config_unpartitioned("lru"),
                           traces, SimulationConfig())
        with pytest.raises(ValueError, match=f"unknown engine '{removed}'"):
            make_engine(sim, removed)


class TestIsolationFingerprintKey:
    def test_distinct_traces_same_shape_do_not_collide(self):
        """Two traces with the same name, first line and length — the old
        (name, first_line, len) key returned the first trace's cached
        result for the second."""
        rng = np.random.default_rng(0)
        lines_a = rng.integers(0, 300, size=4000)
        lines_b = lines_a.copy()
        lines_b[1:] = rng.permutation(lines_b[1:]) + 1  # same first line
        a = Trace("same", lines_a, ipm=4.0, cpi_base=1.0)
        b = Trace("same", lines_b, ipm=4.0, cpi_base=1.0)
        assert (a.name, int(a.lines[0]), len(a)) == \
            (b.name, int(b.lines[0]), len(b))

        shared = IsolationRunner(processor(), SimulationConfig(
            instructions_per_thread=16_000))
        res_a = shared.thread_result(a, "lru")
        res_b = shared.thread_result(b, "lru")
        assert len(shared) == 2

        fresh = IsolationRunner(processor(), SimulationConfig(
            instructions_per_thread=16_000))
        assert res_b == fresh.thread_result(b, "lru")
        assert res_a != res_b

    def test_memoisation_still_hits_for_equal_content(self):
        rng = np.random.default_rng(1)
        lines = rng.integers(0, 300, size=4000)
        a = Trace("x", lines, ipm=4.0, cpi_base=1.0)
        b = Trace("x", lines.copy(), ipm=4.0, cpi_base=1.0)
        runner = IsolationRunner(processor(), SimulationConfig(
            instructions_per_thread=16_000))
        res_a = runner.thread_result(a, "lru")
        res_b = runner.thread_result(b, "lru")
        assert len(runner) == 1
        assert res_a is res_b

    def test_fingerprint_content_sensitivity(self):
        rng = np.random.default_rng(2)
        lines = rng.integers(0, 300, size=1000)
        base = Trace("n", lines, ipm=4.0, cpi_base=1.0)
        assert base.fingerprint() == \
            Trace("other-name", lines.copy(), ipm=4.0, cpi_base=1.0).fingerprint()
        assert base.fingerprint() != \
            Trace("n", lines.copy(), ipm=2.0, cpi_base=1.0).fingerprint()
        assert base.fingerprint() != \
            Trace("n", lines.copy(), ipm=4.0, cpi_base=2.0).fingerprint()
        mutated = lines.copy()
        mutated[-1] += 1
        assert base.fingerprint() != \
            Trace("n", mutated, ipm=4.0, cpi_base=1.0).fingerprint()
        assert base.fingerprint() != \
            overlay_writes(base, 0.5, seed=1).fingerprint()
        # Cached: repeated calls return the same object.
        assert base.fingerprint() is base.fingerprint()
