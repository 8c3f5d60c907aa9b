"""Vector-engine differential suite.

Pins the window-at-a-time slow path (:mod:`repro.cmp.engine.vector`)
bit-identical to the reference loop on every single-thread workload —
all 10 replacement policies, every partition scheme, write traces (solo
fallback), the bandwidth channel, interval-boundary catch-ups, freeze
edges, budgets wrapping the trace and mid-trace chunk reloads — plus
what is specific to this engine:

* streams dense with immediate same-set repeats and two-line
  alternations (long hit chains through the window kernel),
* the **shared window cache**: a warm run skips the L1 walk and is
  bit-identical, the simulator's L1 is exact after cold and warm runs,
  and the module keeps no cache of its own.
"""

import dataclasses

import numpy as np
import pytest

import repro.cmp.engine.common as common_mod
import repro.cmp.engine.vector as vector_mod
from repro.cache.geometry import CacheGeometry
from repro.cmp.engine import SoloEngine, VectorEngine, make_engine, \
    resolve_engine_name
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
from repro.workloads.trace import Trace
from repro.workloads.writes import overlay_writes


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


def rotation_trace(count=6000, name="rot"):
    """Three L1-conflicting lines in distinct L2 sets, cycled.

    Every access misses the (2-set, 2-way) L1 but, once warm, hits the
    L2 — and in the grouped-by-set layout each set's subsequence is one
    line repeated, so nearly the whole window is repeat-elidable.
    """
    pattern = np.array([0, 2, 4])
    lines = np.tile(pattern, count // pattern.size + 1)[:count]
    return Trace(name, lines, ipm=4.0, cpi_base=1.0)


def alternation_trace(count=8000, name="alt"):
    """Interleaved two-line alternations, pinned to reach the L2.

    Four (X, Y) pairs, all in L1 set 0 (8 distinct lines through a
    2-way set: every access misses L1) but in four different L2 sets —
    each L2 set sees a pure ``X, Y, X, Y, ...`` alternation, the pair
    elision's target shape.  A random tail follows so a corrupted
    replacement state would surface in later victim choices, and an odd
    prefix break exercises the odd-tail (unpaired position) replay.
    """
    pairs = np.array([[0, 16], [2, 18], [4, 20], [6, 22]])
    body = np.tile(pairs.reshape(-1), count // 8 + 1)[: count - 1200]
    breaker = np.array([32, 0, 16, 0])  # third line breaks set 0's run
    rng = np.random.default_rng(17)
    tail = rng.integers(0, 300, size=1200 - breaker.size)
    return Trace(name, np.concatenate([body, breaker, tail]),
                 ipm=4.0, cpi_base=1.0)


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


class TestVectorVsReference:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_policies_unpartitioned(self, policy):
        results = run_engines(config_unpartitioned(policy), [make_trace()],
                              ("reference", "vector"))
        for vec in results[1:]:
            assert_identical(results[0], vec)

    @pytest.mark.parametrize("config", PARTITIONED_CONFIGS,
                             ids=lambda c: c.acronym)
    def test_partitioned_schemes(self, config):
        # Partitioned caches replay windows through the rendered kernel
        # of their (policy, scheme) pair.
        results, sims = run_engines(
            config, [make_trace()], ("reference", "vector"),
            keep_sim=True)
        assert results[0].events.repartitions > 0
        for vec, vec_sim in zip(results[1:], sims[1:]):
            assert_identical(results[0], vec)
            # Deferred drains must leave the exact per-access ATD/SDH state.
            assert profiling_state(sims[0]) == profiling_state(vec_sim)

    def test_write_trace_falls_back_to_solo(self):
        trace = overlay_writes(make_trace(), 0.4, seed=3)
        ref, vec = run_engines(config_unpartitioned("lru"), [trace],
                               ("reference", "vector"))
        assert_identical(ref, vec)
        assert ref.events.l1_writebacks > 0

    def test_kernelless_policy_runs_on_the_vector_path(self, monkeypatch):
        """A policy that opts out of the flat-state kernels
        (``kernel_kind = ""``) still replays windows — through the
        generic ``access_line_hit`` — instead of delegating to solo."""
        from repro.cache.replacement.base import POLICY_REGISTRY

        class MRUVictim(POLICY_REGISTRY["lru"]):
            kernel_kind = ""

            def victim(self, set_index, core, mask):
                for way in self.stack_order(set_index):
                    if (mask >> way) & 1:
                        return way
                return super().victim(set_index, core, mask)

        config = config_unpartitioned("lru")
        stock = run_engines(config, [make_trace()], ("reference",))[0]
        monkeypatch.setitem(POLICY_REGISTRY, "lru", MRUVictim)
        vector_mod.clear_memos()
        results = run_engines(config, [make_trace()],
                              ("reference", "vector"))
        for vec in results[1:]:
            assert_identical(results[0], vec)
        assert results[0].threads[0].l2_misses != stock.threads[0].l2_misses
        # The runs prefiltered through the shared window cache.
        assert vector_mod.memo_stats()["window_cache"]["entries"] >= 1
        vector_mod.clear_memos()

    def test_bandwidth_channel(self):
        ref, vec = run_engines(config_unpartitioned("lru"),
                               [make_trace(footprint=5000)],
                               ("reference", "vector"),
                               service_interval=400.0)
        assert_identical(ref, vec)
        assert ref.events.memory_queue_cycles > 0

    def test_bandwidth_channel_partitioned(self):
        """Queue feedback plus boundaries: the sequential timing replay."""
        ref, vec = run_engines(
            config_M_L(atd_sampling=4, interval_cycles=20_000),
            [make_trace(footprint=5000)], ("reference", "vector"),
            service_interval=400.0)
        assert_identical(ref, vec)

    def test_tiny_interval_boundary_catchup(self):
        """Sub-access intervals force multi-boundary catch-ups at one pop."""
        ref, vec = run_engines(
            config_C_L(atd_sampling=4, interval_cycles=500),
            [make_trace(count=3000)], ("reference", "vector"), budget=10_000)
        assert_identical(ref, vec)
        assert ref.events.repartitions > 10

    def test_boundary_lands_mid_drain(self):
        """An interval shorter than the typical miss gap: most boundaries
        fire while the observe buffer is non-empty."""
        (ref, vec), (ref_sim, vec_sim) = run_engines(
            config_M_L(atd_sampling=4, interval_cycles=2_000),
            [make_trace(footprint=3000)], ("reference", "vector"),
            budget=20_000, keep_sim=True)
        assert_identical(ref, vec)
        assert profiling_state(ref_sim) == profiling_state(vec_sim)

    def test_freeze_on_miss(self):
        trace = Trace("stream", np.arange(20_000) + 1_000_000,
                      ipm=4.0, cpi_base=1.0)
        ref, vec = run_engines(config_unpartitioned("lru"), [trace],
                               ("reference", "vector"), budget=40_000)
        assert_identical(ref, vec)
        assert ref.threads[0].l1_misses == ref.threads[0].l1_accesses

    def test_freeze_on_hit(self):
        rng = np.random.default_rng(5)
        trace = Trace("tiny", rng.integers(0, 4, size=4000),
                      ipm=4.0, cpi_base=1.0)
        ref, vec = run_engines(config_unpartitioned("lru"), [trace],
                               ("reference", "vector"), budget=12_000)
        assert_identical(ref, vec)

    def test_budget_wraps_trace(self):
        ref, vec = run_engines(config_unpartitioned("lru"),
                               [make_trace(count=2500)],
                               ("reference", "vector"),
                               per_thread=(24_000,))
        assert_identical(ref, vec)

    def test_non_dyadic_timing_parameters(self):
        ref, vec = run_engines(config_unpartitioned("lru"),
                               [make_trace(ipm=2.6, cpi=1.1)],
                               ("reference", "vector"), budget=20_000)
        assert_identical(ref, vec)

    def test_mid_trace_chunk_reloads(self, monkeypatch):
        monkeypatch.setattr(vector_mod, "CHUNK_SIZE", 512)
        ref, vec = run_engines(
            config_C_L(atd_sampling=4, interval_cycles=20_000),
            [make_trace()], ("reference", "vector"))
        assert_identical(ref, vec)

    def test_max_cycles_raises(self):
        trace = Trace("stream", np.arange(20_000) + 1_000_000,
                      ipm=4.0, cpi_base=1.0)
        sim = CMPSimulator(
            processor(), config_unpartitioned("lru"), [trace],
            SimulationConfig(instructions_per_thread=40_000, seed=7,
                             max_cycles=10_000, engine="vector"))
        with pytest.raises(RuntimeError, match="max_cycles"):
            sim.run()

    def test_vector_matches_solo(self):
        """Transitivity check straight against the solo engine."""
        solo, vec = run_engines(
            config_M_N(0.75, atd_sampling=4, interval_cycles=20_000),
            [make_trace()], ("solo", "vector"))
        assert_identical(solo, vec)


class TestElision:
    """Streams shaped to maximise each elision path, vs the reference."""

    @pytest.mark.parametrize("policy", ["lru", "fifo", "nru", "bt", "random"])
    def test_repeat_heavy_stream(self, policy):
        """Nearly every grouped access is an immediate same-set repeat."""
        results = run_engines(config_unpartitioned(policy),
                              [rotation_trace()],
                              ("reference", "vector"))
        ref = results[0]
        for vec in results[1:]:
            assert_identical(ref, vec)
        # The shape did reach the L2 slow path en masse.
        assert ref.threads[0].l1_misses > 5000
        assert ref.threads[0].l2_accesses > 5000

    @pytest.mark.parametrize("policy", POLICIES)
    def test_alternation_stream(self, policy):
        """Two-line alternations: pair-elided for unpartitioned lru/bt,
        replayed in full (still bit-identical) for every other kind."""
        results = run_engines(config_unpartitioned(policy),
                              [alternation_trace()],
                              ("reference", "vector"))
        ref = results[0]
        for vec in results[1:]:
            assert_identical(ref, vec)
        assert ref.threads[0].l1_misses > 5000

    def test_alternation_partitioned_lru(self):
        """pair_elidable gates on partitioning: a partitioned LRU victim
        scan can reach stack position 1, so alternations must replay."""
        (ref, vec), (ref_sim, vec_sim) = run_engines(
            config_M_L(atd_sampling=4, interval_cycles=20_000),
            [alternation_trace()], ("reference", "vector"), keep_sim=True)
        assert_identical(ref, vec)
        assert profiling_state(ref_sim) == profiling_state(vec_sim)

    def test_alternation_with_writes_and_channel(self):
        trace = overlay_writes(alternation_trace(), 0.3, seed=4)
        ref, vec = run_engines(config_unpartitioned("lru"), [trace],
                               ("reference", "vector"),
                               service_interval=350.0)
        assert_identical(ref, vec)


class TestL1Memo:
    """The vector engine prefilters through the shared window cache
    (:func:`repro.cmp.engine.common.l1_miss_window`) and nothing else."""

    def _run_vector(self, trace, budget=30_000, keep_sim=False,
                    max_cycles=None):
        sim = CMPSimulator(
            processor(), config_unpartitioned("lru"), [trace],
            SimulationConfig(instructions_per_thread=budget, seed=7,
                             max_cycles=max_cycles, engine="vector"))
        result = sim.run()
        return (result, sim) if keep_sim else result

    def test_replay_is_bit_identical_and_skips_l1(self, monkeypatch):
        from repro.cache.l1 import SmallLRUCache

        trace = make_trace(seed=321, name="memo")
        first = self._run_vector(trace)
        cold = vector_mod.memo_stats()["window_cache"]
        assert cold["lookups"] > 0 and cold["hits"] == 0
        walks = []
        bulk = SmallLRUCache.access_lines_hit
        monkeypatch.setattr(
            SmallLRUCache, "access_lines_hit",
            lambda self, lines: walks.append(len(lines)) or bulk(self, lines))
        # Same content under a different Trace object: the fingerprint
        # key must hit on every lookup, the L1 walk must be skipped...
        clone = Trace("memo", trace.lines.copy(), ipm=4.0, cpi_base=1.0)
        second = self._run_vector(clone)
        warm = vector_mod.memo_stats()["window_cache"]
        assert warm["lookups"] == 2 * cold["lookups"]
        assert warm["hits"] == cold["lookups"]
        assert walks == []
        # ... and every reported number must still be bit-identical.
        assert_identical(first, second)

    def test_replay_matches_reference(self):
        trace = make_trace(seed=654, name="memo-ref")
        self._run_vector(trace)  # prime the cache
        ref, vec = run_engines(config_unpartitioned("nru"), [trace],
                               ("reference", "vector"))
        assert vector_mod.memo_stats()["l1_hits"] > 0
        assert_identical(ref, vec)

    def test_key_covers_budget_and_chunk_size(self, monkeypatch):
        """A window is a function of (trace window, L1 state), not of the
        budget: a shorter run replays the longer one's windows.  Another
        chunk size cuts other windows and must not hit the old ones."""
        trace = make_trace(seed=987, name="memo-key")
        a = self._run_vector(trace, budget=30_000)
        lookups = vector_mod.memo_stats()["window_cache"]["lookups"]
        b = self._run_vector(trace, budget=12_000)
        stats = vector_mod.memo_stats()
        assert stats["l1_hits"] == stats["window_cache"]["lookups"] - lookups
        assert a.threads[0].l1_accesses != b.threads[0].l1_accesses
        ref = run_engines(config_unpartitioned("lru"), [trace],
                          ("reference",), budget=12_000)[0]
        assert_identical(ref, b)
        monkeypatch.setattr(vector_mod, "CHUNK_SIZE", 512)
        c = self._run_vector(trace, budget=30_000)
        assert vector_mod.memo_stats()["l1_hits"] == stats["l1_hits"]
        assert_identical(a, c)

    def test_aborted_run_publishes_nothing(self):
        """Nothing that could replay wrongly: whatever a run aborted by
        ``max_cycles`` left in the cache, a later full run replays it
        bit-identically to a cold one."""
        trace = Trace("stream", np.arange(20_000) + 1_000_000,
                      ipm=4.0, cpi_base=1.0)
        with pytest.raises(RuntimeError, match="max_cycles"):
            self._run_vector(trace, budget=40_000, max_cycles=10_000)
        warm = self._run_vector(trace, budget=40_000)
        assert vector_mod.memo_stats()["l1_hits"] > 0
        vector_mod.clear_memos()
        cold = self._run_vector(trace, budget=40_000)
        assert vector_mod.memo_stats()["l1_hits"] == 0
        assert_identical(cold, warm)

    def test_memo_is_bounded(self, monkeypatch):
        """More traces than fit: the accounted bytes stay under the one
        budget every engine shares."""
        budget = 20_000
        monkeypatch.setattr(common_mod, "WINDOW_CACHE_BYTES", budget)
        monkeypatch.setattr(vector_mod, "CHUNK_SIZE", 512)
        for seed in (1, 2, 3, 4):
            self._run_vector(make_trace(count=1500, seed=seed), budget=4_000)
            assert vector_mod.memo_stats()["window_cache"]["bytes"] <= budget
        stats = vector_mod.memo_stats()["window_cache"]
        assert stats["evictions"] > 0 and stats["entries"] > 0

    @pytest.mark.parametrize("passes", [1, 2])
    def test_l1_is_exact_after_cold_and_warm_runs(self, passes):
        """No stale-L1 path: after a vector run and after its warm repeat
        the simulator's own L1 — stacks, dirty set, statistics — is what
        the reference's per-access walk leaves.  (The budget ends on a
        window edge; the engines prefilter whole windows.)"""
        trace = make_trace(seed=55, name="l1-exact")
        budget = (passes * trace.instructions,)
        (ref, cold, warm), sims = run_engines(
            config_unpartitioned("lru"), [trace],
            ("reference", "vector", "vector"), per_thread=budget,
            keep_sim=True)
        assert vector_mod.memo_stats()["l1_hits"] > 0
        ref_l1 = sims[0].hierarchy.l1[0]
        for result, sim in zip((cold, warm), sims[1:]):
            assert_identical(ref, result)
            l1 = sim.hierarchy.l1[0]
            assert l1.snapshot() == ref_l1.snapshot()
            for field in type(l1.stats).__slots__:
                assert getattr(l1.stats, field) == \
                    getattr(ref_l1.stats, field), field
            assert l1.stats.accesses[0] == result.events.l1_accesses


def test_vector_module_holds_no_containers():
    """The only engine-side cache is ``common._TRACES``: the vector
    module keeps no module-level ``dict`` / ``list`` / ``OrderedDict``."""
    held = {name: value for name, value in vars(vector_mod).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set))}
    assert held == {}


class TestMemoStats:
    """memo_stats()/clear_memos(): the window cache's observability."""

    ZEROED = {"l1_hits": 0, "l1_misses": 0,
              "window_cache": {"lookups": 0, "hits": 0, "evictions": 0,
                               "entries": 0, "bytes": 0}}

    def _run(self, trace, engine="vector"):
        sim = CMPSimulator(
            processor(), config_unpartitioned("lru"), [trace],
            SimulationConfig(instructions_per_thread=30_000, seed=7,
                             engine=engine))
        return sim.run()

    def test_counters_track_lookups(self):
        vector_mod.clear_memos()
        stats = vector_mod.memo_stats()
        assert stats == self.ZEROED
        trace = make_trace(seed=4242, name="memo-stats")
        self._run(trace)
        stats = vector_mod.memo_stats()
        lookups = stats["window_cache"]["lookups"]
        assert stats["l1_misses"] == lookups > 0 and stats["l1_hits"] == 0
        assert stats["window_cache"]["entries"] == lookups
        self._run(trace)
        stats = vector_mod.memo_stats()
        assert stats["l1_hits"] == lookups and stats["l1_misses"] == lookups
        assert stats["window_cache"]["lookups"] == 2 * lookups

    def test_snapshot_is_a_copy_and_clear_resets(self):
        vector_mod.clear_memos()
        trace = make_trace(seed=2121, count=1500, name="memo-copy")
        self._run(trace)
        snap = vector_mod.memo_stats()
        misses = snap["l1_misses"]
        snap["l1_misses"] = 99  # mutating the snapshot must not leak back
        snap["window_cache"]["lookups"] = 99
        assert vector_mod.memo_stats()["l1_misses"] == misses
        assert vector_mod.memo_stats()["window_cache"]["lookups"] == misses
        vector_mod.clear_memos()
        assert vector_mod.memo_stats() == self.ZEROED

    def test_window_products_shared_across_backends(self):
        """One prefilter cache for the process: windows cached by a
        vector run are hit by the next vector run and by the batched
        engine at n = 1 on the same trace, results identical."""
        vector_mod.clear_memos()
        trace = make_trace(seed=777, name="memo-xbackend")
        first = self._run(trace)
        lookups = vector_mod.memo_stats()["l1_misses"]
        assert lookups > 0
        second = self._run(trace)
        assert vector_mod.memo_stats()["l1_hits"] == lookups
        third = self._run(trace, engine="batched")
        stats = vector_mod.memo_stats()
        assert stats["l1_hits"] >= 2 * lookups
        assert stats["l1_misses"] == lookups
        assert_identical(first, second)
        assert_identical(first, third)


class TestEngineSelection:
    def test_auto_resolves_vector_for_one_core(self):
        """The promotion: auto picks vector for single-thread runs, backed
        by the recorded benchmarks and the ``repro fuzz`` soak."""
        assert resolve_engine_name("auto", 1) == "vector"
        assert resolve_engine_name("auto", 2) == "batched"
        assert resolve_engine_name("vector", 1) == "vector"
        assert resolve_engine_name("solo", 1) == "solo"
        sim = CMPSimulator(processor(), config_unpartitioned("lru"),
                           [make_trace()], SimulationConfig())
        assert isinstance(make_engine(sim, sim.simulation.engine),
                          VectorEngine)

    def test_make_engine_vector(self):
        sim = CMPSimulator(processor(), config_unpartitioned("lru"),
                           [make_trace()],
                           SimulationConfig(engine="vector"))
        assert isinstance(make_engine(sim, sim.simulation.engine),
                          VectorEngine)

    def test_vector_rejects_multi_core(self):
        traces = [make_trace(name=f"t{i}", seed=100 + i) for i in range(2)]
        sim = CMPSimulator(processor(2), config_unpartitioned("lru"),
                           traces, SimulationConfig(engine="vector"))
        with pytest.raises(ValueError, match="exactly one thread"):
            sim.run()


class TestCustomObserver:
    """A non-stock L2 observer must disable deferral yet stay
    bit-identical to the reference oracle.

    ``deferrable_profiling`` only engages for the stock
    ``ProfilingSystem.observe`` bound method; anything else (a wrapper, a
    test callable) needs its per-access call *during* the run, so the
    vector engine takes the solo delegation and does not defer ATD
    drains.
    """

    @staticmethod
    def _wrap(sim, calls):
        """Replace the stock observer with a recording pass-through."""
        stock = sim.hierarchy.l2_observer

        def observer(core, line):
            calls.append((core, line))
            if stock is not None:
                stock(core, line)

        sim.hierarchy.l2_observer = observer
        return observer

    def _run(self, engine, partitioning, wrap, trace=None):
        if trace is None:
            trace = make_trace()
        sim = CMPSimulator(processor(), partitioning, [trace],
                           SimulationConfig(engine=engine))
        calls = []
        if wrap:
            self._wrap(sim, calls)
        result = sim.run()
        return result, sim, calls

    @pytest.mark.parametrize("config", PARTITIONED_CONFIGS,
                             ids=lambda c: c.acronym)
    def test_wrapped_observer_matches_reference(self, config):
        """Same wrapped observer on both engines: identical results,
        profiling state and per-access call sequences."""
        ref, ref_sim, ref_calls = self._run("reference", config, wrap=True)
        vec, vec_sim, vec_calls = self._run("vector", config, wrap=True)
        assert_identical(ref, vec)
        assert profiling_state(ref_sim) == profiling_state(vec_sim)
        assert ref_calls == vec_calls
        assert ref_calls  # the observer actually fired

    @pytest.mark.parametrize("config", PARTITIONED_CONFIGS,
                             ids=lambda c: c.acronym)
    def test_wrapped_observer_matches_stock_run(self, config):
        """Wrapping the stock observer must not change the simulation:
        only the deferral strategy differs, never the results."""
        stock, stock_sim, _ = self._run("vector", config, wrap=False)
        wrapped, wrapped_sim, calls = self._run("vector", config, wrap=True)
        assert_identical(stock, wrapped)
        assert profiling_state(stock_sim) == profiling_state(wrapped_sim)
        assert calls

    def test_custom_observer_without_profiling_matches(self):
        """An observer on an unpartitioned run (no profiling system at
        all) also takes the delegation and matches the oracle."""
        config = config_unpartitioned("lru")
        ref, _, ref_calls = self._run("reference", config, wrap=True)
        vec, _, vec_calls = self._run("vector", config, wrap=True)
        assert_identical(ref, vec)
        assert ref_calls == vec_calls
        assert ref_calls

    def test_custom_observer_disables_memoization(self):
        """A delegated run goes through the shared window cache like any
        other: identical cold and warm, observer calls included."""
        config = config_unpartitioned("lru")
        cold, _, cold_calls = self._run("vector", config, wrap=True)
        assert vector_mod.memo_stats()["l1_hits"] == 0
        warm, _, warm_calls = self._run("vector", config, wrap=True)
        assert vector_mod.memo_stats()["l1_hits"] > 0
        assert_identical(cold, warm)
        assert cold_calls == warm_calls and cold_calls
