"""Single-thread runs, second half: the Python target, hit-dense streams,
custom observers and the window cache as an n = 1 run sees it.

``test_solo_engine.py`` pins the batched engine at n = 1 against the
reference loop on the target ``transitions.bind`` picks.  This module
adds what the vector engine's suite held that no multi-core case covers:

* ``TestVectorVsReference`` — every scenario of
  ``TestSoloVsReference`` again with the loop held to its **Python
  target**, the loop a host without ``cc`` runs for every isolation job —
  and ``TestDeferredDrainsPythonTarget``, the same twin for the deferred
  ATD drains;
* streams dense with immediate same-set repeats and two-line
  alternations (long hit chains through the fused loop), on both targets;
* custom and wrapped L2 observers, which take the call-form loop;
* the **shared window cache** behind a single-thread run: a warm run
  skips the L1 walk and is bit-identical, the simulator's L1 is exact
  after cold and warm runs, and the ``vector.memo_stats()`` shim
  ``benchmarks/e2e`` reads repeats the cache's own counters.

(Module and class names date from the vector engine; they are kept
because they are the suite's recorded test ids.)
"""

import numpy as np
import pytest

import repro.cmp.engine.batched as batched_mod
import repro.cmp.engine.common as common_mod
import repro.cmp.engine.vector as vector_mod
import test_solo_engine as solo
from repro.cmp.engine import BatchedEngine, make_engine, resolve_engine_name
from repro.cmp.simulator import CMPSimulator
from repro.config import (
    POLICIES,
    SimulationConfig,
    config_M_L,
    config_unpartitioned,
)
from repro.workloads.trace import Trace
from repro.workloads.writes import overlay_writes
from test_engine_equivalence import PythonTarget
from test_solo_engine import (
    PARTITIONED_CONFIGS,
    assert_identical,
    make_trace,
    processor,
    profiling_state,
    run_engines,
)


def rotation_trace(count=6000, name="rot"):
    """Three L1-conflicting lines in distinct L2 sets, cycled.

    Every access misses the (2-set, 2-way) L1 but, once warm, hits the
    L2 — and in the grouped-by-set layout each set's subsequence is one
    line repeated: nearly every L2 access hits the MRU way.
    """
    pattern = np.array([0, 2, 4])
    lines = np.tile(pattern, count // pattern.size + 1)[:count]
    return Trace(name, lines, ipm=4.0, cpi_base=1.0)


def alternation_trace(count=8000, name="alt"):
    """Interleaved two-line alternations, pinned to reach the L2.

    Four (X, Y) pairs, all in L1 set 0 (8 distinct lines through a
    2-way set: every access misses L1) but in four different L2 sets —
    each L2 set sees a pure ``X, Y, X, Y, ...`` alternation.  A random
    tail follows so a corrupted replacement state would surface in later
    victim choices, and an odd prefix break ends set 0's run unpaired.
    """
    pairs = np.array([[0, 16], [2, 18], [4, 20], [6, 22]])
    body = np.tile(pairs.reshape(-1), count // 8 + 1)[: count - 1200]
    breaker = np.array([32, 0, 16, 0])  # third line breaks set 0's run
    rng = np.random.default_rng(17)
    tail = rng.integers(0, 300, size=1200 - breaker.size)
    return Trace(name, np.concatenate([body, breaker, tail]),
                 ipm=4.0, cpi_base=1.0)


class TestVectorVsReference(PythonTarget, solo.TestSoloVsReference):
    """Every single-thread scenario, on the Python target of the loop."""


class TestDeferredDrainsPythonTarget(PythonTarget, solo.TestDeferredDrains):
    """Every deferred-drain scenario with the loop *and* the drains held
    to the Python rendering (above, ``solo.TestDeferredDrains`` drains
    through the compiled kernels wherever the host has ``cc``)."""


class TestElision:
    """Hit-dense streams (shaped, originally, to maximise the vector
    engine's elision paths) at n = 1, vs the reference."""

    @pytest.mark.parametrize("policy", ["lru", "fifo", "nru", "bt", "random"])
    def test_repeat_heavy_stream(self, policy):
        """Nearly every grouped access is an immediate same-set repeat."""
        results = run_engines(config_unpartitioned(policy),
                              [rotation_trace()],
                              ("reference", "batched"))
        ref = results[0]
        for bat in results[1:]:
            assert_identical(ref, bat)
        # The shape did reach the L2 slow path en masse.
        assert ref.threads[0].l1_misses > 5000
        assert ref.threads[0].l2_accesses > 5000

    @pytest.mark.parametrize("policy", POLICIES)
    def test_alternation_stream(self, policy):
        """Two-line alternations, for every policy."""
        results = run_engines(config_unpartitioned(policy),
                              [alternation_trace()],
                              ("reference", "batched"))
        ref = results[0]
        for bat in results[1:]:
            assert_identical(ref, bat)
        assert ref.threads[0].l1_misses > 5000

    def test_alternation_partitioned_lru(self):
        """A partitioned LRU victim scan can reach stack position 1."""
        (ref, bat), (ref_sim, bat_sim) = run_engines(
            config_M_L(atd_sampling=4, interval_cycles=20_000),
            [alternation_trace()], ("reference", "batched"), keep_sim=True)
        assert_identical(ref, bat)
        assert profiling_state(ref_sim) == profiling_state(bat_sim)

    def test_alternation_with_writes_and_channel(self):
        trace = overlay_writes(alternation_trace(), 0.3, seed=4)
        ref, bat = run_engines(config_unpartitioned("lru"), [trace],
                               ("reference", "batched"),
                               service_interval=350.0)
        assert_identical(ref, bat)


class TestElisionPythonTarget(PythonTarget, TestElision):
    pass


class TestL1Memo:
    """A single-thread run prefilters through the shared window cache
    (:func:`repro.cmp.engine.common.l1_miss_window`) and nothing else."""

    def _run_solo(self, trace, budget=30_000, keep_sim=False,
                  max_cycles=None):
        sim = CMPSimulator(
            processor(), config_unpartitioned("lru"), [trace],
            SimulationConfig(instructions_per_thread=budget, seed=7,
                             max_cycles=max_cycles, engine="batched"))
        result = sim.run()
        return (result, sim) if keep_sim else result

    def test_replay_is_bit_identical_and_skips_l1(self, monkeypatch):
        from repro.cache.l1 import SmallLRUCache

        trace = make_trace(seed=321, name="memo")
        first = self._run_solo(trace)
        cold = common_mod.window_cache_stats()
        assert cold["lookups"] > 0 and cold["hits"] == 0
        walks = []
        bulk = SmallLRUCache.access_lines_hit
        monkeypatch.setattr(
            SmallLRUCache, "access_lines_hit",
            lambda self, lines: walks.append(len(lines)) or bulk(self, lines))
        # Same content under a different Trace object: the fingerprint
        # key must hit on every lookup, the L1 walk must be skipped...
        clone = Trace("memo", trace.lines.copy(), ipm=4.0, cpi_base=1.0)
        second = self._run_solo(clone)
        warm = common_mod.window_cache_stats()
        assert warm["lookups"] == 2 * cold["lookups"]
        assert warm["hits"] == cold["lookups"]
        assert walks == []
        # ... and every reported number must still be bit-identical.
        assert_identical(first, second)

    def test_replay_matches_reference(self):
        trace = make_trace(seed=654, name="memo-ref")
        self._run_solo(trace)  # prime the cache
        ref, bat = run_engines(config_unpartitioned("nru"), [trace],
                               ("reference", "batched"))
        assert common_mod.window_cache_stats()["hits"] > 0
        assert_identical(ref, bat)

    def test_key_covers_budget_and_chunk_size(self, monkeypatch):
        """A window is a function of (trace window, L1 state), not of the
        budget: a shorter run replays the longer one's windows.  Another
        chunk size cuts other windows and must not hit the old ones."""
        trace = make_trace(seed=987, name="memo-key")
        a = self._run_solo(trace, budget=30_000)
        lookups = common_mod.window_cache_stats()["lookups"]
        b = self._run_solo(trace, budget=12_000)
        stats = common_mod.window_cache_stats()
        assert stats["hits"] == stats["lookups"] - lookups
        assert a.threads[0].l1_accesses != b.threads[0].l1_accesses
        ref = run_engines(config_unpartitioned("lru"), [trace],
                          ("reference",), budget=12_000)[0]
        assert_identical(ref, b)
        monkeypatch.setattr(batched_mod, "CHUNK_SIZE", 512)
        c = self._run_solo(trace, budget=30_000)
        assert common_mod.window_cache_stats()["hits"] == stats["hits"]
        assert_identical(a, c)

    def test_aborted_run_publishes_nothing(self):
        """Nothing that could replay wrongly: whatever a run aborted by
        ``max_cycles`` left in the cache, a later full run replays it
        bit-identically to a cold one."""
        trace = Trace("stream", np.arange(20_000) + 1_000_000,
                      ipm=4.0, cpi_base=1.0)
        with pytest.raises(RuntimeError, match="max_cycles"):
            self._run_solo(trace, budget=40_000, max_cycles=10_000)
        warm = self._run_solo(trace, budget=40_000)
        assert common_mod.window_cache_stats()["hits"] > 0
        common_mod.clear_window_cache()
        cold = self._run_solo(trace, budget=40_000)
        assert common_mod.window_cache_stats()["hits"] == 0
        assert_identical(cold, warm)

    def test_memo_is_bounded(self, monkeypatch):
        """More traces than fit: the accounted bytes stay under the one
        budget every engine shares."""
        budget = 20_000
        monkeypatch.setattr(common_mod, "WINDOW_CACHE_BYTES", budget)
        monkeypatch.setattr(batched_mod, "CHUNK_SIZE", 512)
        for seed in (1, 2, 3, 4):
            self._run_solo(make_trace(count=1500, seed=seed), budget=4_000)
            assert common_mod.window_cache_stats()["bytes"] <= budget
        stats = common_mod.window_cache_stats()
        assert stats["evictions"] > 0 and stats["entries"] > 0

    @pytest.mark.parametrize("passes", [1, 2])
    def test_l1_is_exact_after_cold_and_warm_runs(self, passes):
        """No stale-L1 path: after a batched run and after its warm repeat
        the simulator's own L1 — stacks, dirty set, statistics — is what
        the reference's per-access walk leaves.  (The budget ends on a
        window edge; the engines prefilter whole windows.)"""
        trace = make_trace(seed=55, name="l1-exact")
        budget = (passes * trace.instructions,)
        (ref, cold, warm), sims = run_engines(
            config_unpartitioned("lru"), [trace],
            ("reference", "batched", "batched"), per_thread=budget,
            keep_sim=True)
        assert common_mod.window_cache_stats()["hits"] > 0
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
    """The only engine-side cache is ``common._TRACES``: what is left of
    the vector module (a benchmark-owned stub around ``memo_stats``)
    keeps no module-level ``dict`` / ``list`` / ``OrderedDict``."""
    held = {name: value for name, value in vars(vector_mod).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set))}
    assert held == {}


class TestMemoStats:
    """``vector.memo_stats()``, the shim ``benchmarks/e2e`` reads: the
    window cache's counters as single-thread runs move them."""

    ZEROED = {"l1_hits": 0, "l1_misses": 0,
              "window_cache": {"lookups": 0, "hits": 0, "evictions": 0,
                               "entries": 0, "bytes": 0}}

    def _run(self, trace, engine="auto"):
        sim = CMPSimulator(
            processor(), config_unpartitioned("lru"), [trace],
            SimulationConfig(instructions_per_thread=30_000, seed=7,
                             engine=engine))
        return sim.run()

    def test_counters_track_lookups(self):
        common_mod.clear_window_cache()
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
        common_mod.clear_window_cache()
        trace = make_trace(seed=2121, count=1500, name="memo-copy")
        self._run(trace)
        snap = vector_mod.memo_stats()
        misses = snap["l1_misses"]
        snap["l1_misses"] = 99  # mutating the snapshot must not leak back
        snap["window_cache"]["lookups"] = 99
        assert vector_mod.memo_stats()["l1_misses"] == misses
        assert common_mod.window_cache_stats()["lookups"] == misses
        common_mod.clear_window_cache()
        assert vector_mod.memo_stats() == self.ZEROED

    def test_window_products_shared_across_backends(self):
        """One prefilter cache for the process: windows cached by an
        ``auto`` run are hit by the next one and by an explicit
        ``batched`` run on the same trace, results identical."""
        common_mod.clear_window_cache()
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
    def test_auto_resolves_batched_for_one_core(self):
        """The single-thread fast paths are gone: auto is batched for
        one thread as for eight."""
        assert resolve_engine_name("auto", 1) == "batched"
        assert resolve_engine_name("auto", 8) == "batched"
        sim = CMPSimulator(processor(), config_unpartitioned("lru"),
                           [make_trace()], SimulationConfig())
        assert type(make_engine(sim, sim.simulation.engine)) is BatchedEngine

    def test_vector_rejects_multi_core(self):
        """``vector`` is no engine name any more — multi-core or not."""
        solo.assert_unknown_engine("vector")


class TestCustomObserver:
    """A non-stock L2 observer must disable deferral yet stay
    bit-identical to the reference oracle.

    ``deferrable_profiling`` only engages for the stock
    ``ProfilingSystem.observe`` bound method; anything else (a wrapper, a
    test callable) needs its per-access call *during* the run, so the
    engine binds the call-form loop and does not defer ATD drains.
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
        bat, bat_sim, bat_calls = self._run("batched", config, wrap=True)
        assert_identical(ref, bat)
        assert profiling_state(ref_sim) == profiling_state(bat_sim)
        assert ref_calls == bat_calls
        assert ref_calls  # the observer actually fired

    @pytest.mark.parametrize("config", PARTITIONED_CONFIGS,
                             ids=lambda c: c.acronym)
    def test_wrapped_observer_matches_stock_run(self, config):
        """Wrapping the stock observer must not change the simulation:
        only the deferral strategy differs, never the results."""
        stock, stock_sim, _ = self._run("batched", config, wrap=False)
        wrapped, wrapped_sim, calls = self._run("batched", config, wrap=True)
        assert_identical(stock, wrapped)
        assert profiling_state(stock_sim) == profiling_state(wrapped_sim)
        assert calls

    def test_custom_observer_without_profiling_matches(self):
        """An observer on an unpartitioned run (no profiling system at
        all) also takes the call form and matches the oracle."""
        config = config_unpartitioned("lru")
        ref, _, ref_calls = self._run("reference", config, wrap=True)
        bat, _, bat_calls = self._run("batched", config, wrap=True)
        assert_identical(ref, bat)
        assert ref_calls == bat_calls
        assert ref_calls

    def test_custom_observer_disables_memoization(self):
        """A call-form run goes through the shared window cache like any
        other (the name predates it): identical cold and warm, observer
        calls included."""
        config = config_unpartitioned("lru")
        cold, _, cold_calls = self._run("batched", config, wrap=True)
        assert common_mod.window_cache_stats()["hits"] == 0
        warm, _, warm_calls = self._run("batched", config, wrap=True)
        assert common_mod.window_cache_stats()["hits"] > 0
        assert_identical(cold, warm)
        assert cold_calls == warm_calls and cold_calls
