"""Single-thread runs, second half: hit-dense streams, custom observers
and the L1 walk as an n = 1 run sees it.

``test_solo_engine.py`` pins the batched engine at n = 1 against the
reference loop.  This module adds what the vector engine's suite held
that no multi-core case covers:

* streams dense with immediate same-set repeats and two-line
  alternations (long hit chains through the fused loop);
* custom and wrapped L2 observers, which the batched engine refuses and
  ``auto`` takes to the reference engine;
* the L1 a single-thread run walks window by window: a repeat run is
  bit-identical and the simulator's L1 is exact after every run.

(Module and class names date from the vector engine; they are kept
because they are the suite's recorded test ids.)
"""

import numpy as np
import pytest

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
from test_solo_engine import (
    PARTITIONED_CONFIGS,
    assert_identical,
    make_trace,
    processor,
    profiling_state,
    reference_only,
    run_engines,
)

#: The policies with a rendering: the only ones the batched engine runs.
PAPER_POLICIES = ("lru", "nru", "bt")


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


class TestElision:
    """Hit-dense streams (shaped, originally, to maximise the vector
    engine's elision paths) at n = 1, vs the reference."""

    @staticmethod
    def against_reference(policy, trace):
        """The reference result, which the batched run reproduces — or,
        for a policy without a rendering, which ``auto`` reproduces."""
        config = config_unpartitioned(policy)
        if policy not in PAPER_POLICIES:
            return reference_only(config, [trace],
                                  "no rendering of the L2's .*Policy")
        ref, bat = run_engines(config, [trace], ("reference", "batched"))
        assert_identical(ref, bat)
        return ref

    @pytest.mark.parametrize("policy", ["lru", "fifo", "nru", "bt", "random"])
    def test_repeat_heavy_stream(self, policy):
        """Nearly every grouped access is an immediate same-set repeat."""
        ref = self.against_reference(policy, rotation_trace())
        # The shape did reach the L2 slow path en masse.
        assert ref.threads[0].l1_misses > 5000
        assert ref.threads[0].l2_accesses > 5000

    @pytest.mark.parametrize("policy", POLICIES)
    def test_alternation_stream(self, policy):
        """Two-line alternations, for every policy."""
        ref = self.against_reference(policy, alternation_trace())
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
        reference_only(config_unpartitioned("lru"), [trace],
                       "a trace writes", service_interval=350.0)


class TestL1Memo:
    """A single-thread run walks its L1 window by window through the
    ``prefilter`` kernel and nothing else: a repeat run in the same
    process walks again and is bit-identical, and the simulator's L1 is
    exact after every run.  (The class name dates from the window cache
    those repeats once replayed; it is kept for the suite's recorded
    ids.)"""

    def _run_solo(self, trace, budget=30_000, max_cycles=None):
        sim = CMPSimulator(
            processor(), config_unpartitioned("lru"), [trace],
            SimulationConfig(instructions_per_thread=budget, seed=7,
                             max_cycles=max_cycles, engine="batched"))
        return sim.run()

    def test_replay_matches_reference(self):
        trace = make_trace(seed=654, name="memo-ref")
        self._run_solo(trace)               # an earlier run of the trace
        ref, bat = run_engines(config_unpartitioned("nru"), [trace],
                               ("reference", "batched"))
        assert_identical(ref, bat)

    def test_aborted_run_publishes_nothing(self):
        """Whatever a run aborted by ``max_cycles`` left behind, a later
        full run of the same trace is the reference's."""
        trace = Trace("stream", np.arange(20_000) + 1_000_000,
                      ipm=4.0, cpi_base=1.0)
        with pytest.raises(RuntimeError, match="max_cycles"):
            self._run_solo(trace, budget=40_000, max_cycles=10_000)
        after = self._run_solo(trace, budget=40_000)
        ref = run_engines(config_unpartitioned("lru"), [trace],
                          ("reference",), budget=40_000)[0]
        assert_identical(ref, after)

    @pytest.mark.parametrize("passes", [1, 2, 3, 7])
    def test_l1_is_exact_after_cold_and_warm_runs(self, passes):
        """After a batched run and after its repeat the simulator's own
        L1 — slots, dirty flags, statistics — is what the reference's
        per-access walk leaves.  (The budget ends on a window edge; the
        engines prefilter whole windows.  From the third pass on a
        one-window trace takes its fixed window.)"""
        trace = make_trace(seed=55, name="l1-exact")
        budget = (passes * trace.instructions,)
        (ref, cold, warm), sims = run_engines(
            config_unpartitioned("lru"), [trace],
            ("reference", "batched", "batched"), per_thread=budget,
            keep_sim=True)
        ref_l1 = sims[0].hierarchy.l1[0]
        for result, sim in zip((cold, warm), sims[1:]):
            assert_identical(ref, result)
            l1 = sim.hierarchy.l1[0]
            assert l1._slots == ref_l1._slots
            assert l1._dirty == ref_l1._dirty
            for field in type(l1.stats).__slots__:
                assert getattr(l1.stats, field) == \
                    getattr(ref_l1.stats, field), field
            assert l1.stats.accesses[0] == result.events.l1_accesses


def test_vector_module_holds_no_containers():
    """No engine-side cache survives a run: what is left of the vector
    module (a benchmark-owned stub around ``memo_stats``) keeps no
    module-level ``dict`` / ``list`` / ``set``."""
    held = {name: value for name, value in vars(vector_mod).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set))}
    assert held == {}


class TestEngineSelection:
    def test_auto_resolves_batched_for_one_core(self):
        """The single-thread fast paths are gone: auto is batched for
        one thread as for eight."""
        sim = CMPSimulator(processor(), config_unpartitioned("lru"),
                           [make_trace()], SimulationConfig())
        assert resolve_engine_name("auto", sim) == "batched"
        assert type(make_engine(sim, sim.simulation.engine)) is BatchedEngine

    def test_vector_rejects_multi_core(self):
        """``vector`` is no engine name any more — multi-core or not."""
        solo.assert_unknown_engine("vector")


class TestCustomObserver:
    """A non-stock L2 observer cannot be deferred: the batched engine
    refuses it, and ``auto`` runs it on the reference oracle.

    ``deferrable_profiling`` only engages for the stock
    ``ProfilingSystem.observe`` bound method; anything else (a wrapper, a
    test callable) needs its per-access call *during* the run, which only
    the reference engine makes.
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
        """The batched engine refuses a wrapped observer; ``auto`` and the
        reference engine under one: identical results, profiling state
        and per-access call sequences."""
        with pytest.raises(ValueError, match="a custom L2 observer"):
            self._run("batched", config, wrap=True)
        ref, ref_sim, ref_calls = self._run("reference", config, wrap=True)
        bat, bat_sim, bat_calls = self._run("auto", config, wrap=True)
        assert_identical(ref, bat)
        assert profiling_state(ref_sim) == profiling_state(bat_sim)
        assert ref_calls == bat_calls
        assert ref_calls  # the observer actually fired

    @pytest.mark.parametrize("config", PARTITIONED_CONFIGS,
                             ids=lambda c: c.acronym)
    def test_wrapped_observer_matches_stock_run(self, config):
        """Wrapping the stock observer must not change the simulation:
        only the engine differs (``auto`` runs the wrapped one on the
        reference engine), never the results."""
        stock, stock_sim, _ = self._run("batched", config, wrap=False)
        wrapped, wrapped_sim, calls = self._run("auto", config, wrap=True)
        assert_identical(stock, wrapped)
        assert profiling_state(stock_sim) == profiling_state(wrapped_sim)
        assert calls

    def test_custom_observer_without_profiling_matches(self):
        """An observer on an unpartitioned run (no profiling system at
        all) also takes the reference engine under ``auto``."""
        config = config_unpartitioned("lru")
        with pytest.raises(ValueError, match="a custom L2 observer"):
            self._run("batched", config, wrap=True)
        ref, _, ref_calls = self._run("reference", config, wrap=True)
        bat, _, bat_calls = self._run("auto", config, wrap=True)
        assert_identical(ref, bat)
        assert ref_calls == bat_calls
        assert ref_calls

    def test_custom_observer_disables_memoization(self):
        """An observed run is repeatable (the name predates the removal
        of the window cache): a repeat run is identical, observer calls
        included."""
        config = config_unpartitioned("lru")
        cold, _, cold_calls = self._run("auto", config, wrap=True)
        warm, _, warm_calls = self._run("auto", config, wrap=True)
        assert_identical(cold, warm)
        assert cold_calls == warm_calls and cold_calls
