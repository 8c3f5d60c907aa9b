"""Batched-vs-reference engine equivalence suite.

The batched engine must reproduce the reference loop's results *exactly* —
every :class:`ThreadResult` field, every :class:`EventCounts` field, every
partition record — across replacement policies, enforcement schemes, write
traces and the bandwidth-limited memory channel.  Anything short of ``==``
on these dataclasses is a bug in the batching argument.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.cmp.simulator import run_workload
from repro.config import (
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


def processor(num_cores=2):
    return ProcessorConfig(
        num_cores=num_cores,
        l1i=CacheGeometry(2 * 2 * 128, 2, 128),
        l1d=CacheGeometry(2 * 2 * 128, 2, 128),
        l2=CacheGeometry(16 * 8 * 128, 8, 128),
    )


def make_traces(num_cores=2, count=6000, ipm=4.0, cpi=1.0):
    """A mix of one cache-friendly thread and progressively larger streams."""
    traces = []
    for core in range(num_cores):
        rng = np.random.default_rng(100 + core)
        footprint = 48 * (4 ** core)
        lines = rng.integers(0, footprint, size=count) + core * 1_000_000
        traces.append(Trace(f"t{core}", lines, ipm=ipm, cpi_base=cpi))
    return traces


def both_engines(partitioning, traces, num_cores=2, budget=30_000,
                 service_interval=0.0, per_thread=None):
    results = []
    for engine in ("reference", "batched"):
        sim = SimulationConfig(
            instructions_per_thread=budget,
            per_thread_instructions=per_thread,
            seed=7,
            memory_service_interval=service_interval,
            engine=engine,
        )
        results.append(run_workload(processor(num_cores), partitioning,
                                    traces, sim))
    return results


def assert_identical(reference, batched):
    assert len(reference.threads) == len(batched.threads)
    for ref, bat in zip(reference.threads, batched.threads):
        assert dataclasses.asdict(ref) == dataclasses.asdict(bat)
    assert dataclasses.asdict(reference.events) == \
        dataclasses.asdict(batched.events)
    assert reference.partition_history == batched.partition_history
    assert reference.acronym == batched.acronym


PARTITIONED_CONFIGS = [
    config_C_L(atd_sampling=4, interval_cycles=20_000),
    config_M_L(atd_sampling=4, interval_cycles=20_000),
    config_M_N(0.75, atd_sampling=4, interval_cycles=20_000),
    config_M_BT(atd_sampling=4, interval_cycles=20_000),
]

UNPARTITIONED_POLICIES = ["lru", "nru", "bt", "random", "fifo", "dip", "srrip"]


class TestReadOnly:
    @pytest.mark.parametrize("policy", UNPARTITIONED_POLICIES)
    def test_unpartitioned_policies(self, policy):
        ref, bat = both_engines(config_unpartitioned(policy), make_traces())
        assert_identical(ref, bat)

    @pytest.mark.parametrize("config", PARTITIONED_CONFIGS,
                             ids=lambda c: c.acronym)
    def test_partitioned_schemes(self, config):
        ref, bat = both_engines(config, make_traces())
        assert_identical(ref, bat)

    def test_four_cores(self):
        ref, bat = both_engines(
            config_C_L(atd_sampling=4, interval_cycles=20_000),
            make_traces(num_cores=4), num_cores=4)
        assert_identical(ref, bat)

    def test_non_dyadic_timing_parameters(self):
        """ipm/cpi values whose products round: the clock recurrence must
        still evaluate identically in both engines."""
        traces = make_traces(ipm=2.6, cpi=1.1)
        ref, bat = both_engines(config_unpartitioned("lru"), traces,
                                budget=20_000)
        assert_identical(ref, bat)

    def test_per_thread_budgets_and_wrap(self):
        """Budgets beyond one trace pass exercise wrap-around batching."""
        traces = make_traces(count=2500)
        ref, bat = both_engines(config_unpartitioned("lru"), traces,
                                per_thread=(24_000, 6_000))
        assert_identical(ref, bat)

    def test_mid_trace_chunk_reloads(self, monkeypatch):
        """Traces longer than the prefilter window exercise reloads at
        nonzero ``ck_start`` (window-relative offset arithmetic)."""
        import repro.cmp.engine.batched as batched_mod

        monkeypatch.setattr(batched_mod, "CHUNK_SIZE", 512)
        ref, bat = both_engines(
            config_C_L(atd_sampling=4, interval_cycles=20_000),
            make_traces())
        assert_identical(ref, bat)

    def test_l1_resident_streaks(self):
        """A tiny-footprint thread batches giant hit-streaks."""
        rng = np.random.default_rng(5)
        friendly = Trace("tiny", rng.integers(0, 4, size=4000),
                         ipm=4.0, cpi_base=1.0)
        stream = Trace("stream", np.arange(20_000) + 10_000_000,
                       ipm=4.0, cpi_base=1.0)
        ref, bat = both_engines(
            config_M_L(atd_sampling=4, interval_cycles=20_000),
            [friendly, stream])
        assert_identical(ref, bat)


class TestWriteTraces:
    @pytest.mark.parametrize("config", [
        config_unpartitioned("lru"),
        config_C_L(atd_sampling=4, interval_cycles=20_000),
        config_M_N(0.75, atd_sampling=4, interval_cycles=20_000),
    ], ids=lambda c: c.acronym)
    def test_write_overlay(self, config):
        traces = [overlay_writes(t, 0.4, seed=3) for t in make_traces()]
        ref, bat = both_engines(config, traces)
        assert_identical(ref, bat)
        assert ref.events.l1_writebacks > 0

    def test_mixed_read_write_threads(self):
        traces = make_traces()
        traces[1] = overlay_writes(traces[1], 0.5, seed=9)
        ref, bat = both_engines(
            config_M_L(atd_sampling=4, interval_cycles=20_000), traces)
        assert_identical(ref, bat)


class TestBandwidthChannel:
    @pytest.mark.parametrize("config", [
        config_unpartitioned("lru"),
        config_C_L(atd_sampling=4, interval_cycles=20_000),
    ], ids=lambda c: c.acronym)
    def test_limited_channel(self, config):
        ref, bat = both_engines(config, make_traces(),
                                service_interval=40.0)
        assert_identical(ref, bat)
        assert ref.events.memory_queue_cycles > 0

    def test_channel_with_writes(self):
        traces = [overlay_writes(t, 0.3, seed=4) for t in make_traces()]
        ref, bat = both_engines(config_unpartitioned("lru"), traces,
                                service_interval=25.0)
        assert_identical(ref, bat)


class TestBoundaryPlacement:
    def test_tiny_interval_repartition_counts(self):
        """Sub-access intervals force multi-boundary catch-ups in one step;
        both engines must fire the same repartition sequence."""
        ref, bat = both_engines(
            config_C_L(atd_sampling=4, interval_cycles=500),
            make_traces(count=3000), budget=10_000)
        assert_identical(ref, bat)
        assert ref.events.repartitions > 10


class TestMissStreamSeams:
    """What the miss-stream loop special-cases: gaps folded across window
    seams and trace wraps, the freeze-hit event, parked (L1-resident)
    threads, boundaries fired late, immediate observers."""

    STREAM_BASE = 10_000_000

    @pytest.fixture(autouse=True)
    def small_windows(self, monkeypatch):
        import repro.cmp.engine.batched as batched_mod

        monkeypatch.setattr(batched_mod, "CHUNK_SIZE", 512)

    @classmethod
    def stream(cls, count=3000, name="stream"):
        return Trace(name, np.arange(count) + cls.STREAM_BASE, ipm=4.0,
                     cpi_base=1.0)

    @staticmethod
    def resident(count=1300, name="resident"):
        """Four lines over two 2-way L1 sets: hits after four cold misses."""
        return Trace(name, np.arange(count) % 4, ipm=4.0, cpi_base=1.0)

    @staticmethod
    def long_gap():
        """1300 references whose only long hit run, 901..1299 + 0..199,
        spans the window seam at 1024 and the trace wrap."""
        lines = np.arange(1300) + 5_000
        lines[900:] = 7
        lines[:200] = 7
        return Trace("gap", lines, ipm=4.0, cpi_base=1.0)

    @pytest.mark.parametrize("other_budget", [2_000, 40_000],
                             ids=["freezes-last", "freezes-first"])
    @pytest.mark.parametrize("config", [
        config_unpartitioned("nru"),
        config_M_BT(atd_sampling=4, interval_cycles=20_000),
    ], ids=lambda c: c.acronym)
    def test_freeze_hit_in_gap_across_seam_and_wrap(self, config,
                                                    other_budget):
        trace = self.long_gap()
        # The scenario really is a freeze on a hit deep inside that gap:
        # access 1400 (pass 2, position 99) with no miss since 900.
        from repro.cache.l1 import SmallLRUCache
        flags = SmallLRUCache(processor().l1d).access_lines_hit(
            np.concatenate([trace.lines, trace.lines]))
        assert flags[901:1500].all() and not flags[900]
        ref, bat = both_engines(config, [trace, self.stream()],
                                per_thread=(1400 * 4, other_budget))
        assert_identical(ref, bat)
        assert ref.threads[0].l1_accesses == 1400

    @pytest.mark.parametrize("resident_budget", [800, 60_000],
                             ids=["parks-after-freeze", "freeze-hit-is-final"])
    def test_l1_resident_thread(self, resident_budget):
        """A resident thread either freezes first and parks at +inf while
        the other finishes (its committed hits come from the termination
        rollback), or freezes last on a hit many passes ahead."""
        traces = [self.resident(), self.stream()]
        ref, bat = both_engines(
            config_C_L(atd_sampling=4, interval_cycles=20_000), traces,
            per_thread=(resident_budget, 8_000))
        assert_identical(ref, bat)
        assert ref.threads[0].l1_misses == 4
        assert ref.events.l1_accesses > sum(
            t.l1_accesses for t in ref.threads) - 1

    def test_resident_in_the_middle_of_four(self):
        traces = [self.stream(name="s0"), self.resident(600),
                  self.long_gap(), self.resident(64, name="r3")]
        ref, bat = both_engines(
            config_M_N(0.75, atd_sampling=4, interval_cycles=5_000),
            traces, num_cores=4,
            per_thread=(6_000, 9_000, 1400 * 4, 300))
        assert_identical(ref, bat)

    def test_boundaries_crossed_by_one_pop_and_by_the_final_event(self):
        """Every memory access jumps several 100-cycle intervals; once
        both resident threads stop missing, only the final freeze-hit pops
        — and it alone fires the boundaries of the last 9000 cycles."""
        traces = [self.resident(), self.resident(700, name="r1")]
        config = config_C_L(atd_sampling=1, interval_cycles=100)
        ref, bat = both_engines(config, traces, per_thread=(400, 10_000))
        assert_identical(ref, bat)
        assert ref.events.repartitions == int(ref.events.wall_cycles // 100)
        assert ref.events.repartitions > 90

    @staticmethod
    def run_observed(config, traces, budgets):
        """Both engines under a recording pass-through observer; returns
        ``[(result, calls, simulator), ...]`` — reference first."""
        from repro.cmp.simulator import CMPSimulator

        outcomes = []
        for engine in ("reference", "batched"):
            sim = CMPSimulator(
                processor(), config, traces,
                SimulationConfig(per_thread_instructions=budgets, seed=7,
                                 engine=engine))
            calls = []
            stock = sim.hierarchy.l2_observer

            def observer(core, line, stock=stock, calls=calls):
                calls.append((core, line))
                if stock is not None:
                    stock(core, line)

            sim.hierarchy.l2_observer = observer
            outcomes.append((sim.run(), calls, sim))
        return outcomes

    @pytest.mark.parametrize("config", [
        config_unpartitioned("lru"),
        config_M_L(atd_sampling=4, interval_cycles=20_000),
    ], ids=lambda c: c.acronym)
    def test_custom_observer_call_order(self, config):
        """A wrapped observer is not deferrable: its ``(thread, line)``
        calls must happen per access, in the reference's global order."""
        traces = make_traces(count=2500)
        traces[0] = self.long_gap()
        (ref, ref_calls, _), (bat, bat_calls, _) = self.run_observed(
            config, traces, (9_000, 14_000))
        assert_identical(ref, bat)
        assert ref_calls == bat_calls
        assert {core for core, _ in ref_calls} == {0, 1}

    def test_observer_and_memory_bypass_on_write_traces(self):
        """Thread 0 dirties line 0 and keeps it in its L1 (only odd lines
        follow) while thread 1's stream pushes it out of the L2; the
        conflicting fills at the end then write it back past the L2."""
        lines = np.concatenate([[0], 2 * np.arange(900) + 1, [2, 4]])
        writes = np.zeros(len(lines), dtype=bool)
        writes[0] = True
        traces = [Trace("dirty", lines, ipm=4.0, cpi_base=1.0, writes=writes),
                  self.stream()]
        (ref, ref_calls, ref_sim), (bat, bat_calls, _) = self.run_observed(
            config_unpartitioned("lru"), traces, (len(lines) * 4, 12_000))
        assert_identical(ref, bat)
        assert ref_calls == bat_calls
        assert ref_sim.hierarchy.writebacks_l1_to_mem >= 1

    def test_writes_and_channel_together(self):
        traces = [overlay_writes(self.long_gap(), 0.4, seed=3),
                  overlay_writes(make_traces()[1], 0.3, seed=4)]
        ref, bat = both_engines(
            config_M_N(0.75, atd_sampling=4, interval_cycles=20_000),
            traces, per_thread=(1400 * 4, 20_000), service_interval=40.0)
        assert_identical(ref, bat)
        assert ref.events.l1_writebacks > 0
        assert ref.events.memory_queue_cycles > 0


    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_max_cycles_raises(self, engine):
        sim = SimulationConfig(per_thread_instructions=(60_000, 8_000),
                               max_cycles=10_000, engine=engine)
        with pytest.raises(RuntimeError, match="max_cycles=10000"):
            run_workload(processor(), config_unpartitioned("lru"),
                         [self.resident(), self.stream()], sim)


# ----------------------------------------------------------------------
# The same rows with the batched loop held to its Python target.  Above,
# a read-only run of a stock (policy, scheme) pair executes the compiled
# target wherever the host has a C compiler; these subclasses re-run every
# row through the one internal seam, so both targets stand against the
# reference engine.
# ----------------------------------------------------------------------
class PythonTarget:
    @pytest.fixture(autouse=True)
    def python_target(self):
        from repro.cache import transitions

        with transitions.python_target():
            yield


class TestReadOnlyPythonTarget(PythonTarget, TestReadOnly):
    pass


class TestBandwidthChannelPythonTarget(PythonTarget, TestBandwidthChannel):
    pass


class TestBoundaryPlacementPythonTarget(PythonTarget, TestBoundaryPlacement):
    pass


class TestMissStreamSeamsPythonTarget(PythonTarget, TestMissStreamSeams):
    pass


class TestScheduler:
    def test_pops_in_clock_then_thread_order(self):
        from repro.cmp.engine.scheduler import EventScheduler

        sched = EventScheduler([5.0, 1.0, 5.0])
        sched.push(0.5, 0)
        order = [sched.pop() for _ in range(4)]
        # Equal clocks break toward the lower thread index — the same tie
        # rule as the seed loop's first-minimum scan.
        assert order == [(0.5, 0), (1.0, 1), (5.0, 0), (5.0, 2)]
        assert not sched
