"""Batched-vs-reference engine equivalence suite.

The batched engine must reproduce the reference loop's results *exactly* —
every :class:`ThreadResult` field, every :class:`EventCounts` field, every
partition record — across the paper's replacement policies, enforcement
schemes and the bandwidth-limited memory channel.  Anything short of
``==`` on these dataclasses is a bug in the batching argument.  What the
batched engine does not run — other policies, write traces, custom
observers — it refuses by name, and ``auto`` takes it to the reference
engine.
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


def miss_offsets(lines):
    """Positions of the L1 misses of ``lines`` walked from a cold L1:
    miss ``j`` is at ``j + cumsum(gaps)[j]``."""
    from repro.cache.l1 import SmallLRUCache

    gaps = SmallLRUCache(processor().l1d).access_lines_hit(lines).gaps
    return np.arange(len(gaps)) + np.cumsum(gaps)


def both_engines(partitioning, traces, num_cores=2, budget=30_000,
                 service_interval=0.0, per_thread=None,
                 engines=("reference", "batched")):
    results = []
    for engine in engines:
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


def reference_only(partitioning, traces, reason, **knobs):
    """The reference result of a run the batched engine refuses naming
    ``reason``; ``auto`` runs it on the reference engine, identically."""
    with pytest.raises(ValueError, match=reason):
        both_engines(partitioning, traces, engines=("batched",), **knobs)
    ref, auto = both_engines(partitioning, traces,
                             engines=("reference", "auto"), **knobs)
    assert_identical(ref, auto)
    return ref


PARTITIONED_CONFIGS = [
    config_C_L(atd_sampling=4, interval_cycles=20_000),
    config_M_L(atd_sampling=4, interval_cycles=20_000),
    config_M_N(0.75, atd_sampling=4, interval_cycles=20_000),
    config_M_BT(atd_sampling=4, interval_cycles=20_000),
]

UNPARTITIONED_POLICIES = ["lru", "nru", "bt", "random", "fifo", "dip", "srrip"]

#: The policies with a rendering: the only ones the batched engine runs.
PAPER_POLICIES = ("lru", "nru", "bt")


class TestReadOnly:
    @pytest.mark.parametrize("policy", UNPARTITIONED_POLICIES)
    def test_unpartitioned_policies(self, policy):
        config = config_unpartitioned(policy)
        if policy not in PAPER_POLICIES:
            reference_only(config, make_traces(),
                           "no rendering of the L2's .*Policy")
            return
        ref, bat = both_engines(config, make_traces())
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
    """A write overlay is the reference engine's, whichever thread
    writes."""

    @pytest.mark.parametrize("config", [
        config_unpartitioned("lru"),
        config_C_L(atd_sampling=4, interval_cycles=20_000),
        config_M_N(0.75, atd_sampling=4, interval_cycles=20_000),
    ], ids=lambda c: c.acronym)
    def test_write_overlay(self, config):
        traces = [overlay_writes(t, 0.4, seed=3) for t in make_traces()]
        ref = reference_only(config, traces, "a trace writes")
        assert ref.events.l1_writebacks > 0

    def test_mixed_read_write_threads(self):
        traces = make_traces()
        traces[1] = overlay_writes(traces[1], 0.5, seed=9)
        reference_only(config_M_L(atd_sampling=4, interval_cycles=20_000),
                       traces, "a trace writes")


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
        ref = reference_only(config_unpartitioned("lru"), traces,
                             "a trace writes", service_interval=25.0)
        assert ref.events.memory_queue_cycles > 0


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
    threads, boundaries fired late; and the immediate observers it
    refuses."""

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
        offs = miss_offsets(np.concatenate([trace.lines, trace.lines]))
        assert 900 in offs and not ((offs > 900) & (offs < 1500)).any()
        ref, bat = both_engines(config, [trace, self.stream()],
                                per_thread=(1400 * 4, other_budget))
        assert_identical(ref, bat)
        assert ref.threads[0].l1_accesses == 1400

    @staticmethod
    def freeze_sweep_trace():
        """48 references, three 16-reference windows over a 2x2 L1: pass
        one misses at 0, 1, 10 (window 0's last miss) and 40; the gap
        11..39 spans both seams and holds window 1, which misses
        nowhere.  Then all four lines are resident: the thread parks
        once a whole pass has gone by without a miss."""
        lines = np.array([0, 1] * 24)
        lines[10:40:3] = 2
        lines[40:48:2] = 3
        return Trace("sweep", lines, ipm=4.0, cpi_base=1.0)

    @pytest.mark.parametrize("other_budget", [2 * 4, 60 * 4],
                             ids=["freezes-last", "freezes-first"])
    def test_every_freeze_position(self, monkeypatch, other_budget):
        """Thread 0's freeze on each of its first three passes'
        references — the first one, a miss, a window's last miss, a hit
        deep in a gap across seams, a hit in a window without a miss,
        and hits after the thread parked (from reference 96 on) — the
        run ending at thread 0's freeze or at thread 1's."""
        import repro.cmp.engine.batched as batched_mod

        monkeypatch.setattr(batched_mod, "CHUNK_SIZE", 16)
        trace = self.freeze_sweep_trace()
        offs = miss_offsets(np.tile(trace.lines, 3))
        assert offs.tolist() == [0, 1, 10, 40]
        config = config_C_L(atd_sampling=1, interval_cycles=150)
        for count in range(1, 3 * len(trace) + 1):
            ref, bat = both_engines(config, [trace, self.stream(400)],
                                    per_thread=(count * 4, other_budget))
            assert_identical(ref, bat)
            assert ref.threads[0].l1_accesses == count

    def test_the_freeze_is_one_countdown_per_thread(self):
        """The loop's only freeze state is ``left``; a window's stream is
        its gaps, its lines and its tail, with no offsets."""
        from repro.cache.l1 import MissStream
        from repro.cache.transitions import LoopRun

        assert len(LoopRun._fields) == 12 and "left" in LoopRun._fields
        assert not [name for name in LoopRun._fields if "fz" in name]
        assert MissStream._fields == ("gaps", "lines", "tail")

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
    def run_observed(config, traces, budgets, reason):
        """The batched engine refuses a recording pass-through observer,
        naming ``reason``; the reference engine and ``auto`` under one
        return ``[(result, calls, simulator), ...]`` — reference first."""
        from repro.cmp.simulator import CMPSimulator

        outcomes = []
        for engine in ("batched", "reference", "auto"):
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
            if engine == "batched":
                with pytest.raises(ValueError, match=reason):
                    sim.run()
                assert calls == []
            else:
                outcomes.append((sim.run(), calls, sim))
        return outcomes

    @pytest.mark.parametrize("config", [
        config_unpartitioned("lru"),
        config_M_L(atd_sampling=4, interval_cycles=20_000),
    ], ids=lambda c: c.acronym)
    def test_custom_observer_call_order(self, config):
        """A wrapped observer is not deferrable: the batched engine
        refuses it, and under ``auto`` its ``(thread, line)`` calls
        happen per access, in the reference's global order."""
        traces = make_traces(count=2500)
        traces[0] = self.long_gap()
        (ref, ref_calls, _), (bat, bat_calls, _) = self.run_observed(
            config, traces, (9_000, 14_000), "a custom L2 observer")
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
            config_unpartitioned("lru"), traces, (len(lines) * 4, 12_000),
            "a trace writes")
        assert_identical(ref, bat)
        assert ref_calls == bat_calls
        assert ref_sim.hierarchy.writebacks_l1_to_mem >= 1

    def test_writes_and_channel_together(self):
        traces = [overlay_writes(self.long_gap(), 0.4, seed=3),
                  overlay_writes(make_traces()[1], 0.3, seed=4)]
        ref = reference_only(
            config_M_N(0.75, atd_sampling=4, interval_cycles=20_000),
            traces, "a trace writes", per_thread=(1400 * 4, 20_000),
            service_interval=40.0)
        assert ref.events.l1_writebacks > 0
        assert ref.events.memory_queue_cycles > 0


    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_max_cycles_raises(self, engine):
        sim = SimulationConfig(per_thread_instructions=(60_000, 8_000),
                               max_cycles=10_000, engine=engine)
        with pytest.raises(RuntimeError, match="max_cycles=10000"):
            run_workload(processor(), config_unpartitioned("lru"),
                         [self.resident(), self.stream()], sim)


class TestScheduler:
    def test_pops_in_clock_then_thread_order(self):
        """The reference engine's heap of ``(clock, thread)`` tuples."""
        import heapq

        events = [(5.0, 2), (1.0, 1), (5.0, 0)]
        heapq.heapify(events)
        heapq.heappush(events, (0.5, 0))
        order = [heapq.heappop(events) for _ in range(4)]
        # Equal clocks break toward the lower thread index — the same tie
        # rule as the seed loop's first-minimum scan and the batched
        # loop's strict ``<`` arg-min.
        assert order == [(0.5, 0), (1.0, 1), (5.0, 0), (5.0, 2)]
        assert not events
