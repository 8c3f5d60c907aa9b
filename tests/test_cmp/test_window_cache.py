"""The window cache behind ``l1_miss_window`` must be unobservable.

A hit replays a window's L1-miss stream instead of walking the L1, and
the batched engine drains only the stream's *sampled* lines into the
ATDs.  Neither may change anything a run can observe: results, the L2,
the profiling state — and the simulator's own L1 objects, which a hit
restores in place.  The reference engine never touches the cache and is
the oracle throughout.
"""

import dataclasses

import numpy as np
import pytest

import repro.cmp.engine.batched as batched_mod
import repro.cmp.engine.common as common
from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import SmallLRUCache
from repro.cmp.engine.common import (
    clear_window_cache,
    l1_miss_window,
    window_cache_stats,
)
from repro.config import PartitioningConfig, config_C_L, config_M_BT
from repro.fuzz import FuzzCase, diff_snapshots, run_engine
from repro.workloads.trace import Trace
from repro.workloads.writes import overlay_writes

L1 = CacheGeometry(2 * 2 * 128, 2, 128)


def make_case(num_cores=2, count=1500, sampling=4, writes=False,
              l2_sets=16, budget=20_000):
    """Threads that wrap their traces several times (budget > one pass)."""
    traces = []
    for core in range(num_cores):
        rng = np.random.default_rng(500 + core)
        lines = rng.integers(0, 30 * 3 ** core, size=count) + core * (1 << 20)
        trace = Trace(f"t{core}", lines, ipm=4.0, cpi_base=1.0)
        if writes:
            trace = overlay_writes(trace, 0.3, seed=core)
        traces.append(trace)
    partitioning = (
        config_C_L(atd_sampling=sampling, interval_cycles=9_000)
        if num_cores > 1 else
        PartitioningConfig(policy="lru", enforcement="none"))
    return FuzzCase(traces=traces, l1_sets=2, l1_assoc=2, l2_sets=l2_sets,
                    l2_assoc=8, partitioning=partitioning,
                    instructions_per_thread=budget,
                    per_thread_instructions=(budget,) * num_cores)


def l1_images(sim):
    """Per core: the L1's stacks + dirty set and every statistics field."""
    return [(l1.snapshot(), [list(getattr(l1.stats, name))
                             for name in l1.stats.__slots__])
            for l1 in sim.hierarchy.l1]


def run(case, engine):
    """(result, L1 images) of one fresh simulator."""
    sim = case.simulator(engine)
    result = sim.run()
    return (dataclasses.asdict(result.events),
            [dataclasses.asdict(t) for t in result.threads],
            result.partition_history), l1_images(sim)


@pytest.fixture
def small_windows(monkeypatch):
    """Several windows per trace pass."""
    monkeypatch.setattr(batched_mod, "CHUNK_SIZE", 512)


@pytest.fixture
def uncached(monkeypatch):
    """Budget 0: nothing is ever stored, every window is walked."""
    def walk(case, engine):
        with monkeypatch.context() as patch:
            patch.setattr(common, "WINDOW_CACHE_BYTES", 0)
            out = run(case, engine)
        assert window_cache_stats()["hits"] == 0
        return out
    return walk


class TestColdWarm:
    # ("solo-1" is one thread on the batched engine: the recorded id.)
    @pytest.mark.parametrize("engine,num_cores", [
        ("batched", 2), ("batched", 4),
        pytest.param("batched", 1, id="solo-1")])
    def test_results_and_l1_state_identical(self, small_windows, uncached,
                                            engine, num_cores):
        case = make_case(num_cores)
        walked, walked_l1 = uncached(case, engine)
        clear_window_cache()
        cold, cold_l1 = run(case, engine)
        after_cold = window_cache_stats()
        warm, warm_l1 = run(case, engine)
        after_warm = window_cache_stats()
        assert cold == walked and warm == walked
        assert cold == run(case, "reference")[0]
        # Stacks, dirty set and CacheStats are what a walk leaves behind.
        assert cold_l1 == walked_l1 and warm_l1 == walked_l1
        # The warm run walked nothing at all.
        lookups = after_warm["lookups"] - after_cold["lookups"]
        assert lookups > 0
        assert after_warm["hits"] - after_cold["hits"] == lookups

    def test_later_passes_hit_within_one_run(self, small_windows):
        """LRU state recurs: from the second pass on only the first
        window (cold on pass one) can start in a new state."""
        case = make_case(1, budget=40_000)
        run(case, "batched")
        stats = window_cache_stats()
        windows_per_pass = -(-1500 // 512)
        assert stats["lookups"] > 3 * windows_per_pass
        assert stats["lookups"] - stats["hits"] == windows_per_pass + 1
        assert stats["entries"] == windows_per_pass + 1


class TestKey:
    @staticmethod
    def trace():
        """Starts and ends on the same four lines (two per L1 set), so a
        second pass finds its first four references resident."""
        lines = np.random.default_rng(9).integers(0, 40, size=1024)
        lines[:4] = lines[-4:] = (100, 101, 102, 103)
        return Trace("k", lines, ipm=4.0, cpi_base=1.0)

    def test_same_window_different_l1_state_misses(self):
        trace = self.trace()
        l1 = SmallLRUCache(L1)
        first, first_lines = l1_miss_window(trace, l1, 0, 512, False)
        second, _ = l1_miss_window(trace, l1, 512, 1024, False)
        # Pass two: window 0 now starts warm (a miss, and a shorter miss
        # stream), window 1 starts in the state pass one left — a hit.
        again, again_lines = l1_miss_window(trace, l1, 0, 512, False)
        assert again is not first
        assert first.offs[:4].tolist() == [0, 1, 2, 3]
        assert again.offs.tolist() == first.offs[4:].tolist()
        assert l1_miss_window(trace, l1, 512, 1024, False)[0] is second
        assert window_cache_stats()["hits"] == 1
        # A cold L1 finds the cold entry and ends up in its state.
        fresh = SmallLRUCache(L1)
        hit, hit_lines = l1_miss_window(trace, fresh, 0, 512, False)
        assert hit is first and hit_lines.tolist() == first_lines.tolist()
        walked = SmallLRUCache(L1)
        walked.access_lines_hit(trace.lines[:512])
        assert fresh.snapshot() == walked.snapshot()
        assert fresh.stats.accesses == walked.stats.accesses
        assert fresh.stats.misses == walked.stats.misses
        assert fresh.stats.fills_invalid == walked.stats.fills_invalid

    def test_key_covers_content_geometry_and_write_mode(self):
        trace = self.trace()
        l1_miss_window(trace, SmallLRUCache(L1), 0, 512, False)
        renamed = Trace("other-name", trace.lines.copy(), ipm=4.0,
                        cpi_base=1.0)
        shifted = Trace("k", trace.lines + 1, ipm=4.0, cpi_base=1.0)
        wider = CacheGeometry(4 * 2 * 128, 2, 128)
        l1_miss_window(renamed, SmallLRUCache(L1), 0, 512, False)   # hit
        l1_miss_window(shifted, SmallLRUCache(L1), 0, 512, False)
        l1_miss_window(trace, SmallLRUCache(wider), 0, 512, False)
        l1_miss_window(trace, SmallLRUCache(L1), 0, 512, True)
        l1_miss_window(trace, SmallLRUCache(L1), 0, 256, False)
        stats = window_cache_stats()
        assert (stats["lookups"], stats["hits"]) == (6, 1)

    def test_dirty_set_is_part_of_the_key(self):
        """Same stacks, different dirty lines: the write-backs differ, so
        the windows must not be shared."""
        trace = overlay_writes(self.trace(), 0.4, seed=2)
        clean, dirty = SmallLRUCache(L1), SmallLRUCache(L1)
        for line in (1001, 1002, 1003, 1004):
            clean.access_line_rw(line, False)
            dirty.access_line_rw(line, True)
        assert clean.snapshot()[0] == dirty.snapshot()[0]
        a, _ = l1_miss_window(trace, clean, 0, 512, True)
        b, _ = l1_miss_window(trace, dirty, 0, 512, True)
        assert window_cache_stats()["hits"] == 0
        assert (a.victims >= 0).sum() < (b.victims >= 0).sum()

    def test_columns_are_compact_and_consistent(self):
        trace = self.trace()
        window, lines = l1_miss_window(trace, SmallLRUCache(L1), 0, 512,
                                       False)
        assert window.offs.dtype == window.gaps.dtype == np.uint16
        assert lines.tolist() == trace.lines[window.offs].tolist()
        offs = window.offs.astype(np.int64)
        assert window.gaps.tolist() == (np.diff(offs, prepend=-1) - 1).tolist()
        assert window.victims is None
        assert window_cache_stats()["bytes"] == window.nbytes


class TestWrites:
    @pytest.mark.parametrize("engine,num_cores", [
        ("batched", 2), pytest.param("batched", 1, id="solo-1")])
    def test_write_traces_cold_and_warm(self, small_windows, engine,
                                        num_cores):
        case = make_case(num_cores, writes=True)
        reference = run_engine(case, "reference")
        assert reference.events["l1_writebacks"] > 0
        for _ in ("cold", "warm"):
            assert diff_snapshots(reference, run_engine(case, engine)) == []
        assert window_cache_stats()["hits"] > 0


class TestEviction:
    @pytest.mark.parametrize("budget", [0, 4_000, 12_000])
    def test_tiny_budget_changes_nothing(self, small_windows, monkeypatch,
                                         budget):
        case = make_case(4)
        expected, expected_l1 = run(case, "batched")
        reference = run_engine(case, "reference")
        clear_window_cache()
        monkeypatch.setattr(common, "WINDOW_CACHE_BYTES", budget)
        for _ in range(2):
            assert run(case, "batched") == (expected, expected_l1)
            assert diff_snapshots(reference,
                                  run_engine(case, "batched")) == []
        stats = window_cache_stats()
        assert stats["bytes"] <= budget
        if budget == 0:
            assert stats["entries"] == stats["hits"] == 0
        else:
            assert stats["evictions"] > 0

    def test_entry_larger_than_the_budget_is_not_stored(self, monkeypatch):
        """...and does not flush the entries that do fit."""
        rng = np.random.default_rng(1)
        small = Trace("s", rng.integers(0, 8, size=64), ipm=4.0,
                      cpi_base=1.0)
        large = Trace("l", np.arange(4096), ipm=4.0, cpi_base=1.0)
        kept, _ = l1_miss_window(small, SmallLRUCache(L1), 0, 64, False)
        monkeypatch.setattr(common, "WINDOW_CACHE_BYTES", kept.nbytes + 100)
        huge, lines = l1_miss_window(large, SmallLRUCache(L1), 0, 4096,
                                     False)
        assert huge.nbytes > kept.nbytes + 100 and len(lines) == 4096
        stats = window_cache_stats()
        assert (stats["entries"], stats["evictions"]) == (1, 0)
        assert l1_miss_window(small, SmallLRUCache(L1), 0, 64,
                              False)[0] is kept


class TestOverBudgetSweeps:
    """The traffic is cyclic — each thread walks its trace's windows in
    order, pass after pass — so once a mix outgrows the budget plain LRU
    would evict every window just before its next use.  Eviction takes
    the last-used window of the trace looked up longest ago instead."""

    WIDTH = 64

    @staticmethod
    def trace(name, seed, windows=8):
        lines = np.random.default_rng(seed).integers(
            0, 48, size=windows * TestOverBudgetSweeps.WIDTH)
        return Trace(name, lines + seed * 1000, ipm=4.0, cpi_base=1.0)

    def sweep(self, trace, l1):
        """One pass over the trace; the number of windows that hit."""
        before = window_cache_stats()["hits"]
        for pos in range(0, len(trace), self.WIDTH):
            l1_miss_window(trace, l1, pos, pos + self.WIDTH, False)
        return window_cache_stats()["hits"] - before

    def test_part_of_an_over_budget_sweep_stays_resident(self, monkeypatch):
        a, b = self.trace("a", 1), self.trace("b", 2)
        l1_a, l1_b = SmallLRUCache(L1), SmallLRUCache(L1)
        assert self.sweep(a, l1_a) == self.sweep(b, l1_b) == 0
        assert self.sweep(a, l1_a) == self.sweep(b, l1_b) == 7
        working_set = window_cache_stats()["bytes"]    # 2 x (8 + 1 cold)

        clear_window_cache()
        monkeypatch.setattr(common, "WINDOW_CACHE_BYTES", working_set // 2)
        l1_a, l1_b = SmallLRUCache(L1), SmallLRUCache(L1)
        hits = []
        for _ in range(4):      # the two threads' lookups interleave
            before = window_cache_stats()["hits"]
            for pos in range(0, len(a), self.WIDTH):
                l1_miss_window(a, l1_a, pos, pos + self.WIDTH, False)
                l1_miss_window(b, l1_b, pos, pos + self.WIDTH, False)
            hits.append(window_cache_stats()["hits"] - before)
        stats = window_cache_stats()
        assert stats["bytes"] <= working_set // 2 and stats["evictions"] > 0
        # 16 lookups a pass, about half the windows fit: LRU would score 0.
        assert hits[0] == 0 and all(h >= 5 for h in hits[1:]), hits

    def test_a_trace_no_longer_looked_up_goes_first(self, monkeypatch):
        idle, live = self.trace("idle", 3, windows=4), self.trace("live", 4)
        l1 = SmallLRUCache(L1)
        self.sweep(live, l1), self.sweep(live, l1)
        live_bytes = window_cache_stats()["bytes"]      # 8 + 1 cold
        clear_window_cache()
        self.sweep(idle, SmallLRUCache(L1))
        idle_bytes = window_cache_stats()["bytes"]
        monkeypatch.setattr(common, "WINDOW_CACHE_BYTES",
                            live_bytes + idle_bytes // 2)
        l1 = SmallLRUCache(L1)
        # The live sweeps push the idle trace's windows out, not their own.
        assert [self.sweep(live, l1) for _ in range(3)] == [0, 7, 8]
        assert window_cache_stats()["evictions"] > 0
        assert self.sweep(idle, SmallLRUCache(L1)) < 4


class TestSampledDrain:
    @pytest.mark.parametrize("sampling", [1, 2, 32])
    @pytest.mark.parametrize("config", [config_C_L, config_M_BT],
                             ids=["C-L", "M-BT"])
    def test_atd_state_equals_the_unfiltered_drain(self, small_windows,
                                                   config, sampling):
        """The reference engine observes every L2 access one by one; the
        batched engine hands the ATD kernels sampled slices only.  Tag
        state, SDH registers, sampled and skipped counters must agree."""
        case = make_case(2, sampling=sampling, l2_sets=64)
        case = dataclasses.replace(case, partitioning=config(
            atd_sampling=sampling, interval_cycles=9_000))
        reference = run_engine(case, "reference")
        assert all(sampled > 0 for _, _, sampled, _ in reference.profiling)
        if sampling > 1:
            assert all(skipped > 0
                       for _, _, _, skipped in reference.profiling)
        for _ in ("cold", "warm"):
            snapshot = run_engine(case, "batched")
            assert snapshot.profiling == reference.profiling
            assert diff_snapshots(reference, snapshot) == []

    def test_positions_are_memoised_per_sampling_factor(self):
        from repro.profiling.atd import ATD
        from repro.profiling.profilers import make_profiler

        trace = TestKey.trace()
        first, _ = l1_miss_window(trace, SmallLRUCache(L1), 0, 512, False)
        assert first.sampled == {}
        l2 = CacheGeometry(64 * 8 * 128, 8, 128)
        before = window_cache_stats()["bytes"]
        for sampling in (2, 32, 2):
            atd = ATD(l2, sampling, "lru", make_profiler("lru", 8))
            window, lines = l1_miss_window(trace, SmallLRUCache(L1), 0, 512,
                                           False, atd)
            assert window is first
            assert window.sampled[sampling].tolist() == [
                i for i, line in enumerate(lines.tolist())
                if line % sampling == 0]
        assert sorted(first.sampled) == [2, 32]
        grown = sum(p.nbytes for p in first.sampled.values())
        stats = window_cache_stats()
        assert (stats["bytes"], stats["entries"]) == (before + grown, 1)
        assert stats["bytes"] == first.nbytes
