"""Cross-component property tests (hypothesis).

These pin the *theorems* the paper's system rests on:

1. the Mattson stack property of true LRU — the SDH built from stack
   distances predicts the miss count of every smaller associativity
   exactly (the foundation of CPA profiling, §II-A);
2. the inclusion property (a w-way LRU set's content is a subset of the
   (w+1)-way set's content under the same stream);
3. pseudo-LRU schemes do *not* have the stack property (the paper's
   motivation for the eSDH), while their estimates stay within bounds;
4. partition enforcement never fills outside a thread's candidate ways.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loop_window import loop_window
from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.partition.allocation import WayAllocation
from repro.cache.partition.masks import MasksPartition
from repro.cache.replacement.base import make_policy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.nru import NRUPolicy
from repro.cache.state import rendered_key
from repro.profiling.sdh import SDH

line_streams = st.lists(st.integers(0, 23), min_size=1, max_size=300)


def geometry(num_sets, assoc):
    return CacheGeometry(num_sets * assoc * 128, assoc, 128)


def run_lru_set(stream, assoc):
    """Simulate one LRU set; returns (misses, SDH over the stream)."""
    policy = LRUPolicy(1, assoc)
    resident = {}
    sdh = SDH(assoc)
    misses = 0
    for line in stream:
        way = resident.get(line)
        if way is not None:
            sdh.record(policy.stack_position(0, way))
            policy.touch(0, way, 0)
            continue
        misses += 1
        sdh.record_miss()
        if len(resident) < assoc:
            way = len(resident)
        else:
            way = policy.victim(0, 0, (1 << assoc) - 1)
            for old, w in list(resident.items()):
                if w == way:
                    del resident[old]
        resident[line] = way
        policy.touch(0, way, 0)
    return misses, sdh


class TestStackProperty:
    @given(line_streams)
    @settings(max_examples=60, deadline=None)
    def test_sdh_predicts_every_associativity(self, stream):
        """THE theorem: misses(w) from the A-way SDH equals the actual miss
        count of a w-way LRU cache on the same stream, for every w."""
        full_assoc = 16
        _, sdh = run_lru_set(stream, full_assoc)
        for ways in range(1, full_assoc + 1):
            actual, _ = run_lru_set(stream, ways)
            assert sdh.misses_with_ways(ways) == actual

    @given(line_streams)
    @settings(max_examples=60, deadline=None)
    def test_inclusion_property(self, stream):
        """Content of a w-way LRU set is contained in the (w+1)-way one."""
        def content(assoc):
            policy = LRUPolicy(1, assoc)
            resident = {}
            for line in stream:
                if line in resident:
                    policy.touch(0, resident[line], 0)
                    continue
                if len(resident) < assoc:
                    way = len(resident)
                else:
                    way = policy.victim(0, 0, (1 << assoc) - 1)
                    for old, w in list(resident.items()):
                        if w == way:
                            del resident[old]
                resident[line] = way
                policy.touch(0, way, 0)
            return set(resident)

        previous = content(1)
        for ways in range(2, 9):
            current = content(ways)
            assert previous <= current
            previous = current


class TestPseudoLRULacksStackProperty:
    """The operational content of "NRU and BT do not have the stack
    property" (paper §III): a full-associativity ATD running those
    policies cannot predict the miss counts of smaller allocations — its
    eSDH carries *estimation error*, unlike the exact LRU SDH.  LRU's ATD
    prediction is exact for every stream; for NRU and BT, streams with
    nonzero prediction error are easy to find."""

    @staticmethod
    def _prediction_errors(policy_name, stream, ways_list):
        from repro.profiling.atd import ATD
        from repro.profiling.profilers import make_profiler

        atd = ATD(geometry(1, 8), 1, policy_name, make_profiler(policy_name))
        for line in stream:
            atd.observe(line)
        curve = atd.sdh.miss_curve()
        errors = []
        for ways in ways_list:
            cache = SetAssociativeCache(geometry(1, ways), policy_name)
            for line in stream:
                cache.access_line(line)
            errors.append(int(curve[ways]) - cache.stats.total_misses)
        return errors

    def _streams(self, count=30, length=200):
        rng = np.random.default_rng(0)
        for _ in range(count):
            yield [int(x) for x in rng.integers(0, 12, size=length)]

    def test_lru_atd_prediction_is_exact(self):
        for stream in self._streams():
            assert self._prediction_errors("lru", stream, (1, 2, 4)) == [0, 0, 0]

    def test_nru_esdh_has_estimation_error(self):
        assert any(any(e != 0 for e in self._prediction_errors("nru", s, (1, 2, 4)))
                   for s in self._streams())

    def test_bt_esdh_has_estimation_error(self):
        assert any(any(e != 0 for e in self._prediction_errors("bt", s, (2, 4)))
                   for s in self._streams())


class TestEnforcementProperties:
    @given(st.lists(st.tuples(st.integers(0, 127), st.integers(0, 1)),
                    min_size=1, max_size=500),
           st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_fills_always_inside_mask(self, stream, split):
        scheme = MasksPartition(2, 4, 8)
        scheme.apply(WayAllocation.from_counts([split, 8 - split], 8))
        cache = SetAssociativeCache(geometry(4, 8), "lru", partition=scheme,
                                    num_cores=2)
        for line, core in stream:
            result = cache.access_line(line, core)
            if not result.hit:
                assert (scheme.mask_of(core) >> result.way) & 1

    @given(st.lists(st.tuples(st.integers(0, 127), st.integers(0, 1)),
                    min_size=1, max_size=500))
    @settings(max_examples=40, deadline=None)
    def test_nru_partitioned_fills_inside_mask(self, stream):
        scheme = MasksPartition(2, 4, 8)
        scheme.apply(WayAllocation.from_counts([3, 5], 8))
        cache = SetAssociativeCache(geometry(4, 8), "nru", partition=scheme,
                                    num_cores=2)
        for line, core in stream:
            result = cache.access_line(line, core)
            if not result.hit:
                assert (scheme.mask_of(core) >> result.way) & 1

    @given(st.lists(st.integers(0, 255), min_size=50, max_size=400))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, lines):
        cache = SetAssociativeCache(geometry(4, 4), "bt")
        for line in lines:
            cache.access_line(line)
        assert cache.occupancy() <= 16
        for s in range(4):
            resident = cache.resident_lines(s)
            assert len(resident) == len(set(resident))  # no duplicates


class TestLRUOrderLists:
    """The LRU family's recency order is ``assoc`` flat slots per set.

    The rendered kernels search and shift those slots without a bound
    check — a hit's search stops at its way, a victim walk starts at the
    deepest present slot, a fill shifts the present prefix — so the first
    ``_present[s].bit_count()`` slots of set ``s`` must be exactly its
    present ways, MRU first, and every other slot ``-1``; and ``_order``
    must stay the same object for the life of the policy (kernels capture
    it at cache construction, and C shares it by address).
    """

    SETS, ASSOC = 2, 4
    operations = st.lists(
        st.tuples(st.sampled_from(["touch", "fill", "victim", "invalidate",
                                   "reset"]),
                  st.integers(0, SETS - 1), st.integers(0, ASSOC - 1),
                  st.integers(1, (1 << ASSOC) - 1)),
        max_size=120)

    @given(st.sampled_from(["lru", "fifo", "lip", "bip", "dip"]), operations)
    @settings(max_examples=60, deadline=None)
    def test_each_list_is_a_permutation_of_the_present_ways(self, name, ops):
        policy = make_policy(name, self.SETS, self.ASSOC,
                             rng=np.random.default_rng(7))
        outer = policy._order
        for op, s, way, mask in ops:
            if op == "touch":
                policy.touch(s, way, 0)
            elif op == "fill":
                policy.touch_fill(s, way, 0)
            elif op == "victim":
                # What a miss does: choose under the mask, then fill.
                policy.touch_fill(s, policy.victim(s, 0, mask), 0)
            elif op == "invalidate":
                policy.invalidate(s, way)
            else:
                policy.reset()
            assert len(policy._order) == self.SETS * self.ASSOC
            for s in range(self.SETS):
                present = policy._present[s]
                count = present.bit_count()
                slots = list(policy._order[s * self.ASSOC:
                                           (s + 1) * self.ASSOC])
                assert sum(1 << w for w in slots[:count]) == present
                assert len(set(slots[:count])) == count
                assert slots[count:] == [-1] * (self.ASSOC - count)
        assert policy._order is outer

    @given(line_streams, line_streams)
    @settings(max_examples=40, deadline=None)
    def test_kernel_bound_before_a_flush_drives_the_same_lists(self, prefix,
                                                               stream):
        """``flush()`` empties the slots in place: a fused event loop
        bound before it replays the next stream exactly as a fresh
        cache's does, and leaves its result in the policy's own array."""
        flushed = SetAssociativeCache(geometry(4, 4), "lru")
        assert rendered_key(flushed) == ("lru", "none")
        kernel = loop_window(flushed)
        orders = flushed.policy._order
        kernel(prefix, bytearray(len(prefix)))
        flushed.flush()
        assert flushed.policy._order is orders
        assert list(orders) == [-1] * len(orders)
        flags_flushed = bytearray(len(stream))
        kernel(stream, flags_flushed)
        fresh = SetAssociativeCache(geometry(4, 4), "lru")
        flags_fresh = bytearray(len(stream))
        loop_window(fresh)(stream, flags_fresh)
        assert flags_flushed == flags_fresh
        assert orders == fresh.policy._order
        assert list(flushed.state.lines) == list(fresh.state.lines)


class TestSDHDecayProperties:
    @given(st.lists(st.integers(1, 17), min_size=0, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_halving_keeps_curve_monotone(self, distances):
        sdh = SDH(16)
        for d in distances:
            if d == 17:
                sdh.record_miss()
            else:
                sdh.record(d)
        sdh.halve()
        curve = sdh.miss_curve()
        assert (np.diff(curve) <= 0).all()
        assert (curve >= 0).all()


class TestMetamorphicReplay:
    """Metamorphic relations of trace replay.

    These are the fuzz harness's invariants stated as properties: the
    same reference stream must leave the same cache regardless of how it
    is *delivered* (one run of the event loop vs several, a fresh cache
    vs a flushed one), and a trace's identity must follow its content,
    never its name.
    """

    policies = st.sampled_from(["lru", "fifo", "nru", "bt"])

    @staticmethod
    def _cache(policy):
        return SetAssociativeCache(geometry(4, 4), policy,
                                   rng=np.random.default_rng(5))

    @staticmethod
    def _replay(cache, lines):
        """Hit flags of ``lines`` as one thread's stream through the
        event loop (fused for lru / nru / bt; fifo steps the classes, as
        the reference engine does)."""
        flags = bytearray(len(lines))
        loop_window(cache)(lines, flags)
        return list(flags)

    @given(line_streams, st.integers(0, 300), policies)
    @settings(max_examples=40, deadline=None)
    def test_chunked_replay_equals_concatenation(self, stream, cut, policy):
        """One loop run over A+B == a run over A then a run over B (what
        a window seam, or a boundary's return to Python, is)."""
        cut = cut % (len(stream) + 1)
        whole = self._cache(policy)
        flags_whole = self._replay(whole, stream)
        chunked = self._cache(policy)
        flags_a = self._replay(chunked, stream[:cut])
        flags_b = self._replay(chunked, stream[cut:])
        assert flags_whole == flags_a + flags_b
        assert list(whole.state.lines) == list(chunked.state.lines)
        assert whole.stats.accesses == chunked.stats.accesses
        assert whole.stats.misses == chunked.stats.misses

    @given(line_streams, line_streams, policies)
    @settings(max_examples=40, deadline=None)
    def test_flush_then_replay_equals_fresh_cache(self, prefix, stream,
                                                  policy):
        """flush() erases all history: the next stream replays as if the
        cache were newly built (tag store, replacement state, victims)."""
        flushed = self._cache(policy)
        self._replay(flushed, prefix)
        flushed.flush()
        flags_flushed = self._replay(flushed, stream)
        fresh = self._cache(policy)
        flags_fresh = self._replay(fresh, stream)
        assert flags_flushed == flags_fresh
        assert list(flushed.state.lines) == list(fresh.state.lines)
        assert list(flushed.state.invalid) == list(fresh.state.invalid)

    @given(line_streams,
           st.text(max_size=12), st.text(max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_fingerprint_stable_under_renaming(self, stream, name_a,
                                               name_b):
        """The fingerprint is content identity: renaming never changes
        it, content changes always do."""
        from repro.workloads.trace import Trace

        lines = np.asarray(stream, dtype=np.int64)
        a = Trace(name_a, lines.copy(), ipm=4.0, cpi_base=1.0)
        b = Trace(name_b, lines.copy(), ipm=4.0, cpi_base=1.0)
        assert a.fingerprint() == b.fingerprint()
        shifted = Trace(name_a, lines + 1, ipm=4.0, cpi_base=1.0)
        assert shifted.fingerprint() != a.fingerprint()
        retimed = Trace(name_a, lines.copy(), ipm=2.0, cpi_base=1.0)
        assert retimed.fingerprint() != a.fingerprint()

    def test_engine_chunk_size_is_unobservable(self):
        """A single-thread run's chunked trace walk is a delivery detail:
        shrinking CHUNK_SIZE (forcing many wrap/reload seams) must not
        change a single result field."""
        import dataclasses

        import repro.cmp.engine.batched as batched_mod
        from repro.cmp.simulator import CMPSimulator
        from repro.config import (ProcessorConfig, SimulationConfig,
                                  config_unpartitioned)
        from repro.workloads.trace import Trace

        rng = np.random.default_rng(41)
        trace = Trace("t0", rng.integers(0, 400, size=5_000), ipm=4.0,
                      cpi_base=1.0)
        processor = ProcessorConfig(
            num_cores=1,
            l1i=CacheGeometry(2 * 2 * 128, 2, 128),
            l1d=CacheGeometry(2 * 2 * 128, 2, 128),
            l2=CacheGeometry(16 * 8 * 128, 8, 128),
        )

        def run():
            sim = CMPSimulator(processor, config_unpartitioned("lru"),
                               [trace],
                               SimulationConfig(instructions_per_thread=30_000))
            return sim.run()

        baseline = run()
        default_chunk = batched_mod.CHUNK_SIZE
        try:
            batched_mod.CHUNK_SIZE = 512
            chunked = run()
        finally:
            batched_mod.CHUNK_SIZE = default_chunk
        assert dataclasses.asdict(baseline.threads[0]) == \
            dataclasses.asdict(chunked.threads[0])
        assert dataclasses.asdict(baseline.events) == \
            dataclasses.asdict(chunked.events)

    @given(st.data(), st.sampled_from([2, 4]),
           st.sampled_from(["lru", "nru", "C-L", "M-BT"]))
    @settings(max_examples=25, deadline=None)
    def test_batched_chunk_size_is_unobservable(self, data, num_cores,
                                                config_name):
        """The batched engine's prefilter window is a delivery detail for
        any thread count: gaps folded across however many seams and wraps
        must give the results of the single-window run, field for field."""
        import dataclasses

        import repro.cmp.engine.batched as batched_mod
        from repro.cmp.simulator import run_workload
        from repro.config import (ProcessorConfig, SimulationConfig,
                                  config_C_L, config_M_BT,
                                  config_unpartitioned)
        from repro.workloads.trace import Trace

        config = {
            "C-L": config_C_L(atd_sampling=2, interval_cycles=2_000),
            "M-BT": config_M_BT(atd_sampling=2, interval_cycles=2_000),
        }.get(config_name) or config_unpartitioned(config_name)
        traces, budgets = [], []
        for core in range(num_cores):
            # Small alphabets give long L1 hit gaps (and resident threads),
            # large ones steady L2 traffic.
            alphabet = data.draw(st.sampled_from([3, 8, 40, 400]))
            stream = data.draw(st.lists(st.integers(0, alphabet - 1),
                                        min_size=20, max_size=400))
            traces.append(Trace(
                f"t{core}", np.asarray(stream) + core * 1_000_000,
                ipm=data.draw(st.sampled_from([2.6, 4.0])), cpi_base=1.1))
            budgets.append(data.draw(st.integers(40, 4_000)))
        processor = ProcessorConfig(
            num_cores=num_cores,
            l1i=CacheGeometry(2 * 2 * 128, 2, 128),
            l1d=CacheGeometry(2 * 2 * 128, 2, 128),
            l2=CacheGeometry(16 * 8 * 128, 8, 128),
        )

        def run():
            result = run_workload(
                processor, config, traces,
                SimulationConfig(engine="batched", seed=3,
                                 per_thread_instructions=tuple(budgets)))
            return ([dataclasses.asdict(t) for t in result.threads],
                    dataclasses.asdict(result.events),
                    result.partition_history)

        baseline = run()
        default_chunk = batched_mod.CHUNK_SIZE
        try:
            for chunk in (64, 512):
                batched_mod.CHUNK_SIZE = chunk
                assert run() == baseline
        finally:
            batched_mod.CHUNK_SIZE = default_chunk

    @given(st.data(), st.sampled_from([1, 7, 64, 512, 1 << 16]),
           st.sampled_from(["C-L", "M-BT", "nru"]), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_prefilter_window_is_unobservable(self, data, chunk,
                                              config_name, writes):
        """Whatever the window width — one reference, odd widths, the
        default — a batched run leaves the results, the L2 and the
        ATD/SDH state of the per-access reference engine's walk, and a
        repeat run leaves the simulator's L1s identical; a write trace is
        the reference engine's under ``auto`` and the batched engine
        refuses it."""
        import repro.cmp.engine.batched as batched_mod
        from repro.config import (PartitioningConfig, config_C_L,
                                  config_M_BT)
        from repro.fuzz import FuzzCase, diff_snapshots, run_engine
        from repro.workloads.trace import Trace
        from repro.workloads.writes import overlay_writes

        partitioning = {
            "C-L": config_C_L(atd_sampling=2, interval_cycles=2_000),
            "M-BT": config_M_BT(atd_sampling=4, interval_cycles=2_000),
        }.get(config_name) or PartitioningConfig(policy=config_name,
                                                 enforcement="none")
        traces, budgets = [], []
        for core in range(2):
            alphabet = data.draw(st.sampled_from([3, 8, 40, 400]))
            stream = data.draw(st.lists(st.integers(0, alphabet - 1),
                                        min_size=20, max_size=300))
            trace = Trace(f"t{core}", np.asarray(stream) + core * 1_000_000,
                          ipm=4.0, cpi_base=1.1)
            if writes:
                trace = overlay_writes(trace, 0.3, seed=core)
            traces.append(trace)
            budgets.append(data.draw(st.integers(40, 4_000)))
        case = FuzzCase(traces=traces, l1_sets=2, l1_assoc=2, l2_sets=16,
                        l2_assoc=8, partitioning=partitioning,
                        instructions_per_thread=1,
                        per_thread_instructions=tuple(budgets))

        def batched():
            sim = case.simulator("batched")
            sim.run()
            return [(list(l1._slots), list(l1._dirty),
                     [list(getattr(l1.stats, name))
                      for name in l1.stats.__slots__])
                    for l1 in sim.hierarchy.l1]

        reference = run_engine(case, "reference")
        default_chunk = batched_mod.CHUNK_SIZE
        try:
            batched_mod.CHUNK_SIZE = chunk
            if writes:
                with pytest.raises(ValueError, match="a trace writes"):
                    batched()
                assert diff_snapshots(reference,
                                      run_engine(case, "auto")) == []
                return
            assert diff_snapshots(reference,
                                  run_engine(case, "batched")) == []
            assert batched() == batched()
        finally:
            batched_mod.CHUNK_SIZE = default_chunk
