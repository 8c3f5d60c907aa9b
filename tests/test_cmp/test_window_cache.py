"""Window by window: what the batched engine does to a trace window must
be unobservable.

Each window of a thread's trace goes through the L1's ``prefilter``
kernel, and the engine drains slices of the miss stream into the ATDs,
whose kernels count the lines outside their sampled sets.  Neither may change anything a run can observe: results,
the L2, the profiling state — and the simulator's own L1 objects.  The
reference engine walks its L1 one access at a time and is the oracle
throughout.  (The module keeps the name of the window cache it once
tested, which the prefilter made redundant: its test ids are recorded.)
"""

import dataclasses

import numpy as np
import pytest

import repro.cmp.engine.batched as batched_mod
from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import SmallLRUCache
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
    """Per core: the L1's slots, dirty flags and every statistics field."""
    return [(list(l1._slots), list(l1._dirty),
             [list(getattr(l1.stats, name)) for name in l1.stats.__slots__])
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


class TestColdWarm:
    # ("solo-1" is one thread on the batched engine: the recorded id.)
    @pytest.mark.parametrize("engine,num_cores", [
        ("batched", 2), ("batched", 4),
        pytest.param("batched", 1, id="solo-1")])
    def test_results_and_l1_state_identical(self, small_windows, engine,
                                            num_cores):
        """A run and its repeat in the same process: the reference's
        results, and the same L1 slots, dirty flags and statistics."""
        case = make_case(num_cores)
        cold, cold_l1 = run(case, engine)
        warm, warm_l1 = run(case, engine)
        assert cold == warm == run(case, "reference")[0]
        assert cold_l1 == warm_l1


class TestKey:
    @staticmethod
    def trace():
        """Starts and ends on the same four lines (two per L1 set), so a
        second pass finds its first four references resident."""
        lines = np.random.default_rng(9).integers(0, 40, size=1024)
        lines[:4] = lines[-4:] = (100, 101, 102, 103)
        return Trace("k", lines, ipm=4.0, cpi_base=1.0)

    def test_same_window_different_l1_state_misses(self):
        """A window's miss stream is a function of the window *and* the
        L1 state before it."""
        trace = self.trace()
        l1 = SmallLRUCache(L1)
        first = l1.access_lines_hit(trace.lines[:512])
        l1.access_lines_hit(trace.lines[512:])
        # Pass two: window 0 now starts warm — its first four references
        # hit, and from there the state is pass one's.
        again = l1.access_lines_hit(trace.lines[:512])
        assert first.offs[:4].tolist() == [0, 1, 2, 3]
        assert again.offs.tolist() == first.offs[4:].tolist()
        assert again.lines.tolist() == first.lines[4:].tolist()
        # A cold L1 walks the pass-one window again.
        fresh = SmallLRUCache(L1).access_lines_hit(trace.lines[:512])
        assert fresh.offs.tolist() == first.offs.tolist()

    def test_key_covers_content_geometry_and_write_mode(self):
        """What a window's miss stream depends on — its content, the L1
        geometry — and what it does not: the trace's name.  A window
        walk reads: a write is no walk's input, and an L1 a write left
        dirty is refused."""
        trace = self.trace()

        def stream(trace, geometry=L1):
            l1 = SmallLRUCache(geometry)
            return [column.tolist()
                    for column in l1.access_lines_hit(trace.lines[:512])]

        base = stream(trace)
        renamed = Trace("other-name", trace.lines.copy(), ipm=4.0,
                        cpi_base=1.0)
        assert stream(renamed) == base
        shifted = Trace("k", trace.lines + 1, ipm=4.0, cpi_base=1.0)
        assert stream(shifted) != base
        assert stream(trace, CacheGeometry(4 * 2 * 128, 2, 128)) != base
        written = overlay_writes(trace, 0.4, seed=2)
        assert stream(written) == base
        with pytest.raises(NotImplementedError):
            SmallLRUCache(L1).access_lines_rw(written.lines[:512],
                                              written.writes[:512])
        l1 = SmallLRUCache(L1)
        l1.access_line_rw(int(written.lines[0]), True)
        with pytest.raises(ValueError, match="holds a dirty line"):
            l1.access_lines_hit(written.lines[1:512])

    def test_dirty_set_is_part_of_the_key(self):
        """Same slots, different dirty flags: the clean L1 walks the
        window, the dirty one refuses it and stays as it was, so the
        dirty flags are part of the state a walk depends on."""
        trace = self.trace()
        clean, dirty = SmallLRUCache(L1), SmallLRUCache(L1)
        for line in (1001, 1002, 1003, 1004):
            clean.access_line_rw(line, False)
            dirty.access_line_rw(line, True)
        assert clean._slots == dirty._slots and clean._dirty != dirty._dirty
        slots = list(dirty._slots)
        assert len(clean.access_lines_hit(trace.lines[:512]).offs)
        with pytest.raises(ValueError, match="holds a dirty line"):
            dirty.access_lines_hit(trace.lines[:512])
        assert list(dirty._slots) == slots

    def test_columns_are_compact_and_consistent(self):
        """One entry per miss in every column, nothing per hit: the lines
        are the trace's at the offsets, the gaps the hits between."""
        trace = self.trace()
        stream = SmallLRUCache(L1).access_lines_hit(trace.lines[:512])
        assert len(stream.offs) == len(stream.gaps) == len(stream.lines) \
            < 512
        assert stream.offs.dtype == stream.gaps.dtype == np.int64
        assert stream.lines.tolist() == trace.lines[stream.offs].tolist()
        assert stream.gaps.tolist() == \
            (np.diff(stream.offs, prepend=-1) - 1).tolist()
        assert len(stream) == 3


class TestWrites:
    @pytest.mark.parametrize("engine,num_cores", [
        ("batched", 2), pytest.param("batched", 1, id="solo-1")])
    def test_write_traces_cold_and_warm(self, small_windows, engine,
                                        num_cores):
        """The batched engine refuses a write trace; ``auto`` runs it on
        the reference engine, cold and warm alike."""
        case = make_case(num_cores, writes=True)
        with pytest.raises(ValueError, match="a trace writes"):
            run_engine(case, engine)
        reference = run_engine(case, "reference")
        assert reference.events["l1_writebacks"] > 0
        for _ in ("cold", "warm"):
            assert diff_snapshots(reference, run_engine(case, "auto")) == []


class SpyCase(FuzzCase):
    """The case with every ATD's drain behind a transparent wrapper
    (``functools.update_wrapper``, as a tracer wraps it) that records the
    lines it is handed."""

    handed: list = []

    def simulator(self, engine):
        import functools

        sim = super().simulator(engine)
        for monitor in sim.profiling.monitors:
            kernel = monitor.atd.observe_many

            def spy(batch, kernel=kernel):
                type(self).handed.extend(batch.tolist())
                kernel(batch)

            monitor.atd.observe_many = functools.update_wrapper(spy, kernel)
        return sim


class TestSampledDrain:
    @pytest.mark.parametrize("sampling", [1, 2, 32])
    @pytest.mark.parametrize("config", [config_C_L, config_M_BT],
                             ids=["C-L", "M-BT"])
    def test_atd_state_equals_the_unfiltered_drain(self, small_windows,
                                                   config, sampling,
                                                   monkeypatch):
        """The reference engine observes every L2 access one by one
        (``ATD.observe``); the batched engine hands each drain its whole
        stream slice, and the drain kernel's own ``skip_mask`` test counts
        the unsampled lines.  Tag state, SDH registers, sampled and
        skipped counters must agree."""
        case = make_case(2, sampling=sampling, l2_sets=64)
        case = dataclasses.replace(case, partitioning=config(
            atd_sampling=sampling, interval_cycles=9_000))
        reference = run_engine(case, "reference")
        assert all(sampled > 0 for _, _, sampled, _ in reference.profiling)
        if sampling > 1:
            assert all(skipped > 0
                       for _, _, _, skipped in reference.profiling)
        monkeypatch.setattr(SpyCase, "handed", [])
        snapshot = run_engine(SpyCase(**vars(case)), "batched")
        assert snapshot.profiling == reference.profiling
        assert diff_snapshots(reference, snapshot) == []
        # Every L2 access reached a kernel, the unsampled ones too.
        assert len(SpyCase.handed) == sum(
            sampled + skipped
            for _, _, sampled, skipped in reference.profiling)
        assert any(line & (sampling - 1) for line in SpyCase.handed) \
            == (sampling > 1)
