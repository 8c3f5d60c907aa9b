"""Window by window: what the batched engine does to a trace window must
be unobservable.

Each window of a thread's trace goes through the L1's ``prefilter``
kernel — a one-window trace at most twice a run, after which the engine
hands out the *fixed window* its last walk returned — and the engine
drains slices of the miss stream into the ATDs, whose kernels count the
lines outside their sampled sets.  None of it may change anything a run
can observe: results, the L2, the profiling state — and the simulator's
own L1 objects.  The reference engine walks its L1 one access at a time
and is the oracle throughout.  (The module keeps the name of the window
cache it once tested, which the prefilter made redundant: its test ids
are recorded.)
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


def offsets(stream):
    """The window offsets of a stream's misses: ``j + cumsum(gaps)[j]``."""
    return np.arange(len(stream.gaps)) + np.cumsum(stream.gaps)


def l1_image(l1):
    """The L1's slots, dirty flags and every statistics field."""
    return (list(l1._slots), list(l1._dirty),
            [list(getattr(l1.stats, name)) for name in l1.stats.__slots__])


def l1_images(sim):
    """:func:`l1_image` per core."""
    return [l1_image(l1) for l1 in sim.hierarchy.l1]


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


def cold_and_warm(case, engine):
    """A run and its repeat in the same process: the reference's results,
    and the same L1 slots, dirty flags and statistics."""
    cold, cold_l1 = run(case, engine)
    warm, warm_l1 = run(case, engine)
    assert cold == warm == run(case, "reference")[0]
    assert cold_l1 == warm_l1


class TestColdWarm:
    # ("solo-1" is one thread on the batched engine: the recorded id.)
    @pytest.mark.parametrize("engine,num_cores", [
        ("batched", 2), ("batched", 4),
        pytest.param("batched", 1, id="solo-1")])
    def test_results_and_l1_state_identical(self, small_windows, engine,
                                            num_cores):
        """Several windows a pass: every window is walked."""
        cold_and_warm(make_case(num_cores), engine)

    @pytest.mark.parametrize("num_cores", [1, 2, 4])
    def test_fixed_windows_results_and_l1_state_identical(self, num_cores):
        """One window a pass: from the third pass on a thread takes its
        fixed window."""
        cold_and_warm(make_case(num_cores), "batched")


def count_walks(monkeypatch):
    """Walks per L1 (``SmallLRUCache.access_lines_hit`` calls), filled in
    as the simulators built after this call run."""
    walks = {}
    walk = SmallLRUCache.access_lines_hit

    def spy(l1, lines, out=None):
        walks[l1] = walks.get(l1, 0) + 1
        return walk(l1, lines, out)

    monkeypatch.setattr(SmallLRUCache, "access_lines_hit", spy)
    return walks


def replayed_l1(l1, trace):
    """A fresh L1 stepped per access (``access_line_rw``) over the whole
    passes of ``trace`` that ``l1`` counted: what walking every pass
    leaves."""
    passes, part = divmod(l1.stats.accesses[0], len(trace.lines))
    assert part == 0
    oracle = SmallLRUCache(l1.geometry)
    for line in trace.lines.tolist() * passes:
        oracle.access_line_rw(line, False)
    return oracle


class TestFixedWindow:
    """A one-window trace is walked at most twice a run: a walk that
    leaves the L1 as it found it is every later pass's miss stream."""

    @staticmethod
    def differential(case, monkeypatch):
        """``(walks, result, sim, reference)``: the walks per core of a
        batched run whose results are the reference's, its result and
        both simulators."""
        reference = case.simulator("reference")
        expected = reference.run()
        walks = count_walks(monkeypatch)
        sim = case.simulator("batched")
        result = sim.run()
        assert result.events == expected.events
        assert result.threads == expected.threads
        assert result.partition_history == expected.partition_history
        return ([walks.get(l1, 0) for l1 in sim.hierarchy.l1], result, sim,
                reference)

    @pytest.mark.parametrize("num_cores", [1, 2, 4])
    @pytest.mark.parametrize("passes", [2, 5, 20])
    def test_each_thread_walks_its_window_at_most_twice(
            self, monkeypatch, passes, num_cores):
        """Results are the reference's; each L1 is what walking every
        pass per access leaves — at one thread, whose budget ends on the
        pass edge, the reference's own L1."""
        case = make_case(num_cores, budget=passes * 1500 * 4)
        walks, _result, sim, reference = self.differential(case,
                                                           monkeypatch)
        assert 1 <= min(walks) and max(walks) <= 2
        oracles = ([reference.hierarchy.l1[0]] if num_cores == 1 else
                   [replayed_l1(l1, trace) for l1, trace
                    in zip(sim.hierarchy.l1, case.traces)])
        assert l1_images(sim) == [l1_image(l1) for l1 in oracles]

    @pytest.mark.parametrize("freeze_on", ["miss", "hit", "pass-end"])
    def test_final_freeze_inside_a_fixed_window(self, monkeypatch,
                                                freeze_on):
        """Thread 0 ends the run in its seventh pass, on a fixed window,
        while thread 1 — frozen long before, on a trace of long hit runs —
        is inside a gap: the termination rollback counts its hits."""
        case = make_case(2)
        rng = np.random.default_rng(3)
        lines = np.where(rng.random(1500) < 0.02,
                         rng.integers(8, 400, size=1500),
                         rng.integers(0, 4, size=1500)) + (1 << 20)
        traces = [case.traces[0], Trace("runs", lines, ipm=4.0,
                                        cpi_base=1.0)]
        # The steady-state pass: a second walk from the first's L1.
        l1 = SmallLRUCache(L1)
        l1.access_lines_hit(traces[0].lines)
        offs = offsets(l1.access_lines_hit(traces[0].lines)).tolist()
        middle = offs[len(offs) // 2]
        at = {"miss": middle,
              "hit": next(o for o in range(middle, 1500)
                          if o not in offs),
              "pass-end": 1499}[freeze_on]
        if freeze_on != "pass-end":
            assert (at in offs) == (freeze_on == "miss")
        budgets = ((6 * 1500 + at + 1) * 4, 1500 * 4)
        case = dataclasses.replace(case, traces=traces,
                                   per_thread_instructions=budgets)
        walks, result, _sim, _reference = self.differential(case,
                                                            monkeypatch)
        assert walks[0] == 2
        assert result.threads[1].cycles < result.threads[0].cycles

    def test_a_thread_whose_footprint_fits_its_l1_parks(self,
                                                       monkeypatch):
        """Four lines, two per set of a 2x2 L1: the second walk misses
        nowhere, so the thread parks instead of keeping a fixed window;
        the other thread takes one."""
        case = make_case(2)
        lines = np.random.default_rng(4).integers(0, 4, size=1500)
        traces = [Trace("fits", lines, ipm=4.0, cpi_base=1.0),
                  case.traces[1]]
        case = dataclasses.replace(case, traces=traces,
                                   per_thread_instructions=(5 * 1500 * 4,) * 2)
        walks = self.differential(case, monkeypatch)[0]
        assert walks == [2, 2]


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
        assert offsets(first)[:4].tolist() == [0, 1, 2, 3]
        assert offsets(again).tolist() == offsets(first)[4:].tolist()
        assert again.lines.tolist() == first.lines[4:].tolist()
        assert again.tail == first.tail
        # A cold L1 walks the pass-one window again.
        fresh = SmallLRUCache(L1).access_lines_hit(trace.lines[:512])
        assert offsets(fresh).tolist() == offsets(first).tolist()

    def test_key_covers_content_geometry_and_write_mode(self):
        """What a window's miss stream depends on — its content, the L1
        geometry — and what it does not: the trace's name.  A window
        walk reads: a write is no walk's input, and an L1 a write left
        dirty is refused."""
        trace = self.trace()

        def stream(trace, geometry=L1):
            l1 = SmallLRUCache(geometry)
            gaps, lines, tail = l1.access_lines_hit(trace.lines[:512])
            return [gaps.tolist(), lines.tolist(), tail]

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
        assert len(clean.access_lines_hit(trace.lines[:512]).gaps)
        with pytest.raises(ValueError, match="holds a dirty line"):
            dirty.access_lines_hit(trace.lines[:512])
        assert list(dirty._slots) == slots

    def test_columns_are_compact_and_consistent(self):
        """One entry per miss in every column, nothing per hit: the gaps
        are the hits between, the lines the trace's at the offsets they
        place, and the tail the hits after the last miss."""
        trace = self.trace()
        stream = SmallLRUCache(L1).access_lines_hit(trace.lines[:512])
        assert len(stream.gaps) == len(stream.lines) < 512
        assert stream.gaps.dtype == stream.lines.dtype == np.int64
        offs = offsets(stream)
        assert stream.lines.tolist() == trace.lines[offs].tolist()
        stepped = SmallLRUCache(L1)
        misses = [i for i, line in enumerate(trace.lines[:512].tolist())
                  if not stepped.access_line_hit(line)]
        assert offs.tolist() == misses
        assert stream.tail == 511 - misses[-1]
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

