"""Unit tests for the flat array core: TagStore and the batch kernels.

The compiled renderings a cache or an ATD is eligible for (the fused
event loop, the ATD's drain kernel) must be *observably identical* to
the generic object-protocol paths — same hit/miss outcomes, same
statistics, same resident lines, same policy state — for every
registered policy and partition scheme.  The twin is a second cache
(or ATD) built the same way and stepped through the classes' methods
one access at a time: the per-access entry points are the classes'
methods on every instance, and ``ATD.observe_many`` called on the class
is its per-line loop.
"""

import dataclasses

from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.partition.allocation import (
    WayAllocation,
    even_subcube_allocation,
)
from repro.cache.partition.base import make_partition
from repro.cache.partition.btvectors import BTVectorPartition
from repro.cache.replacement.base import POLICY_REGISTRY, make_policy
from loop_window import loop_window
from repro.cache import native, transitions
from repro.cache.state import (
    TagStore,
    kernel_key,
    rendered_key,
)
from repro.cmp.engine import batched_refusal
from repro.cmp.simulator import CMPSimulator
from repro.config import (
    ProcessorConfig,
    SimulationConfig,
    config_M_BT,
    config_M_L,
    config_M_N,
)
from repro.fuzz.oracle import state_digest
from repro.profiling.atd import ATD
from repro.profiling.profilers import make_profiler
from repro.workloads.trace import Trace

ALL_POLICIES = sorted(POLICY_REGISTRY)

#: The policies the paper evaluates — the only ones with kernels.
PAPER_KINDS = {"lru", "nru", "bt"}


def test_kernel_tables_name_the_three_paper_kinds():
    """One kernel kind per paper policy in the transition spec — the only
    kernel table there is; a cache of each registered paper policy gets
    its kind, every other registered policy stays on the generic path."""
    assert set(transitions.POLICIES) == PAPER_KINDS
    geometry = CacheGeometry(4 * 4 * 128, 4, 128)
    for name in POLICY_REGISTRY:
        cache = SetAssociativeCache(geometry, name,
                                    rng=np.random.default_rng(0))
        assert kernel_key(cache) == ((name, "none")
                                     if name in PAPER_KINDS else None)


class TestTagStore:
    def test_install_lookup_evict(self):
        """An install is a store to the row, a lookup is :meth:`way_of`
        searching it, an eviction is the install that overwrites it."""
        store = TagStore(4, 2)
        assert store.way_of(0, 100) is None
        store.lines[0 * 2 + 1] = 100
        assert store.way_of(0, 100) == 1
        assert store.occupancy() == 1
        store.lines[0 * 2 + 1] = 104         # a fill overwrites the way
        assert store.way_of(0, 100) is None
        assert store.way_of(0, 104) == 1
        assert store.way_of(1, 104) is None  # another set's row

    def test_invalidate_way_clears_dirty_and_map(self):
        """The way's row entry (the line -> way map there is) goes -1."""
        store = TagStore(4, 2)
        store.lines[2 * 2 + 0] = 50
        store.invalid[2] &= ~1
        store.dirty[2] |= 1
        store.invalidate_way(2, 0)
        assert store.way_of(2, 50) is None
        assert store.lines[2 * 2 + 0] == -1
        assert store.invalid[2] & 1
        assert store.dirty[2] == 0

    def test_flush_in_place(self):
        store = TagStore(2, 2)
        lines_obj, invalid_obj = store.lines, store.invalid
        store.lines[0] = 7
        store.flush()
        assert store.occupancy() == 0
        assert store.lines is lines_obj and store.invalid is invalid_obj
        assert all(line == -1 for line in store.lines)
        assert all(inv == store.full_mask for inv in store.invalid)

    def test_resident_lines_and_array_view(self):
        store = TagStore(2, 2)
        store.lines[1 * 2 + 0] = 11
        store.lines[1 * 2 + 1] = 3
        assert store.resident_lines(1) == [11, 3]
        view = store.lines_array()
        assert view.shape == (2, 2)
        assert view[1, 0] == 11 and view[0, 0] == -1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_way_of_is_the_way_of_the_line_in_its_own_row(self, data):
        """``way_of(s, line)`` is the way of set ``s``'s row holding
        ``line`` and None otherwise: rows with ``-1`` holes anywhere, and
        lines drawn from one pool, so a line often sits only in a
        neighbouring set's row."""
        num_sets = data.draw(st.integers(1, 6))
        assoc = data.draw(st.integers(1, 8))
        store = TagStore(num_sets, assoc)
        for s in range(num_sets):
            held = data.draw(st.lists(st.integers(0, 24), unique=True,
                                      max_size=assoc))
            ways = data.draw(st.permutations(range(assoc)))
            for way, line in zip(ways, held):
                store.lines[s * assoc + way] = line
        for s in range(num_sets):
            row = list(store.lines[s * assoc:(s + 1) * assoc])
            for line in range(26):
                assert store.way_of(s, line) == (
                    row.index(line) if line in row else None), (s, line)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            TagStore(0, 4)


def scheme_for(scheme, policy, cores, num_sets, assoc):
    if scheme == "none":
        return None
    if scheme == "btvectors":
        part = BTVectorPartition(cores, num_sets, assoc, policy)
        part.apply(even_subcube_allocation(cores, assoc))
        return part
    part = make_partition(scheme, cores, num_sets, assoc)
    part.apply(WayAllocation.from_counts((5, 3), assoc))
    return part


#: Every policy x scheme the renderer accepts (each paper policy under
#: each stock scheme it can be built with), plus the extension policies
#: on the generic path.
KERNEL_CASES = [(p, s) for p in ALL_POLICIES
                for s in ("none", "masks", "counters")] + [("bt", "btvectors")]


@pytest.mark.parametrize("policy_name,scheme", KERNEL_CASES,
                         ids=lambda v: str(v))
def test_kernel_matches_generic_path(policy_name, scheme):
    """The loop a cache is eligible for (fused for the paper kinds) and
    its twin stepping the classes one access at a time evolve
    identically through windows of both cores interleaved with
    invalidations and flushes."""
    num_sets, assoc, cores = 8, 8, 2
    geometry = CacheGeometry(num_sets * assoc * 128, assoc, 128)

    def build():
        policy = make_policy(policy_name, num_sets, assoc,
                             rng=np.random.default_rng(3))
        part = scheme_for(scheme, policy, cores, num_sets, assoc)
        return SetAssociativeCache(geometry, policy, partition=part,
                                   num_cores=cores)

    fast = build()
    slow = build()
    # No instance shadows the per-access method; only the paper kinds
    # record a key, and with it the fused loop.
    assert "access_line_hit" not in vars(fast)
    assert "access_line_hit" not in vars(slow)
    assert rendered_key(fast) == ((policy_name, scheme)
                                  if policy_name in PAPER_KINDS else None)

    loops = [loop_window(fast, core) for core in range(cores)]
    rng = np.random.default_rng(23)
    for step in range(40):
        core = step % cores
        lines = rng.integers(0, 300, size=int(rng.integers(1, 250))).tolist()
        flags = bytearray(len(lines))
        loops[core](lines, flags)
        assert list(flags) == [slow.access_line_hit(line, core)
                               for line in lines], f"window {step}"
        op = int(rng.integers(0, 8))
        if op < 3:
            for line in rng.integers(0, 300, size=20).tolist():
                assert fast.invalidate_line(line) \
                    == slow.invalidate_line(line)
        elif op == 3:
            fast.flush()
            slow.flush()
    for s in range(num_sets):
        assert fast.resident_lines(s) == slow.resident_lines(s)
    for field in ("accesses", "misses", "fills_invalid"):
        assert getattr(fast.stats, field) == getattr(slow.stats, field)
    assert fast.stats.hits == slow.stats.hits
    assert fast.stats.evictions == slow.stats.evictions


def test_kernel_survives_flush():
    """A loop bound to a cache keeps working after flush (in-place
    resets)."""
    geometry = CacheGeometry(8 * 4 * 128, 4, 128)
    cache = SetAssociativeCache(geometry, "lru")
    kernel = loop_window(cache)
    lines = list(range(64))
    kernel(lines, bytearray(64))
    cache.flush()
    assert cache.occupancy() == 0
    assert rendered_key(cache) == ("lru", "none")
    flags = bytearray(64)
    kernel(lines, flags)
    assert flags == bytes(64)               # everything misses again
    assert cache.occupancy() == 32


def test_unknown_policy_falls_back_to_generic(monkeypatch):
    """A subclass of a paper policy is not the stock class, even a bare
    one that overrides and declares nothing: it gets no kernel and still
    works; a run over it — cache and ATDs — is refused by the batched
    engine by name and taken by ``auto`` to the reference engine, with
    the stock class's reference results."""
    geometry = CacheGeometry(4 * 4 * 128, 4, 128)
    processor = ProcessorConfig(
        num_cores=2, l1i=CacheGeometry(2 * 2 * 128, 2, 128),
        l1d=CacheGeometry(2 * 2 * 128, 2, 128),
        l2=CacheGeometry(16 * 8 * 128, 8, 128))
    rng = np.random.default_rng(4)
    traces = [Trace(f"t{core}", rng.integers(0, 400, size=3000),
                    ipm=4.0, cpi_base=1.0) for core in range(2)]

    def run(config, engine):
        sim = CMPSimulator(processor, config, traces, SimulationConfig(
            instructions_per_thread=12_000, seed=7, engine=engine))
        return sim, sim.run()

    for name, config in (("lru", config_M_L), ("nru", config_M_N),
                         ("bt", config_M_BT)):
        stock = POLICY_REGISTRY[name]
        Weird = type(f"Weird{stock.__name__}", (stock,), {})
        cache = SetAssociativeCache(geometry, Weird(4, 4))
        assert kernel_key(cache) is None and cache.kernel is None
        assert "access_line_hit" not in cache.__dict__
        assert cache.access_line_hit(5) is False
        assert cache.access_line_hit(5) is True

        partitioning = config(atd_sampling=4, interval_cycles=10_000)
        _sim, reference = run(partitioning, "reference")
        monkeypatch.setitem(POLICY_REGISTRY, name, Weird)
        sim, auto = run(partitioning, "auto")
        assert type(sim.hierarchy.l2.policy) is Weird
        assert "observe_many" not in vars(sim.profiling[0].atd)
        assert batched_refusal(sim).startswith(
            f"no rendering of the L2's {Weird.__name__} ")
        assert dataclasses.asdict(auto) == dataclasses.asdict(reference)


def test_mixed_entry_points_share_state():
    """access_line / access_line_rw / access_line_hit interleave."""
    geometry = CacheGeometry(8 * 4 * 128, 4, 128)
    fast = SetAssociativeCache(geometry, "lru")
    slow = SetAssociativeCache(geometry, "lru")
    rng = np.random.default_rng(5)
    for line in rng.integers(0, 100, size=2000).tolist():
        kind = line % 3
        if kind == 0:
            assert (fast.access_line_hit(line)
                    == slow.access_line_hit(line))
        elif kind == 1:
            assert fast.access_line(line) == slow.access_line(line)
        else:
            assert (fast.access_line_rw(line, write=True)
                    == slow.access_line_rw(line, write=True))
    assert fast.dirty_lines() == slow.dirty_lines()
    for s in range(8):
        assert fast.resident_lines(s) == slow.resident_lines(s)


@pytest.mark.parametrize("policy_name", ["lru", "nru", "bt"])
def test_observe_kernel_matches_generic(policy_name):
    """The drain kernel an ATD binds, fed ``array('q')`` batches of
    every length from one line up, against the class's ``observe`` fed
    the same lines one at a time; the kernel keeps working after a
    reset."""
    geometry = CacheGeometry(32 * 8 * 128, 8, 128)

    def build():
        return ATD(geometry, 4, policy_name, make_profiler(policy_name),
                   rng=np.random.default_rng(9))

    fast = build()
    slow = build()
    assert "observe" not in vars(fast) and "observe" not in vars(slow)
    assert "observe_many" in vars(fast)
    rng = np.random.default_rng(1)
    lines = rng.integers(0, 3000, size=8000).tolist()
    start = 0
    while start < len(lines):
        stop = start + int(rng.integers(1, 200))
        fast.observe_many(array("q", lines[start:stop]))
        for line in lines[start:stop]:
            slow.observe(line)
        start = stop
    assert fast.sampled_accesses == slow.sampled_accesses
    assert fast.skipped_accesses == slow.skipped_accesses
    assert list(fast.sdh.registers) == list(slow.sdh.registers)
    assert fast.state.lines == slow.state.lines

    fast.reset()
    assert fast.sampled_accesses == 0
    fast.observe_many(array("q", [0]))      # kernel alive after reset
    assert fast.sampled_accesses == 1


def test_observe_kernel_skipped_for_custom_profiler():
    """Non-stock profilers must keep the generic observe path."""
    from repro.profiling.profilers import LRUDistanceProfiler

    class Custom(LRUDistanceProfiler):
        pass

    geometry = CacheGeometry(32 * 8 * 128, 8, 128)
    atd = ATD(geometry, 4, "lru", Custom())
    assert "observe_many" not in vars(atd)

    spread = ATD(geometry, 4, "nru",
                 make_profiler("nru", spread_update=True))
    assert "observe_many" not in vars(spread)


# ----------------------------------------------------------------------
# Drains: the compiled ``observe`` rendering and the classes
# ----------------------------------------------------------------------
def rows_hold_once(store):
    """Assert that no line sits in two ways of one set's row (every
    valid entry is the one :meth:`TagStore.way_of` finds) and return
    True, for a snapshot."""
    for flat, line in enumerate(store.lines):
        if line >= 0:
            s, way = divmod(flat, store.assoc)
            assert store.way_of(s, line) == way, (s, way, line)
    return True


def atd_state(atd):
    """The full flat state a drain may touch."""
    return {"lines": list(atd.state.lines), "rows": rows_hold_once(atd.state),
            "invalid": list(atd.state.invalid),
            "policy": state_digest(atd.policy), "sdh": list(atd.sdh._r),
            "counts": list(atd._counts)}


class TestDrainTargets:
    """The compiled ``observe`` rendering an ATD binds against the class
    path (``ATD.observe_many`` called on the class) of a twin ATD, drain
    by drain.  Every batch, whatever
    its length, goes to the kernel the ATD bound — there is no size rule
    — as the ``array('q')`` the batched engine hands it; the kernel also
    takes an ``int64`` numpy column."""

    GEOMETRY = CacheGeometry(128 * 8 * 128, 8, 128)

    def pair(self, policy, sampling, scaling):
        def build(**kw):
            return ATD(self.GEOMETRY, sampling, policy,
                       make_profiler(policy, scaling=scaling),
                       rng=np.random.default_rng(9), **kw)

        compiled, classes = build(), build()
        assert isinstance(compiled.observe_many, native.CompiledKernel)
        return compiled, classes

    @pytest.mark.parametrize("scaling", [1.0, 0.75, 0.5, 1 / 3],
                             ids=["S1", "S0.75", "S0.5", "S0.33"])
    @pytest.mark.parametrize("sampling", [1, 4, 32])
    @pytest.mark.parametrize("policy", sorted(PAPER_KINDS))
    def test_full_state_after_every_drain(self, policy, sampling, scaling):
        compiled, classes = self.pair(policy, sampling, scaling)
        rng = np.random.default_rng(sampling * 100 + int(scaling * 12))
        sets = self.GEOMETRY.num_sets
        for step in range(14):
            # Lengths from one line to several directories' worth: below
            # and above the size the compiled kernel's directory has.
            size = int(rng.integers(1, 900)) if step % 3 else 1 + step
            batch = rng.integers(0, 12 * sets, size=size).astype(np.int64)
            if step % 2:
                batch &= ~np.int64(sampling - 1)    # every line sampled
            if step == 4:
                batch = batch[:0]                   # nothing to drain
            if step == 6:
                batch |= np.int64(sampling > 1)     # nothing sampled
            if step == 8:
                for atd in (compiled, classes):
                    atd.sdh.halve()
            if step == 11:
                for atd in (compiled, classes):
                    atd.reset()
            lines = array("q", batch.tobytes())
            # The kernel takes a numpy column as well.
            compiled.observe_many(batch if step % 5 == 2 else lines)
            ATD.observe_many(classes, lines)
            assert atd_state(compiled) == atd_state(classes), step
            if step == 6 and sampling > 1:
                assert compiled.skipped_accesses >= size
        assert compiled.sampled_accesses > 0 < compiled.sdh.total
        # Numbers a drain leaves behind are builtin ints, never numpy's.
        for values in (compiled.state.lines, compiled.state.invalid,
                       compiled.state.dirty, compiled.sdh._r,
                       compiled._counts):
            assert {type(value) for value in values} == {int}

    def test_an_atd_binds_its_drain_kernel_when_built(self):
        """The ATD binds its compiled ``observe`` rendering when it is
        built — one recorded bind — and drains every batch through it.
        Its single-access ``observe`` is the class's."""
        key = ("observe", ("nru", "none"))

        def binds():
            entry = transitions.target_stats().get(key)
            return entry["compiled"] if entry else 0

        before = binds()
        atd = ATD(self.GEOMETRY, 4, "nru", make_profiler("nru"))
        assert binds() == before + 1
        kernel = atd.observe_many
        assert "observe_many" in vars(atd) and "observe" not in vars(atd)
        assert isinstance(kernel, native.CompiledKernel)
        kernel(array("q", [0]))                 # one line: the kernel's
        assert list(atd._counts) == [1, 0] and atd.state.way_of(0, 0) == 0
        assert binds() == before + 1


# ----------------------------------------------------------------------
# Windows: one thread's stream through the event loop (loop_window)
# ----------------------------------------------------------------------
def window_policy_state(cache):
    """Every mutable policy-internal array, snapshotted as a plain list
    (the arrays stay live: a held reference would change under every
    later comparison)."""
    p = cache.policy
    state = {}
    for attr in ("_order", "_present", "_used", "_tree", "_rrpv",
                 "_pointer_box", "_below_mask"):
        if hasattr(p, attr):
            state[attr] = list(getattr(p, attr))
    return state


def window_cache_state(cache):
    return (
        [cache.resident_lines(s) for s in range(cache.state.num_sets)],
        list(cache.stats.accesses),
        list(cache.stats.misses),
        list(cache.stats.fills_invalid),
        window_policy_state(cache),
    )


def rebind_hit_kernel(cache):
    """Shadow ``cache.access_line_hit`` with a wrapper on the instance:
    a stream through it must then step the wrapper, whatever it does."""
    hit = cache.access_line_hit
    cache.access_line_hit = lambda line, core=0: hit(line, core)
    return cache


class TestWindowKernels:
    """Whole windows of one thread's L2 stream vs the generic
    object-protocol path.

    A window is a stretch of one thread's stream with no boundary in it;
    what executes it is what a run would (``loop_window``): the compiled
    ``loop`` rendering at a heap of one for a stock cache nobody rebound
    — so every window here also crosses the sharing of the flat state
    with C — and the classes one access at a time for every other cache,
    as the reference engine steps them.  The reference for both is a
    twin cache stepping the policy classes one access at a time.  Same per-access hit flags, same statistics, same tags and same
    policy-internal state — across every policy x partition-scheme
    combination, every core, with partition masks re-applied mid-run and
    invalid-way fills from both cold sets and mid-run flushes.
    """

    NUM_SETS, ASSOC, CORES = 8, 8, 2

    def _build(self, policy_name, scheme):
        geometry = CacheGeometry(self.NUM_SETS * self.ASSOC * 128,
                                 self.ASSOC, 128)
        policy = make_policy(policy_name, self.NUM_SETS, self.ASSOC,
                             rng=np.random.default_rng(3))
        part = scheme_for(scheme, policy, self.CORES, self.NUM_SETS,
                          self.ASSOC)
        return SetAssociativeCache(geometry, policy, partition=part,
                                   num_cores=self.CORES)

    @pytest.mark.parametrize("policy_name,scheme", KERNEL_CASES,
                             ids=lambda v: str(v))
    def test_window_matches_scalar_replay(self, policy_name, scheme):
        scalar = self._build(policy_name, scheme)
        windowed = self._build(policy_name, scheme)
        fused = (policy_name, scheme) if policy_name in PAPER_KINDS else None
        assert rendered_key(windowed) == fused, "fused for paper kinds only"
        scalar_hit = scalar.access_line_hit

        rng = np.random.default_rng(41)
        allocs = [WayAllocation.from_counts(c, self.ASSOC)
                  for c in ((5, 3), (2, 6), (4, 4), (7, 1), (1, 7))]
        for w in range(14):
            n = int(rng.integers(1, 700))
            lines = rng.integers(0, 260, size=n).tolist()
            # Odd windows are the other core's (quota / owner bookkeeping
            # under ``counters``, the core's mask under ``masks`` /
            # ``btvectors``).
            core = w % self.CORES
            flags = bytearray(n)
            loop_window(windowed, core)(lines, flags)
            expect = bytearray(n)
            for i, line in enumerate(lines):
                if scalar_hit(line, core):
                    expect[i] = 1
            assert bytes(flags) == bytes(expect), f"window {w} flags diverge"
            assert window_cache_state(scalar) == window_cache_state(windowed)
            for attr in ("_owner", "_owned"):
                assert getattr(scalar.partition, attr, None) \
                    == getattr(windowed.partition, attr, None), attr
            act = int(rng.integers(0, 8))
            if act == 0:
                # Mid-run flush: the next window refills via invalid ways.
                scalar.flush()
                windowed.flush()
            elif act <= 2 and scheme in ("masks", "counters"):
                # Mask change mid-run, as a repartitioning would apply it.
                alloc = allocs[int(rng.integers(0, len(allocs)))]
                scalar.partition.apply(alloc)
                windowed.partition.apply(alloc)
            elif act == 3 and scheme == "btvectors":
                windowed.partition.apply(
                    even_subcube_allocation(self.CORES, self.ASSOC))
                scalar.partition.apply(
                    even_subcube_allocation(self.CORES, self.ASSOC))

    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    def test_single_access_windows(self, policy_name):
        """Degenerate one-line windows equal one generic call each."""
        scalar = self._build(policy_name, "none")
        windowed = self._build(policy_name, "none")
        kernel = loop_window(windowed)
        rng = np.random.default_rng(7)
        for line in rng.integers(0, 120, size=1500).tolist():
            flags = bytearray(1)
            kernel([line], flags)
            assert bool(flags[0]) == scalar.access_line_hit(line, 0)
        assert window_cache_state(scalar) == window_cache_state(windowed)


def test_bt_vectors_installed_between_windows_steer_the_loop():
    """BT's ``up`` / ``down`` words are allocated once, a slot for every
    core a partition can have, and never grown: a vector installed for a
    core that never had one — after windows ran unforced, then replaced
    by a whole allocation, then removed — is what the next window's
    victims obey in the compiled loop, exactly as the classes decide them
    one access at a time."""
    num_sets, assoc, cores = 8, 8, 2
    geometry = CacheGeometry(num_sets * assoc * 128, assoc, 128)

    def build():
        policy = make_policy("bt", num_sets, assoc)
        part = BTVectorPartition(cores, num_sets, assoc, policy)
        return SetAssociativeCache(geometry, policy, partition=part,
                                   num_cores=cores)

    fast, slow = build(), build()
    words = fast.policy._up, fast.policy._down
    assert len(words[0]) == len(words[1]) == assoc
    rng = np.random.default_rng(31)
    installs = [
        lambda cache: None,                                 # unforced
        lambda cache: cache.policy.set_force(1, (1, None, None)),
        lambda cache: cache.partition.apply(
            even_subcube_allocation(cores, assoc)),
        lambda cache: cache.policy.set_force(0, None),
        lambda cache: cache.policy.set_force(1, (0, 1, None)),
    ]
    for step, install in enumerate(installs):
        install(fast)
        install(slow)
        for core in (1, 0, 1):
            lines = rng.integers(0, 40 * num_sets, size=300).tolist()
            flags = bytearray(len(lines))
            loop_window(fast, core)(lines, flags)
            assert list(flags) == [slow.access_line_hit(line, core)
                                   for line in lines], (step, core)
            assert window_cache_state(fast) == window_cache_state(slow)
    assert (fast.policy._up, fast.policy._down) == words
    assert fast.policy._up is words[0] and fast.policy._down is words[1]
    assert list(fast.policy._up) == list(slow.policy._up)


class TestElisionEligibility:
    """Policy-level theorems about idempotent repeat / pair hits (what
    any future window-level shortcut would have to rest on)."""

    def _cache(self, policy_name, assoc=8, partitioned=False):
        num_sets = 8
        geometry = CacheGeometry(num_sets * assoc * 128, assoc, 128)
        policy = make_policy(policy_name, num_sets, assoc,
                             rng=np.random.default_rng(3))
        part = None
        if partitioned:
            part = make_partition("masks", 2, num_sets, assoc)
            part.apply(WayAllocation.from_counts((assoc - 3, 3), assoc))
        return SetAssociativeCache(geometry, policy, partition=part,
                                   num_cores=2 if partitioned else 1)

    @pytest.mark.parametrize("policy_name",
                             ["lru", "fifo", "nru", "bt", "random"])
    def test_repeat_removal_leaves_state_identical(self, policy_name):
        """Pinned at the kernel level: deleting immediate same-set repeat
        accesses changes nothing but
        the access count."""
        full = self._cache(policy_name)
        deduped = self._cache(policy_name)
        k_full = loop_window(full)
        k_dedup = loop_window(deduped)
        rng = np.random.default_rng(11)
        base_lines = rng.integers(0, 200, size=2000)
        repeats = rng.integers(1, 4, size=2000)
        stream = np.repeat(base_lines, repeats).tolist()
        kept = [line for i, line in enumerate(stream)
                if i == 0 or line != stream[i - 1]]
        k_full(stream, bytearray(len(stream)))
        k_dedup(kept, bytearray(len(kept)))
        assert full.stats.misses == deduped.stats.misses
        assert full.stats.accesses[0] - deduped.stats.accesses[0] \
            == len(stream) - len(kept)
        assert [full.resident_lines(s) for s in range(8)] \
            == [deduped.resident_lines(s) for s in range(8)]
        assert window_policy_state(full) == window_policy_state(deduped)

    @pytest.mark.parametrize("policy_name", ["lru", "bt"])
    def test_pair_removal_leaves_state_identical(self, policy_name):
        """Whole (X, Y) alternation pairs after the leading two accesses
        are identity transitions for unpartitioned lru/bt."""
        full = self._cache(policy_name)
        elided = self._cache(policy_name)
        k_full = loop_window(full)
        k_elided = loop_window(elided)
        rng = np.random.default_rng(13)
        warm = rng.integers(0, 200, size=800).tolist()
        k_full(warm, bytearray(len(warm)))
        k_elided(warm, bytearray(len(warm)))
        for x, y, periods in ((3, 11, 6), (40, 48, 9), (7, 23, 1)):
            lead = [x, y]
            pairs = [x, y] * periods
            k_full(lead + pairs, bytearray(2 + 2 * periods))
            k_elided(lead, bytearray(2))
        assert full.stats.misses == elided.stats.misses
        assert [full.resident_lines(s) for s in range(8)] \
            == [elided.resident_lines(s) for s in range(8)]
        assert window_policy_state(full) == window_policy_state(elided)


class TestArrayKernelProperties:
    """The fused ``loop`` rendering vs the classes stepped one access at
    a time through a rebound ``access_line_hit``, one window at a time:
    full flat-state equality.

    (The class and its shapes were written against the numpy array
    backend; the ids are kept so the test trajectory stays comparable.)
    Randomized per-set runs across geometries, biased toward pure
    invalid-way fills, single-set hammering (eviction after eviction in
    one set) and tiny hot working sets (long hit chains, LRU order
    rotation including the stale tail beyond ``size``).
    """

    #: ``fifo`` has no rendering: both sides step the classes.
    ARRAY_KINDS = ("lru", "fifo", "nru", "bt")

    def _pair(self, policy_name, num_sets, assoc):
        def build():
            geometry = CacheGeometry(num_sets * assoc * 128, assoc, 128)
            policy = make_policy(policy_name, num_sets, assoc,
                                 rng=np.random.default_rng(3))
            return SetAssociativeCache(geometry, policy, partition=None,
                                       num_cores=1)

        ref, arr = rebind_hit_kernel(build()), build()
        assert rendered_key(ref) is None, "classes"
        assert (rendered_key(arr) is not None) \
            == (policy_name in PAPER_KINDS), "fused for paper kinds"
        return ref, loop_window(ref), arr, loop_window(arr)

    @staticmethod
    def _full_state(cache):
        return (
            list(cache.state.lines),
            rows_hold_once(cache.state),
            list(cache.state.invalid),
            list(cache.stats.accesses),
            list(cache.stats.misses),
            list(cache.stats.fills_invalid),
            window_policy_state(cache),
        )

    @pytest.mark.parametrize("policy_name", ARRAY_KINDS)
    @pytest.mark.parametrize("num_sets,assoc",
                             [(8, 8), (4, 2), (2, 16), (1, 8)])
    def test_randomized_runs_full_state_equal(self, policy_name, num_sets,
                                              assoc):
        ref, k_ref, arr, k_arr = self._pair(policy_name, num_sets, assoc)
        rng = np.random.default_rng(97 * num_sets + assoc)
        space = num_sets * assoc * 2
        for w in range(10):
            n = int(rng.integers(1, 400))
            mode = int(rng.integers(0, 3))
            if mode == 0:       # uniform across sets
                lines = rng.integers(0, space, size=n).tolist()
            elif mode == 1:     # single-set hammer
                s = int(rng.integers(0, num_sets))
                lines = (rng.integers(0, 3 * assoc, size=n) * num_sets
                         + s).tolist()
            else:               # tiny hot working set (hit chains)
                pool = rng.integers(0, space, size=assoc + 2)
                lines = pool[rng.integers(0, pool.size, size=n)].tolist()
            f_ref, f_arr = bytearray(n), bytearray(n)
            k_ref(lines, f_ref)
            k_arr(lines, f_arr)
            assert bytes(f_ref) == bytes(f_arr), f"window {w} flags diverge"
            assert self._full_state(ref) == self._full_state(arr), \
                f"window {w} state"
            if rng.integers(0, 8) == 0:
                # Mid-run flush: the next window refills via invalid ways.
                ref.flush()
                arr.flush()

    @pytest.mark.parametrize("policy_name", ARRAY_KINDS)
    def test_cold_start_pure_fill_window(self, policy_name):
        """An all-cold window is invalid-way fills exclusively."""
        ref, k_ref, arr, k_arr = self._pair(policy_name, 8, 8)
        lines = list(range(64))  # exactly fills every way of every set
        f_ref, f_arr = bytearray(64), bytearray(64)
        k_ref(lines, f_ref)
        k_arr(lines, f_arr)
        assert bytes(f_ref) == bytes(f_arr) == bytes(64)
        assert self._full_state(ref) == self._full_state(arr)
        assert arr.stats.fills_invalid[0] == 64

    @pytest.mark.parametrize("policy_name", sorted(PAPER_KINDS))
    def test_cold_window_and_same_window_after_flush(self, policy_name):
        """Run cold, a window matches the classes in full state; run
        again after other traffic and a flush, it matches again and
        reproduces the cold outcome (flush resets in place, the arrays a
        loop binds stay live)."""
        ref, k_ref, arr, k_arr = self._pair(policy_name, 8, 8)
        rng = np.random.default_rng(29)
        window = rng.integers(0, 200, size=900).tolist()   # evicting sets
        other = rng.integers(100, 400, size=500).tolist()

        def run(lines):
            f_ref, f_arr = bytearray(len(lines)), bytearray(len(lines))
            before = arr.stats.misses[0]
            k_ref(lines, f_ref)
            k_arr(lines, f_arr)
            state = self._full_state(arr)
            assert bytes(f_ref) == bytes(f_arr)
            assert self._full_state(ref) == state
            return bytes(f_arr), state[:3], arr.stats.misses[0] - before

        cold = run(window)
        run(other)
        ref.flush()
        arr.flush()
        assert run(window) == cold      # flags, tags/map/invalid, misses

    def test_array_build_respects_eligibility(self):
        """Which loop a cache's stream gets is decided by what it can
        observe: the fused one only for a stock pair whose
        ``access_line_hit`` no instance attribute shadows — partitioned
        or not — and the classes for a kernel-less policy, a subclassed
        scheme and a rebound ``access_line_hit``."""
        from repro.cache.partition.masks import MasksPartition

        num_sets, assoc = 8, 8
        geometry = CacheGeometry(num_sets * assoc * 128, assoc, 128)

        class NarrowedMasks(MasksPartition):
            def candidate_mask(self, set_index, core):
                return super().candidate_mask(set_index, core)

        def cache_for(policy_name, scheme=None):
            policy = make_policy(policy_name, num_sets, assoc,
                                 rng=np.random.default_rng(3))
            part = None
            if scheme is not None:
                part = scheme(2, num_sets, assoc)
                part.apply(WayAllocation.from_counts((5, 3), assoc))
            return SetAssociativeCache(geometry, policy, partition=part,
                                       num_cores=2 if part else 1)

        def rendered(cache):
            return rendered_key(cache) is not None

        assert rendered(cache_for("lru"))
        assert rendered(cache_for("lru", MasksPartition))
        for name in ("fifo", "random", "srrip", "lip"):
            assert not rendered(cache_for(name))
        assert not rendered(cache_for("lru", NarrowedMasks))
        assert not rendered(rebind_hit_kernel(cache_for("lru")))
