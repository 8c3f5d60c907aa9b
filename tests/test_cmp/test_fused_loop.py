"""The fused event loop: who gets it, and a differential that shares no
transition body with it.

``BatchedEngine.run`` executes the compiled ``loop`` rendering of
:mod:`repro.cache.transitions`, with the L2 transition of a stock
(policy, scheme) pair inlined, and only when that is exact; every other
run is the reference engine's, through ``l2.access_line_hit``.
``access_line_hit`` is the class's method, stepping the hand-written
policy and scheme *classes*, so the reference engine is an oracle
independent of the fused loop; the pairing here shadows the L2's
``access_line_hit`` on the instance, which moves an ``auto`` run to the
reference engine over the same classes.
"""

import dataclasses
import math
import struct
import traceback

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import transitions
from repro.cache.geometry import CacheGeometry
from repro.cache.partition.masks import MasksPartition
from repro.cache.replacement.lru import LRUPolicy
from repro.cmp import simulator as simulator_module
from repro.cmp.simulator import CMPSimulator
from repro.config import (
    ProcessorConfig,
    SimulationConfig,
    config_C_L,
    config_M_BT,
    config_M_L,
    config_M_N,
    config_unpartitioned,
)
from repro.fuzz.case import FuzzCase
from repro.fuzz.oracle import diff_snapshots, run_engine
from repro.workloads.trace import Trace
from repro.workloads.writes import overlay_writes

KNOBS = dict(atd_sampling=4, interval_cycles=20_000)

#: The seven (policy, scheme) pairs a cold ``campaign run all`` executes.
SHIPPED_PAIRS = [
    (("lru", "none"), config_unpartitioned("lru")),
    (("nru", "none"), config_unpartitioned("nru")),
    (("bt", "none"), config_unpartitioned("bt")),
    (("lru", "counters"), config_C_L(**KNOBS)),
    (("lru", "masks"), config_M_L(**KNOBS)),
    (("nru", "masks"), config_M_N(0.75, **KNOBS)),
    (("bt", "btvectors"), config_M_BT(**KNOBS)),
]


def make_traces(num_cores, count=5000):
    traces = []
    for core in range(num_cores):
        rng = np.random.default_rng(200 + core)
        footprint = 40 * (3 ** core)
        lines = rng.integers(0, footprint, size=count) + core * 1_000_000
        traces.append(Trace(f"t{core}", lines, ipm=2.6, cpi_base=1.1))
    return traces


def make_case(config, num_cores, traces=None):
    return FuzzCase(
        traces=traces or make_traces(num_cores),
        l1_sets=2, l1_assoc=2, l2_sets=16, l2_assoc=8,
        partitioning=config, instructions_per_thread=24_000)


class GenericL2Case(FuzzCase):
    """The same case with an instance attribute shadowing the L2's
    ``access_line_hit`` (by the class's own method): the classes."""

    def simulator(self, engine):
        sim = super().simulator(engine)
        l2 = sim.hierarchy.l2
        l2.access_line_hit = l2.access_line_hit
        return sim


@pytest.fixture
def loop_keys(monkeypatch):
    """Keys of the ``loop`` renderings bound while the test runs."""
    keys = []
    bind = transitions.bind

    def spy(rendering, key, owner, *args):
        if rendering == "loop":
            keys.append(key)
        return bind(rendering, key, owner, *args)

    monkeypatch.setattr(transitions, "bind", spy)
    return keys


@pytest.mark.parametrize("num_cores", [2, 4, 8])
@pytest.mark.parametrize("key,config", SHIPPED_PAIRS,
                         ids=["/".join(key) for key, _ in SHIPPED_PAIRS])
def test_fused_run_matches_generic_object_protocol(key, config, num_cores,
                                                   loop_keys):
    """Full oracle snapshot — result, tag directory, policy + partition
    state, ATD/SDH, victim probe — of the fused run equals the run over
    the policy classes (``auto`` takes the rebound L2 to the reference
    engine)."""
    case = make_case(config, num_cores)
    fused = run_engine(case, "batched")
    generic = run_engine(GenericL2Case(**vars(case)), "auto")
    assert loop_keys == [key]
    assert diff_snapshots(generic, fused) == []
    assert fused.events["l2_misses"] > 0 and fused.events["l2_hits"] > 0


def run_pair(config, traces, build=CMPSimulator,
             engines=("reference", "batched"), **knobs):
    """The results of one configuration under each of ``engines``."""
    results = []
    for engine in engines:
        processor = ProcessorConfig(
            num_cores=len(traces),
            l1i=CacheGeometry(2 * 2 * 128, 2, 128),
            l1d=CacheGeometry(2 * 2 * 128, 2, 128),
            l2=CacheGeometry(16 * 8 * 128, 8, 128))
        sim = build(processor, config, traces, SimulationConfig(
            instructions_per_thread=24_000, seed=7, engine=engine, **knobs))
        results.append(sim.run())
    return results


def as_dict(result):
    return dataclasses.asdict(result)


class NarrowMasks(MasksPartition):
    """Victims only from the lowest way of the core's mask."""

    def candidate_mask(self, set_index, core):
        mask = self._masks[core]
        return mask & -mask


class HitsDoNotPromote(LRUPolicy):
    """FIFO out of the LRU arrays: only fills move a way to MRU."""

    def touch(self, set_index, way, core, reset_domain=None):
        pass

    def touch_fill(self, set_index, way, core, reset_domain=None):
        LRUPolicy.touch(self, set_index, way, core, reset_domain)


def run_guarded(config, traces, reason, build=CMPSimulator):
    """The ``auto`` result of a configuration the batched engine must
    refuse: an explicit ``batched`` raises naming ``reason``, and ``auto``
    runs the reference engine, equal to an explicit ``reference`` run."""
    with pytest.raises(ValueError, match=reason):
        run_pair(config, traces, build=build, engines=("batched",))
    ref, auto = run_pair(config, traces, build=build,
                         engines=("reference", "auto"))
    assert as_dict(ref) == as_dict(auto)
    return auto


class TestCallFormGuard:
    """Inlining is exact only for the stock classes: anything else must
    take the reference engine over the classes — and its override must
    demonstrably run.  (The names date from the call-form event loop
    that used to take these inputs.)"""

    def test_scheme_subclass_is_honoured(self, monkeypatch, loop_keys):
        traces = make_traces(2)
        config = config_M_L(**KNOBS)
        stock = run_pair(config, traces)[1]
        monkeypatch.setattr(
            simulator_module, "make_partition",
            lambda name, cores, sets, assoc, policy=None:
                NarrowMasks(cores, sets, assoc))
        del loop_keys[:]
        auto = run_guarded(config, traces, "no rendering of the L2's "
                                           "LRUPolicy with scheme NarrowMasks")
        assert loop_keys == []
        assert auto.events.l2_misses > stock.events.l2_misses

    def test_kernel_less_policy_subclass_is_honoured(self, monkeypatch,
                                                     loop_keys):
        traces = make_traces(2)
        config = config_unpartitioned("lru")
        stock = run_pair(config, traces)[1]
        monkeypatch.setattr(
            simulator_module, "make_policy",
            lambda name, sets, assoc, rng=None:
                HitsDoNotPromote(sets, assoc, rng=rng))
        del loop_keys[:]
        auto = run_guarded(config, traces, "no rendering of the L2's "
                                           "HitsDoNotPromote with scheme "
                                           "none")
        assert loop_keys == []
        assert auto.events.l2_misses != stock.events.l2_misses

    def test_write_trace_takes_the_call_form(self, loop_keys):
        traces = [overlay_writes(t, 0.3, seed=3) for t in make_traces(2)]
        auto = run_guarded(config_M_N(0.75, **KNOBS), traces,
                           "a trace writes")
        assert loop_keys == []
        assert auto.events.l1_writebacks > 0

    def test_custom_observer_takes_the_call_form(self, loop_keys):
        logs = []

        def build(*args):
            sim = CMPSimulator(*args)
            logs.append([])
            sim.hierarchy.l2_observer = \
                lambda core, line, log=logs[-1]: log.append((core, line))
            return sim

        run_guarded(config_unpartitioned("nru"), make_traces(2),
                    "a custom L2 observer", build=build)
        assert loop_keys == []
        assert logs[0] == [] and logs[1] == logs[2] and logs[1]

    def test_rebound_access_line_hit_takes_the_call_form(self, loop_keys):
        """The fused loop bypasses ``l2.access_line_hit``, so it may only
        run while no instance attribute shadows it."""
        calls = []

        def build(*args):
            sim = CMPSimulator(*args)
            kernel = sim.hierarchy.l2.access_line_hit

            def counted(line, core=0):
                calls.append(core)
                return kernel(line, core)

            sim.hierarchy.l2.access_line_hit = counted
            return sim

        auto = run_guarded(config_unpartitioned("lru"), make_traces(2),
                           "the L2's access_line_hit is rebound",
                           build=build)
        assert loop_keys == []
        assert len(calls) == 2 * auto.events.l2_accesses


class TestGeneratedSourceExplainsItself:
    def test_overrun_under_the_compiled_target_has_the_same_text(self):
        """A ``max_cycles`` overrun under the compiled loop: the loop
        returns at the pop past the cap, the ``RuntimeError`` its shell
        raises in ``beyond`` comes out of ``run`` unchanged, with the
        hand-written loop's text, and every frame has a source line."""
        with pytest.raises(RuntimeError) as info:
            run_pair(config_M_N(0.75, **KNOBS), make_traces(2),
                     engines=("batched",), max_cycles=10_000)
        assert str(info.value) == ("simulation exceeded max_cycles=10000 "
                                   "with 2 threads still running")
        frames = traceback.extract_tb(info.tb)
        assert frames[-1].name == "beyond"
        assert all(frame.line for frame in frames)

    def test_getsource_and_names(self):
        """Each rendering's text carries its inlined fragments, and its C
        translation names the rendering it came from."""
        key = ("lru", "counters")
        assert "owned_l[s * ncores + t]" in transitions.render("loop", key)
        name = transitions.source_name("loop", key)
        assert name == "<repro kernel lru/counters loop>"
        assert transitions.translate("loop", key).source.startswith(
            f"/* {name}: generated by repro.cache.cgen")
        assert "    def observe_many(batch):\n" in transitions.render(
            "observe", ("lru", "none"))

    def test_unknown_slot_or_placeholder_is_an_error(self):
        broken = dict(transitions.TEMPLATES, miss="$no_such_slot")
        with pytest.raises(KeyError, match="no_such_slot"):
            transitions.render("loop", ("lru", "none"), templates=broken)
        broken = dict(transitions.TEMPLATES, miss="way = $way")
        with pytest.raises(KeyError, match="way"):
            transitions.render("observe", ("lru", "none"), templates=broken)

    def test_fragment_storing_to_a_skeleton_local_is_an_error(self):
        """The hole this closes: a skeleton whose position counter was
        named ``pos`` rendered fine while a policy's locate fragment
        (``pos = order_index(...)``) silently overwrote it.  Each
        skeleton's own locals are declared; a policy / scheme fragment
        assigning one is refused for that rendering and no other."""
        policies = dict(transitions.POLICIES, probe=dict(
            transitions.POLICIES["nru"],
            fill_invalid="sampled = used_l[$set]"))
        with pytest.raises(ValueError,
                           match=r"policy 'fill_invalid' -> sampled"):
            transitions.render("observe", ("probe", "none"),
                               policies=policies)
        transitions.render("observe", ("nru", "none"), policies=policies)
        transitions.render("loop", ("probe", "none"), policies=policies)
        schemes = dict(transitions.SCHEMES, masks=dict(
            transitions.SCHEMES["masks"], mask="j = mask = masks[$core]"))
        with pytest.raises(ValueError, match=r"scheme 'mask' -> j"):
            transitions.render("loop", ("nru", "masks"), schemes=schemes)

    def test_a_clobbering_fragment_is_refused_with_a_warm_parse_cache(
            self):
        """The clobber check parses each distinct fragment text once per
        process: after every stock key has rendered, a new fragment — a
        test's injected one — is still parsed and refused, each time it
        is rendered."""
        for rendering, key in transitions.rendering_keys():
            transitions.render(rendering, key)
        policies = dict(transitions.POLICIES, probe=dict(
            transitions.POLICIES["lru"], promote="clock = orders[row]"))
        for _ in range(2):
            with pytest.raises(ValueError, match=r"policy 'promote' -> "
                                                 r"clock"):
                transitions.render("loop", ("probe", "none"),
                                   policies=policies)
        transitions.render("observe", ("probe", "none"), policies=policies)

    def test_every_shipped_rendering_passes_the_checks(self):
        """Three ``observe`` keys, twelve stock ``loop`` keys and the L1
        ``prefilter``: only batch kernels are rendered, each with a C
        translation."""
        keys = transitions.rendering_keys()
        assert sum(rendering == "observe" for rendering, _ in keys) == 3
        assert sum(rendering == "loop" for rendering, _ in keys) == 12
        assert ("prefilter", transitions.PREFILTER_KEY) in keys
        assert len(keys) == 16 and all(key is not None for _, key in keys)
        for rendering, key in keys:
            transitions.translate(rendering, key)   # render + C checks


def test_a_run_is_bound_once_and_a_call_passes_two_scalars():
    """The loop's clocks, cursors and miss-stream buffer are part of its
    bind (``transitions.LoopRun``): the kernel's own parameters are the
    next boundary and the cycle cap, nothing else."""
    from array import array

    from repro.cache.cache import SetAssociativeCache

    cache = SetAssociativeCache(CacheGeometry(8 * 4 * 128, 4, 128), "lru",
                                num_cores=1)
    loop = transitions.bind("loop", ("lru", "none"), cache, None,
                            transitions.LoopRun(
                                1, 4, 0.0, 1.0, np.zeros(4, dtype=np.int64),
                                np.zeros(4, dtype=np.int64), array("d", [3.0]),
                                array("q", [0]), array("q", [1]),
                                array("d", [0.0]), array("q", [0]),
                                array("d", [1.0])))
    assert loop is not None
    assert loop._loaded.params == ("boundary", "cap")
    assert transitions.translate("loop", ("lru", "none")).params \
        == ("boundary", "cap")
    assert loop(2.0, 9.0) == (0, 3.0, 2)        # the boundary pops first
    assert loop(9.0, 9.0) == (0, 5.0, 0)        # one miss, window end


@pytest.mark.parametrize("policy,threads,parked", [
    pytest.param(policy, threads, parked,
                 id=policy if threads == 8 else f"{policy}-{threads}")
    for policy in transitions.POLICIES
    for threads, parked in ((2, ()), (4, (0, 2)), (8, (0, 3, 7)))])
def test_equal_clocks_run_the_lower_thread_first(policy, threads, parked):
    """The loop's arg-min over the per-thread clocks keeps the
    reference's ``(clock, thread)`` order: at equal clocks the lower
    thread runs.  Some threads are parked at ``inf`` from the start;
    every access costs nothing, so the others sit at clock 0
    throughout, and each must finish its stream (and park at ``inf``)
    before the next one up makes its first access — a ``<=``
    would run the highest of them first, a parked slot running would
    mean an ``inf`` key below a finite one."""
    from array import array
    from math import inf

    from repro.cache.cache import SetAssociativeCache

    cache = SetAssociativeCache(CacheGeometry(8 * 4 * 128, 4, 128), policy,
                                num_cores=threads)
    # Thread ``t``'s lines all map to set ``t`` of eight.
    streams = np.array([[t, 8 + t, 16 + t] for t in range(threads)],
                       dtype=np.int64)
    clocks = array("d", [inf if t in parked else 0.0
                         for t in range(threads)])
    cur, stop = array("q", [0] * threads), array("q", [1] * threads)
    anchor = array("d", [0.0] * threads)
    # Three references each: the freeze is the third miss.
    left = array("q", [3] * threads)
    loop = transitions.bind("loop", (policy, "none"), cache, None,
                            transitions.LoopRun(
                                threads, 3, 0.0, 0.0, streams.reshape(-1),
                                np.zeros(3 * threads, dtype=np.int64), clocks,
                                cur, stop, anchor, left,
                                array("d", [0.0] * threads)))
    assert loop is not None, transitions.target_stats()["loop",
                                                        (policy, "none")]
    order = []
    active = threads - len(parked)
    while True:
        t, clock, event = loop(inf, inf)
        # A window end after every access; the freeze on the last one.
        j = cur[t]
        order.append((t, j))
        assert event == (j == 3)
        if event:
            active -= 1
            if not active:
                break
            clocks[t] = inf
        else:
            clocks[t] = anchor[t]
            stop[t] = j + 1
    now = clocks[t]
    running = [u for u in range(threads) if u not in parked]
    assert order == [(u, j) for u in running for j in (1, 2, 3)]
    assert (now, t) == (0.0, running[-1])


#: Clock values: +0.0, subnormals, finite positives up to the largest
#: double and +inf — every value a clock takes — with ties likely.
CLOCKS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072009e-308, 1.0, math.inf]),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308).map(abs),
    st.floats(min_value=0.0).map(abs))


def order_key(value):
    """The C target's ``order_key``: a double's bits as an ``int64``."""
    return struct.unpack("<q", struct.pack("<d", value))[0]


@given(CLOCKS, CLOCKS)
@settings(max_examples=300, deadline=None)
def test_the_order_key_orders_clocks_as_the_floats(a, b):
    """On +0.0, subnormal, finite and +inf values the integer keys sort
    exactly as the floats do, and are equal only for equal floats: the
    premise of the loop's branch-free arg-min."""
    assert (order_key(a) < order_key(b)) == (a < b)
    assert (order_key(a) == order_key(b)) == (a == b)


@given(st.lists(CLOCKS, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_the_compiled_pick_is_the_least_clock_then_the_lowest_thread(
        values):
    """The compiled loop's arg-min over any clocks — one to eight
    threads — is the reference heap's ``min((clock, thread))``.  A
    boundary at 0.0 makes the loop return its pick at once (event 2:
    nothing executed)."""
    from array import array
    from math import inf

    from repro.cache.cache import SetAssociativeCache

    threads = len(values)
    cache = SetAssociativeCache(CacheGeometry(8 * 4 * 128, 4, 128), "lru",
                                num_cores=threads)
    ints, floats = [0] * threads, [0.0] * threads
    loop = transitions.bind("loop", ("lru", "none"), cache, None,
                            transitions.LoopRun(
                                threads, 1, 0.0, 0.0,
                                np.zeros(threads, dtype=np.int64),
                                np.zeros(threads, dtype=np.int64),
                                array("d", values), array("q", ints),
                                array("q", [1] * threads), array("d", floats),
                                array("q", ints), array("d", floats)))
    assert loop is not None
    least = min(range(threads), key=lambda u: (values[u], u))
    assert loop(0.0, inf) == (least, values[least], 2)
