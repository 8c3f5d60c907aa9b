"""The fused event loop: who gets it, and a differential that shares no
transition body with it.

``BatchedEngine.run`` executes the ``loop`` rendering of
:mod:`repro.cache.transitions` — with the L2 transition of a stock
(policy, scheme) pair inlined when that is exact, through
``l2.access_line_hit`` (the *call form*) otherwise.  The reference engine
calls the same rendered ``access_line_hit``, so engine-vs-engine compares
two renderings of one spec; the independent pairing here removes the L2's
instance-bound kernel, which leaves the generic object-protocol method
stepping the hand-written policy and scheme *classes*.
"""

import dataclasses
import inspect
import linecache
import traceback

import numpy as np
import pytest

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

#: The seven (policy, scheme) pairs a cold ``report run`` executes.
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
    """The same case with the L2's instance-bound kernel removed."""

    def simulator(self, engine):
        sim = super().simulator(engine)
        del sim.hierarchy.l2.access_line_hit
        return sim


@pytest.fixture
def loop_keys(monkeypatch):
    """Keys of the ``loop`` renderings bound while the test runs."""
    keys = []
    bind = transitions.bind

    def spy(rendering, key, owner, *args, **kwargs):
        if rendering == "loop":
            keys.append(key)
        return bind(rendering, key, owner, *args, **kwargs)

    monkeypatch.setattr(transitions, "bind", spy)
    return keys


@pytest.mark.parametrize("num_cores", [2, 4])
@pytest.mark.parametrize("key,config", SHIPPED_PAIRS,
                         ids=["/".join(key) for key, _ in SHIPPED_PAIRS])
def test_fused_run_matches_generic_object_protocol(key, config, num_cores,
                                                   loop_keys):
    """Full oracle snapshot — result, tag directory, policy + partition
    state, ATD/SDH, victim probe — of the fused run equals the run over
    the policy classes."""
    case = make_case(config, num_cores)
    fused = run_engine(case, "batched")
    generic = run_engine(GenericL2Case(**vars(case)), "batched")
    assert loop_keys == [key, None]
    assert diff_snapshots(generic, fused) == []
    assert fused.events["l2_misses"] > 0 and fused.events["l2_hits"] > 0


@pytest.mark.parametrize("num_cores", [2, 4])
@pytest.mark.parametrize("key,config", SHIPPED_PAIRS,
                         ids=["/".join(key) for key, _ in SHIPPED_PAIRS])
def test_python_target_matches_generic_object_protocol(key, config,
                                                       num_cores, loop_keys):
    """The same differential with the fused loop held to the Python
    target (the run above is the compiled one wherever ``cc`` exists;
    ``test_compiled_target.py`` pins the two against each other on every
    stock key)."""
    case = make_case(config, num_cores)
    with transitions.python_target():
        fused = run_engine(case, "batched")
    assert loop_keys == [key]
    assert transitions.target_stats()["loop", key]["target"] == "python"
    generic = run_engine(GenericL2Case(**vars(case)), "batched")
    assert diff_snapshots(generic, fused) == []


def run_pair(config, traces, build=CMPSimulator,
             engines=("reference", "batched"), **knobs):
    """(reference result, batched result) of one configuration."""
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

    kernel_kind = ""

    def touch(self, set_index, way, core, reset_domain=None):
        pass

    def touch_fill(self, set_index, way, core, reset_domain=None):
        LRUPolicy.touch(self, set_index, way, core, reset_domain)


class TestCallFormGuard:
    """Inlining is exact only for the stock classes: anything else must
    take the call form — and its override must demonstrably run."""

    def test_scheme_subclass_is_honoured(self, monkeypatch, loop_keys):
        traces = make_traces(2)
        config = config_M_L(**KNOBS)
        stock = run_pair(config, traces)[1]
        monkeypatch.setattr(
            simulator_module, "make_partition",
            lambda name, cores, sets, assoc, policy=None:
                NarrowMasks(cores, sets, assoc))
        del loop_keys[:]
        ref, bat = run_pair(config, traces)
        assert loop_keys == [None]
        assert as_dict(ref) == as_dict(bat)
        assert bat.events.l2_misses > stock.events.l2_misses

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
        ref, bat = run_pair(config, traces)
        assert loop_keys == [None]
        assert as_dict(ref) == as_dict(bat)
        assert bat.events.l2_misses != stock.events.l2_misses

    def test_write_trace_takes_the_call_form(self, loop_keys):
        traces = [overlay_writes(t, 0.3, seed=3) for t in make_traces(2)]
        ref, bat = run_pair(config_M_N(0.75, **KNOBS), traces)
        assert loop_keys == [None]
        assert as_dict(ref) == as_dict(bat)
        assert bat.events.l1_writebacks > 0

    def test_custom_observer_takes_the_call_form(self, loop_keys):
        logs = []

        def build(*args):
            sim = CMPSimulator(*args)
            logs.append([])
            sim.hierarchy.l2_observer = \
                lambda core, line, log=logs[-1]: log.append((core, line))
            return sim

        ref, bat = run_pair(config_unpartitioned("nru"), make_traces(2),
                            build=build)
        assert loop_keys == [None]
        assert as_dict(ref) == as_dict(bat)
        assert logs[0] == logs[1] and logs[0]

    def test_rebound_access_line_hit_takes_the_call_form(self, loop_keys):
        """The fused loop bypasses ``l2.access_line_hit``, so it may only
        run while that still *is* the rendered kernel."""
        calls = []

        def build(*args):
            sim = CMPSimulator(*args)
            kernel = sim.hierarchy.l2.access_line_hit

            def counted(line, core=0):
                calls.append(core)
                return kernel(line, core)

            sim.hierarchy.l2.access_line_hit = counted
            return sim

        ref, bat = run_pair(config_unpartitioned("lru"), make_traces(2),
                            build=build)
        assert loop_keys == [None]
        assert as_dict(ref) == as_dict(bat)
        assert len(calls) == 2 * bat.events.l2_accesses


class TestGeneratedSourceExplainsItself:
    def test_overrun_traceback_shows_the_rendered_line(self):
        """A ``max_cycles`` overrun raised under a fused run of the Python
        target: every frame of the traceback, the generated loop's
        included, has a source line; the error text is the hand-written
        loop's."""
        with pytest.raises(RuntimeError) as info, \
                transitions.python_target():
            run_pair(config_M_N(0.75, **KNOBS), make_traces(2),
                     engines=("batched",), max_cycles=10_000)
        assert str(info.value) == ("simulation exceeded max_cycles=10000 "
                                   "with 2 threads still running")
        frames = traceback.extract_tb(info.tb)
        rendered = [f for f in frames
                    if f.filename == "<repro kernel nru/masks loop>"]
        assert len(rendered) == 1 and rendered[0].name == "loop"
        assert rendered[0].line == "horizon = beyond(now)"
        assert all(frame.line for frame in frames)

    def test_overrun_under_the_compiled_target_has_the_same_text(self):
        """The compiled twin: no Python frame of the loop exists, the
        ``RuntimeError`` raised inside the ``beyond`` call-out comes out
        of ``run`` unchanged."""
        with pytest.raises(RuntimeError) as info:
            run_pair(config_M_N(0.75, **KNOBS), make_traces(2),
                     engines=("batched",), max_cycles=10_000)
        assert str(info.value) == ("simulation exceeded max_cycles=10000 "
                                   "with 2 threads still running")
        frames = traceback.extract_tb(info.tb)
        assert frames[-1].name == "beyond"
        assert all(frame.line for frame in frames)

    def test_getsource_and_names(self):
        sim = make_case(config_C_L(**KNOBS), 2).simulator("batched")
        kernel = sim.hierarchy.l2.access_line_hit
        assert kernel.__code__.co_filename == "<repro kernel lru/counters hit>"
        assert "owned_l[s * ncores + core]" in inspect.getsource(kernel)
        drain = sim.profiling.monitors[0].atd.observe_many.python
        name = drain.__code__.co_filename
        assert name == "<repro kernel lru/none observe>"
        assert linecache.getline(name, drain.__code__.co_firstlineno) \
            .strip() == "def observe_many(batch):"

    def test_unknown_slot_or_placeholder_is_an_error(self):
        broken = dict(transitions.TEMPLATES, miss="$no_such_slot")
        with pytest.raises(KeyError, match="no_such_slot"):
            transitions.render("hit", ("lru", "none"), templates=broken)
        broken = dict(transitions.TEMPLATES, miss="way = $way")
        with pytest.raises(KeyError, match="way"):
            transitions.render("hit", ("lru", "none"), templates=broken)

    def test_fragment_storing_to_a_skeleton_local_is_an_error(self):
        """The hole this closes: a skeleton whose position counter was
        named ``pos`` rendered fine while a policy's locate fragment
        (``pos = order_index(...)``) silently overwrote it.  Each
        skeleton's own locals are declared; a policy / scheme fragment
        assigning one is refused for that rendering and no other."""
        policies = dict(transitions.POLICIES, probe=dict(
            transitions.POLICIES["nru"], locate="sampled = used_l[$set]"))
        with pytest.raises(ValueError, match=r"policy 'locate' -> sampled"):
            transitions.render("observe", ("probe", "none"),
                               policies=policies)
        transitions.render("observe", ("nru", "none"), policies=policies)
        transitions.render("hit", ("probe", "none"), policies=policies)
        schemes = dict(transitions.SCHEMES, masks=dict(
            transitions.SCHEMES["masks"], mask="j = mask = masks[$core]"))
        with pytest.raises(ValueError, match=r"scheme 'mask' -> j"):
            transitions.render("loop", ("nru", "masks"), schemes=schemes)

    def test_every_shipped_rendering_passes_the_checks(self):
        keys = transitions.rendering_keys()
        assert len(keys) == 28
        assert {rendering for rendering, _ in keys} \
            == {"hit", "observe", "loop"}
        for rendering, key in keys:
            transitions._factory(rendering, key)    # render + closure checks
