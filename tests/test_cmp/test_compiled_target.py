"""The two targets of the ``loop`` and ``observe`` renderings against each
other and against the policy classes.

``BatchedEngine.run`` executes the compiled target of a stock key — its
event loop and, in a profiled run, the drains of its ATDs — wherever
the host can build it and the Python target otherwise
(:func:`repro.cache.transitions.bind`).  Both are translations of one
checked source, so every run here is made three times — compiled (the
default), Python (through :func:`repro.cache.transitions.python_target`,
the one internal seam) and over the generic object protocol, which steps
the hand-written policy and scheme *classes* (the call-form loop) — and
the full fuzz-oracle snapshots must agree: result, tag directory, policy
/ scheme state, ATD / SDH registers, victim probe.

The scenario packs what the loop special-cases into one run per key:
non-dyadic ``ipm`` / ``cpi``, 512-reference windows (seams), trace wraps,
a freeze on an L1 hit deep inside a gap, a thread that parks, several
repartitions, and — second parametrisation — a bandwidth-limited memory
channel.  On a host without ``cc`` the "compiled" run is the Python
target too and the suite still passes; :func:`expected_target` is what
each run must report.
"""

import dataclasses
import shutil
import traceback
import warnings
from array import array

import numpy as np
import pytest

import repro.cmp.engine.batched as batched_mod
from repro.cache import native, transitions
from repro.cache.partition.masks import MasksPartition
from repro.cache.state import TagStore
from repro.cmp import simulator as simulator_module
from repro.config import (
    PartitioningConfig,
    config_C_L,
    config_M_BT,
    config_M_L,
    config_M_N,
    config_unpartitioned,
)
from repro.fuzz.case import FuzzCase
from repro.fuzz.oracle import diff_snapshots, run_engine
from repro.workloads.trace import Trace

KNOBS = dict(atd_sampling=2, interval_cycles=6_000)

#: Every stock key a configuration can reach.  ``lru/btvectors`` and
#: ``nru/btvectors`` cannot exist (the scheme takes a BT policy) and
#: ``bt/masks`` is refused by ``PartitioningConfig``; it is reached below
#: by handing the simulator a masks scheme directly.
CONFIGS = {
    ("lru", "none"): config_unpartitioned("lru"),
    ("nru", "none"): config_unpartitioned("nru"),
    ("bt", "none"): config_unpartitioned("bt"),
    ("lru", "masks"): config_M_L(**KNOBS),
    ("nru", "masks"): config_M_N(0.75, **KNOBS),
    ("lru", "counters"): config_C_L(**KNOBS),
    ("nru", "counters"): PartitioningConfig(
        policy="nru", enforcement="counters", nru_scaling=0.5, **KNOBS),
    ("bt", "counters"): PartitioningConfig(
        policy="bt", enforcement="counters", **KNOBS),
    ("bt", "btvectors"): config_M_BT(**KNOBS),
    ("bt", "masks"): config_M_BT(**KNOBS),
}


def expected_target() -> str:
    return "c" if shutil.which("cc") else "python"


def scenario_traces():
    stream = Trace("stream", np.arange(3000) + 10_000_000, ipm=2.6,
                   cpi_base=1.1)
    gap = np.arange(1300) + 5_000
    gap[900:] = 7
    gap[:200] = 7                       # one long hit run over seam and wrap
    resident = Trace("resident", np.arange(1300) % 4 + 20_000, ipm=3.1,
                     cpi_base=0.9)
    rng = np.random.default_rng(11)
    mixed = Trace("mixed", rng.integers(0, 700, size=2500) + 30_000_000,
                  ipm=4.0, cpi_base=1.3)
    return [stream, Trace("gap", gap, ipm=2.6, cpi_base=1.1), resident,
            mixed]


def scenario(key, service_interval=0.0):
    return FuzzCase(
        traces=scenario_traces(), l1_sets=2, l1_assoc=2, l2_sets=16,
        l2_assoc=8, partitioning=CONFIGS[key],
        instructions_per_thread=1,
        per_thread_instructions=(11_000, int(1400 * 2.6), 2_000, 14_000),
        memory_service_interval=service_interval)


class GenericL2Case(FuzzCase):
    """The same case with an instance attribute shadowing the L2's
    ``access_line_hit`` (by the class's own method): the call-form loop
    over the policy and scheme classes."""

    def simulator(self, engine):
        sim = super().simulator(engine)
        l2 = sim.hierarchy.l2
        l2.access_line_hit = l2.access_line_hit
        return sim


@pytest.fixture(autouse=True)
def small_windows(monkeypatch):
    monkeypatch.setattr(batched_mod, "CHUNK_SIZE", 512)


@pytest.fixture
def masks_for_bt(monkeypatch):
    """``bt/masks``: the M-BT configuration enforced by global masks."""
    monkeypatch.setattr(
        simulator_module, "make_partition",
        lambda name, cores, sets, assoc, policy=None:
            MasksPartition(cores, sets, assoc))


def binds(key, rendering="loop"):
    return dict(transitions.target_stats().get(
        (rendering, key), {"binds": {"c": 0, "python": 0}})["binds"])


@pytest.mark.parametrize("service_interval", [0.0, 37.5],
                         ids=["fixed-latency", "channel"])
@pytest.mark.parametrize("key", list(CONFIGS), ids="/".join)
def test_both_targets_match_the_policy_classes(key, service_interval,
                                               request):
    if key == ("bt", "masks"):
        request.getfixturevalue("masks_for_bt")
    case = scenario(key, service_interval)
    drains = (key[0], "none")
    before, drains_before = binds(key), binds(drains, "observe")
    compiled = run_engine(case, "batched")
    with transitions.python_target():
        python = run_engine(case, "batched")
    generic = run_engine(GenericL2Case(**vars(case)), "batched")
    after, drains_after = binds(key), binds(drains, "observe")
    assert after[expected_target()] == before[expected_target()] + 1
    assert after["python"] >= before["python"] + 1
    # One drain kernel per ATD, bound when the simulator is built, on the
    # target the loop got — the generic-L2 run included: its ATDs still
    # run their rendering.
    atds = 4 if CONFIGS[key].partitioned else 0
    assert drains_after[expected_target()] \
        == drains_before[expected_target()] + 2 * atds
    assert drains_after["python"] >= drains_before["python"] + atds

    assert diff_snapshots(python, compiled) == []
    assert diff_snapshots(generic, compiled) == []
    # The scenario is what it claims to be.
    threads = {t["name"]: t for t in compiled.threads}
    assert threads["gap"]["l1_accesses"] == 1400
    assert threads["resident"]["l1_misses"] == 4
    assert compiled.events["l2_hits"] > 0 < compiled.events["l2_misses"]
    if CONFIGS[key].partitioned:
        assert compiled.events["repartitions"] >= 3
    if service_interval:
        assert compiled.events["memory_queue_cycles"] > 0


@pytest.mark.parametrize("key", [("nru", "masks"), ("lru", "counters"),
                                 ("bt", "btvectors")], ids="/".join)
def test_reference_engine_agrees_with_both_targets(key):
    """The reference engine walks every access; both targets of the
    batched loop reproduce its full snapshot."""
    case = scenario(key)
    reference = run_engine(case, "reference")
    assert diff_snapshots(reference, run_engine(case, "batched")) == []
    with transitions.python_target():
        assert diff_snapshots(reference, run_engine(case, "batched")) == []


def exact_types(value, path="result"):
    """Every number in a result is a builtin ``int`` / ``float``: a numpy
    scalar leaking out of the column arithmetic would change the pickled
    store bytes while comparing equal."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            exact_types(getattr(value, field.name), f"{path}.{field.name}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            exact_types(item, f"{path}[{index}]")
    elif isinstance(value, dict):
        for name, item in value.items():
            exact_types(item, f"{path}[{name!r}]")
    else:
        assert type(value) in (int, float, str, bool, type(None)), \
            f"{path} is {type(value).__name__}"


@pytest.mark.parametrize("key", [("lru", "counters"), ("nru", "none")],
                         ids="/".join)
def test_results_hold_builtin_numbers_only(key):
    sim = scenario(key).simulator("batched")
    result = sim.run()
    exact_types(result)
    l2 = sim.hierarchy.l2
    exact_types([list(l2.stats.accesses), list(l2.stats.misses),
                 list(l2.state.lines), list(l2.state.invalid),
                 list(l2.state.map.items())], "l2")


def test_tag_dict_is_rebuilt_from_the_tag_array():
    sim = scenario(("nru", "masks")).simulator("batched")
    sim.run()
    store = sim.hierarchy.l2.state
    expected = {line: flat % store.assoc
                for flat, line in enumerate(store.lines) if line >= 0}
    assert store.map == expected and len(expected) > 0
    assert all((store.invalid[flat // store.assoc] >> (flat % store.assoc))
               & 1 == (line < 0) for flat, line in enumerate(store.lines))


# ----------------------------------------------------------------------
# The C is generated, not a copy
# ----------------------------------------------------------------------
@pytest.fixture
def relearn():
    """Render, translate and build again around a spec mutation."""
    def forget():
        transitions.factory.cache_clear()
        native.load.cache_clear()

    forget()
    yield
    forget()


#: LRU's ``promote`` with the injected bug of
#: ``tests/corpus/lru-promote-below-mru.json``: the shift pass starts one
#: slot below the MRU, so a hit way lands there and the MRU stays.
PROMOTE_BELOW_MRU = """\
held = orders[row]
if held != way:
    slot = row + 1
    held = orders[slot]
    carry = way
    while held != way:
        orders[slot] = carry
        carry = held
        slot += 1
        held = orders[slot]
    orders[slot] = carry"""


def test_mutating_a_fragment_changes_both_targets(monkeypatch, relearn):
    """The injected bug of ``tests/corpus/lru-promote-below-mru.json`` —
    the hit way re-inserted one slot below the MRU — in the one ``promote``
    fragment: the compiled and the Python loop both change, identically,
    and both now disagree with the policy classes."""
    case = scenario(("lru", "masks"))
    stock = run_engine(case, "batched")
    generic = run_engine(GenericL2Case(**vars(case)), "batched")
    assert diff_snapshots(generic, stock) == []

    monkeypatch.setitem(transitions.POLICIES["lru"], "promote",
                        PROMOTE_BELOW_MRU)
    transitions.factory.cache_clear()
    native.load.cache_clear()
    before = binds(("lru", "masks"))
    compiled = run_engine(case, "batched")
    with transitions.python_target():
        python = run_engine(case, "batched")
    assert binds(("lru", "masks"))[expected_target()] \
        == before[expected_target()] + 1
    assert diff_snapshots(python, compiled) == []
    assert any("l2_misses" in path
               for path in diff_snapshots(stock, compiled))
    assert "slot = (row + INT64_C(1));" in \
        transitions.render("loop", ("lru", "masks"), target="c")


# ----------------------------------------------------------------------
# Errors raised on the Python side of a call-out
# ----------------------------------------------------------------------
def run_overrun():
    case = scenario(("nru", "masks"))
    sim = simulator_module.CMPSimulator(
        case.processor(), case.partitioning, case.traces,
        dataclasses.replace(case.simulation("batched"), max_cycles=10_000))
    with pytest.raises(RuntimeError) as info:
        sim.run()
    return sim, info


def test_overrun_under_the_compiled_target_raises_the_same_error():
    """``beyond`` raises inside a call-out: the C loop stops at that
    statement, the tag dict is derived from the state it reached, and
    the original exception — text and Python-side frames — comes out of
    ``run``."""
    text = ("simulation exceeded max_cycles=10000 with 3 threads still "
            "running")
    sim, info = run_overrun()
    assert str(info.value) == text
    frames = [frame.name for frame in traceback.extract_tb(info.tb)]
    assert frames[-1] == "beyond"
    if expected_target() == "c":
        assert "loop" not in frames and "__call__" in frames
    with transitions.python_target():
        python_sim, python_info = run_overrun()
    assert str(python_info.value) == text
    assert "loop" in [f.name for f in traceback.extract_tb(python_info.tb)]
    # Both stopped at the same access with the same state.
    for attr in ("lines", "invalid"):
        assert getattr(sim.hierarchy.l2.state, attr) \
            == getattr(python_sim.hierarchy.l2.state, attr)
    assert sim.hierarchy.l2.state.map == python_sim.hierarchy.l2.state.map
    assert sim.hierarchy.l2.stats.misses \
        == python_sim.hierarchy.l2.stats.misses
    assert sum(sim.hierarchy.l2.stats.misses) > 0


# ----------------------------------------------------------------------
# Observability and the host without a compiler
# ----------------------------------------------------------------------
def test_target_stats_say_what_ran_and_why():
    key = ("bt", "btvectors")
    both = (("loop", key), ("observe", ("bt", "none")))
    run_engine(scenario(key), "batched")
    for name in both:
        entry = transitions.target_stats()[name]
        assert entry["target"] == expected_target()
        if expected_target() == "c":
            assert entry["cache"] in ("hit", "built")
            assert entry["build_s"] >= 0 and "reason" not in entry
        else:
            assert entry["reason"] == "no C compiler (cc) on PATH"
    with transitions.python_target():
        run_engine(scenario(key), "batched")
    for name in both:
        entry = transitions.target_stats()[name]
        assert entry["target"] == "python"
        assert entry["reason"] == "python_target() block"
        assert "cache" not in entry
    entry["binds"]["c"] = -1            # a copy: nothing leaks back
    assert transitions.target_stats()[name]["binds"]["c"] >= 0
    summary = transitions.target_summary()
    assert summary.startswith("targets: loop c=")
    assert ", observe c=" in summary and "; built=" in summary
    assert "python_target() block" in summary


def test_host_without_a_compiler_runs_the_python_target(monkeypatch,
                                                        tmp_path):
    """An empty ``PATH``: same results, no warning, and ``target_stats``
    says why."""
    key = ("nru", "masks")
    case = scenario(key)
    with transitions.python_target():
        python = run_engine(case, "batched")
    monkeypatch.setenv("PATH", str(tmp_path))
    native.load.cache_clear()
    native.compiler.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bare = run_engine(case, "batched")
        stats = transitions.target_stats()
    finally:
        native.load.cache_clear()
        native.compiler.cache_clear()
    assert diff_snapshots(python, bare) == []
    for name in (("loop", key), ("observe", ("nru", "none"))):
        assert stats[name]["target"] == "python"
        assert stats[name]["reason"] == "no C compiler (cc) on PATH"
    assert "no C compiler (cc) on PATH" in transitions.target_summary()


# ----------------------------------------------------------------------
# Who runs a rendering: the batched engine's loop and drains, nothing else
# ----------------------------------------------------------------------
def test_reference_and_call_form_runs_enter_no_rendered_kernel(monkeypatch):
    """Only batch kernels are rendered, so the per-access paths step the
    classes by construction: a reference run enters no rendering at all,
    a call-form run with an immediate observer only the call-form loop
    and the L1's window ``prefilter`` (every batched run walks its L1s in
    windows), neither calls another compiled kernel — and both reproduce
    the batched run."""
    import sys

    prefilter = native.load("prefilter", transitions.PREFILTER_KEY)[0]
    call = native.CompiledKernel.__call__

    def crossed(self, *arguments):
        if prefilter is None or self._loaded is not prefilter:
            raise AssertionError("a per-access path entered a compiled "
                                 "kernel")
        return call(self, *arguments)

    case = scenario(("nru", "masks"))
    batched = run_engine(case, "batched")
    monkeypatch.setattr(native.CompiledKernel, "__call__", crossed)

    class ImmediateCase(FuzzCase):
        def simulator(self, engine):
            sim = super().simulator(engine)
            observe = sim.profiling.observe
            sim.hierarchy.l2_observer = \
                lambda core, line: observe(core, line)
            return sim

    def entered(engine, case):
        names = set()

        def profile(frame, event, _arg):
            # A rendering's ``build`` (binding it) shares its file name.
            code = frame.f_code
            if (event == "call" and code.co_name != "build"
                    and code.co_filename.startswith("<repro kernel")):
                names.add(code.co_filename)

        sys.setprofile(profile)
        try:
            snapshot = run_engine(case, engine)
        finally:
            sys.setprofile(None)
        assert diff_snapshots(snapshot, batched) == []
        return names

    assert entered("reference", case) == set()
    expected = {"<repro kernel call loop>"}
    if prefilter is None:               # no cc: the Python prefilter runs
        expected.add(transitions.source_name("prefilter",
                                             transitions.PREFILTER_KEY))
    assert entered("batched", ImmediateCase(**vars(case))) == expected


class RecordingCase(FuzzCase):
    """The case with thread 1's ``atd.observe_many`` rebound to a
    recorder of batch types — ``transparent``: behind ``functools.wraps``,
    the way a tracer wraps it."""

    transparent = False
    seen: list = []

    def simulator(self, engine):
        import functools

        sim = super().simulator(engine)
        atd = sim.profiling.monitors[1].atd
        kernel = atd.observe_many

        def recorder(batch):
            self.seen.append(type(batch))
            kernel(batch)

        atd.observe_many = (functools.wraps(kernel)(recorder)
                            if self.transparent else recorder)
        return sim


@pytest.mark.parametrize("transparent", [False, True],
                         ids=["opaque", "functools.wraps"])
def test_a_rebound_drain_stays_in_the_call_path(transparent, monkeypatch):
    """Whoever rebinds an ATD's ``observe_many`` sees every drain, and
    every drain is the same ``array('q')`` whatever stands behind it: an
    opaque callable or a transparent wrapper (``functools.wraps``, the
    way a tracer wraps it), a compiled kernel or a Python one.  Either
    way the run binds no drain kernel of its own: the four are the
    ATDs', bound when they were built."""
    case = scenario(("lru", "masks"))
    monkeypatch.setattr(RecordingCase, "transparent", transparent)
    monkeypatch.setattr(RecordingCase, "seen", [])
    before = binds(("lru", "none"), "observe")
    recorded = run_engine(RecordingCase(**vars(case)), "batched")
    after = binds(("lru", "none"), "observe")
    assert sum(after.values()) - sum(before.values()) == 4
    assert set(RecordingCase.seen) == {array}
    assert diff_snapshots(run_engine(case, "batched"), recorded) == []


def test_an_aborted_run_leaves_the_atds_on_their_own_kernel():
    """Nothing is installed for a run, so nothing needs undoing when one
    raises: each ATD still drains through the kernel it bound, on the
    target it bound, a batch longer than its directory included."""
    sim, _info = run_overrun()
    atds = [monitor.atd for monitor in sim.profiling.monitors]
    assert len(atds) == 4
    for atd in atds:
        assert "observe_many" in vars(atd)
        assert transitions.compiled(atd.observe_many) \
            == (expected_target() == "c")
        sampled = atd.sampled_accesses
        atd.observe_many(array("q", [0, 2, 4] * len(atd.state.lines)))
        assert atd.sampled_accesses > sampled


# ----------------------------------------------------------------------
# Shared, not marshalled: what a compiled call hands C
# ----------------------------------------------------------------------
#: The rendering of a translated kernel, by its first parameter.
RENDERING_OF = {"now": "loop", "batch": "observe", "refs": "prefilter"}


def bound_arrays(kernel):
    """``(name, kind)`` of each member the bind set: every one that is
    not a parameter or the error word."""
    loaded = kernel._loaded
    return [(name, kind) for name, _ctype, kind in loaded.fields
            if name not in loaded.params and kind != "error"]


def own_address(value) -> int:
    if value is None:
        return 0
    return (value.buffer_info()[0] if isinstance(value, array)
            else value.ctypes.data)


#: Parameter kinds a call hands C by address.
SHARED_PARAMS = ("column", "ints", "floats", "cores")


@pytest.fixture
def kernels(monkeypatch):
    """Every compiled kernel bound from here on: ``(kernel, its bound
    members' values in the argument block right after the bind, the
    parameters checked at its calls)``; each is kept alive, its pins
    held.

    Every call is checked as C starts: each column or array parameter's
    member is the address of the very object the caller passed (0 for
    None), so nothing on the way copied it, a column's length is its
    length, and an ``array`` parameter is pinned (``BufferError``)."""
    bound = []
    init = native.CompiledKernel.__init__
    call = native.CompiledKernel.__call__

    def recorded(self, *args):
        init(self, *args)
        run, handed = self._loaded.run, set()

        def checked(pointer):
            for (name, _ctype, kind), value in zip(self._params,
                                                   self._handed):
                if kind not in SHARED_PARAMS:
                    continue
                handed.add(name)
                assert (getattr(self._block, name) or 0) \
                    == own_address(value), name
                if kind == "column":
                    assert getattr(self._block, f"{name}_n") == len(value)
                if isinstance(value, array):
                    with pytest.raises(BufferError):
                        value.append(0)
            return run(pointer)

        self._loaded = self._loaded._replace(run=checked)
        bound.append((self, {name: getattr(self._block, name)
                             for name, _kind in bound_arrays(self)},
                      handed))

    def remembered(self, *arguments):
        self._handed = arguments
        return call(self, *arguments)

    monkeypatch.setattr(native.CompiledKernel, "__init__", recorded)
    monkeypatch.setattr(native.CompiledKernel, "__call__", remembered)
    return bound


@pytest.fixture
def derived(monkeypatch):
    """Every tag store whose dict is derived from here on, in order."""
    stores = []
    derive = TagStore._derive

    def counted(store):
        stores.append(store)
        derive(store)

    monkeypatch.setattr(TagStore, "_derive", counted)
    return stores


@pytest.mark.parametrize("key", list(CONFIGS), ids="/".join)
def test_a_compiled_call_copies_nothing(key, request, kernels, derived):
    """Every compiled kernel of a run — the loop, each drain, each L1
    window walk — gets its argument block at bind: every array member
    that is not a parameter holds the address of the owner's own buffer
    (0 for an absent channel), every other bound member is a scalar, and
    no call changes either.  LRU's recency order is one of the shared
    arrays.  Every call hands C the very columns and arrays it was
    given — the prefilter's window and output columns, a drain's batch,
    the loop's cursors — each pinned where it is an ``array``
    (:func:`kernels`).  Nothing is copied back: a whole run derives no
    tag dict, and the first ``map`` read afterwards derives each store's
    once, equal to a dict built from scratch."""
    if key == ("bt", "masks"):
        request.getfixturevalue("masks_for_bt")
    sim = scenario(key, service_interval=37.5).simulator("batched")
    sim.run()
    assert derived == []
    seen = set()
    for kernel, at_bind, handed in kernels:
        rendering = RENDERING_OF[kernel._loaded.params[0]]
        seen.add(rendering)
        assert handed == {name for name, _ctype, kind in kernel._params
                          if kind in SHARED_PARAMS}
        shared = set()
        for name, kind in bound_arrays(kernel):
            value = getattr(kernel._block, name)
            assert value == at_bind[name], name
            if kind in ("ints", "floats", "cores"):
                shared.add(name)
                assert (value or 0) == own_address(kernel._bound[name]), name
            else:
                assert kind in ("int", "float"), name
        if key[0] == "lru" and rendering != "prefilter":
            assert {"orders", "present"} <= shared
    expected = {"loop", "prefilter"}
    if CONFIGS[key].partitioned:
        expected.add("observe")
    compiled = expected_target() == "c"
    assert seen == (expected if compiled else set())

    stores = [sim.hierarchy.l2.state]
    if CONFIGS[key].partitioned:
        stores += [monitor.atd.state for monitor in sim.profiling.monitors]
    for store in stores + stores:
        assert store.map == {line: flat % store.assoc
                             for flat, line in enumerate(store.lines)
                             if line >= 0}
    assert derived == (stores if compiled else [])


def test_a_bound_owner_array_cannot_be_resized_between_calls(kernels):
    """A compiled kernel holds a buffer export of every owner ``array`` it
    binds for as long as it lives, so the rule that no owner array is
    ever resized is enforced at any time, not only inside a call: after a
    whole run, ``append`` on any of them raises ``BufferError`` and
    leaves it as it was."""
    sim = scenario(("lru", "counters")).simulator("batched")
    sim.run()
    assert len(kernels) == (1 + 4 + 4 if expected_target() == "c" else 0)
    for kernel, _at_bind, _handed in kernels:
        for name, kind in bound_arrays(kernel):
            value = kernel._bound[name]
            if isinstance(value, array):
                before = list(value)
                with pytest.raises(BufferError):
                    value.append(value[0])
                assert list(value) == before, name


class SplitCase(FuzzCase):
    """The case with its owners' kernels — the ATDs' drains and the L1s'
    prefilters, bound when the simulator is built — on one target and
    its run's loop on the other; ``python`` names the Python side,
    ``"owners"`` or ``"loop"``."""

    python = "owners"

    def simulator(self, engine):
        if self.python == "owners":
            with transitions.python_target():
                return super().simulator(engine)
        sim = super().simulator(engine)
        run = sim.run

        def python_run():
            with transitions.python_target():
                return run()

        sim.run = python_run
        return sim


@pytest.fixture
def python_calls(monkeypatch):
    """The tag store of every call of a Python-target kernel built from
    here on, each asserted not stale when the call starts."""
    stores = []
    factory = transitions.factory

    def checking(rendering, key):
        build = factory(rendering, key)

        def bound(owner, *args):
            kernel, store = build(owner, *args), getattr(owner, "state", None)
            if store is None:                   # an L1: no tag dict
                return kernel

            def checked(*arguments):
                assert not store.stale
                stores.append(store)
                return kernel(*arguments)

            return checked

        return bound

    monkeypatch.setattr(transitions, "factory", checking)
    return stores


@pytest.mark.parametrize("python", ["owners", "loop"])
@pytest.mark.parametrize("key", [("lru", "counters"), ("nru", "masks"),
                                 ("bt", "btvectors")], ids="/".join)
def test_no_python_kernel_runs_on_a_stale_store(key, python, monkeypatch,
                                                python_calls):
    """A Python-target kernel holds its tag dict itself, so it must never
    run on a store a compiled call has left stale (:mod:`repro.cache.state`).
    Every stock tag store has one kernel — an ATD's drain, bound when it
    is built, or the L2's loop, bound by each run — so even a run whose
    owners and loop are on different targets hands no Python kernel a
    stale store, and matches the run on one target."""
    monkeypatch.setattr(SplitCase, "python", python)
    case = scenario(key)
    split = run_engine(SplitCase(**vars(case)), "batched")
    assert len({id(store) for store in python_calls}) \
        == (4 if python == "owners" else 1)
    assert diff_snapshots(run_engine(case, "batched"), split) == []


def test_resizing_a_shared_array_in_a_call_out_is_refused():
    """A controller that grows a bound array inside ``beyond`` gets a
    ``BufferError`` out of the run — C holds that array's address for
    the length of the call — and the array is left as it was."""
    sim = scenario(("nru", "masks")).simulator("batched")
    masks = sim.hierarchy.l2.partition._masks
    boundary = sim.controller.interval_boundary
    before = []

    def grow(cycle):
        boundary(cycle=cycle)
        before[:] = [list(masks)]
        masks.append(masks[0])

    sim.controller.interval_boundary = grow
    if expected_target() == "c":
        with pytest.raises(BufferError):
            sim.run()
        assert list(masks) == before[0]
        assert len(masks) == sim.processor.num_cores
    else:                               # nothing pins a Python list walk
        sim.run()
        assert len(masks) > sim.processor.num_cores
