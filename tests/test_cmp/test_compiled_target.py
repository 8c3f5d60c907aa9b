"""The compiled ``loop``, ``observe`` and ``prefilter`` kernels against
the policy classes.

``BatchedEngine.run`` executes the compiled kernels of a stock key — its
event loop, the L1s' window walks and, in a profiled run, the drains of
its ATDs (:func:`repro.cache.transitions.bind`); where they do not load,
every run is the reference engine's.  Every run here is made over the
kernels and over the generic object protocol, which steps the
hand-written policy and scheme *classes* (the reference engine, reached
through ``auto`` by shadowing the L2's ``access_line_hit``), and the full
fuzz-oracle snapshots must agree: result, tag directory, policy / scheme
state, ATD / SDH registers, victim probe.  (Names that say *both
targets* date from the Python target the kernels once had; the other
side is now the classes.)

The scenario packs what the loop special-cases into one run per key:
non-dyadic ``ipm`` / ``cpi``, 512-reference windows (seams), trace wraps,
a freeze on an L1 hit deep inside a gap, a thread that parks, several
repartitions, and — second parametrisation — a bandwidth-limited memory
channel.  The suite needs ``cc``.
"""

import dataclasses
import traceback
import warnings
from array import array

import numpy as np
import pytest

import repro.cmp.engine.batched as batched_mod
from repro.cache import native, transitions
from repro.cache.partition.masks import MasksPartition
from repro.cmp import simulator as simulator_module
from repro.cmp.engine import BatchedEngine, engine_summary
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
    ``access_line_hit`` (by the class's own method): under ``auto``, the
    reference engine over the policy and scheme classes."""

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
    """Compiled binds of ``key``'s ``rendering`` in this process."""
    return transitions.target_stats().get(
        (rendering, key), {"compiled": 0})["compiled"]


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
    generic = run_engine(GenericL2Case(**vars(case)), "auto")
    after, drains_after = binds(key), binds(drains, "observe")
    # The generic-L2 run binds no loop; one drain kernel per ATD, bound
    # when the simulator is built, the generic-L2 run's included (the
    # reference engine observes through the class's ``observe``).
    assert after == before + 1
    atds = 4 if CONFIGS[key].partitioned else 0
    assert drains_after == drains_before + 2 * atds

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
    """The reference engine walks every access; the compiled batched run
    reproduces its full snapshot."""
    case = scenario(key)
    reference = run_engine(case, "reference")
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
                 list(l2.state.dirty)], "l2")


def resident(store):
    """``{line: way}`` of every valid entry of ``store``'s rows, each
    found by :meth:`TagStore.way_of` in its own row at its own way."""
    ways = {}
    for flat, line in enumerate(store.lines):
        if line >= 0:
            s, way = divmod(flat, store.assoc)
            assert store.way_of(s, line) == way, (s, way)
            ways[line] = way
    return ways


def test_tag_dict_is_rebuilt_from_the_tag_array():
    """The tag array is the one copy of the tag state: after a compiled
    run the classes find every line the loop left in the rows where the
    loop left it."""
    sim = scenario(("nru", "masks")).simulator("batched")
    sim.run()
    l2 = sim.hierarchy.l2
    store = l2.state
    ways = resident(store)
    assert len(ways) > 0
    assert all(l2.probe_line(line) == way for line, way in ways.items())
    assert all((store.invalid[flat // store.assoc] >> (flat % store.assoc))
               & 1 == (line < 0) for flat, line in enumerate(store.lines))


# ----------------------------------------------------------------------
# The C is generated, not a copy
# ----------------------------------------------------------------------
@pytest.fixture
def relearn():
    """Render, translate and build again around a spec mutation."""
    native.load.cache_clear()
    yield
    native.load.cache_clear()


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
    fragment: the compiled loop changes and now disagrees with the policy
    classes, which stay as they were."""
    case = scenario(("lru", "masks"))
    stock = run_engine(case, "batched")
    generic = run_engine(GenericL2Case(**vars(case)), "auto")
    assert diff_snapshots(generic, stock) == []

    monkeypatch.setitem(transitions.POLICIES["lru"], "promote",
                        PROMOTE_BELOW_MRU)
    native.load.cache_clear()
    before = binds(("lru", "masks"))
    compiled = run_engine(case, "batched")
    assert binds(("lru", "masks")) == before + 1
    assert diff_snapshots(generic, run_engine(GenericL2Case(**vars(case)),
                                              "auto")) == []
    assert any("l2_misses" in path
               for path in diff_snapshots(stock, compiled))
    assert "slot = (row + INT64_C(1));" in \
        transitions.translate("loop", ("lru", "masks")).source


# ----------------------------------------------------------------------
# Errors raised by the loop's shell
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
    """The C loop returns at the pop past the cap and its shell's
    ``beyond`` raises, with no compiled call on the stack: the classes
    read the tag state the loop reached, and the exception — text and
    frames — comes out of ``run``."""
    text = ("simulation exceeded max_cycles=10000 with 3 threads still "
            "running")
    sim, info = run_overrun()
    assert str(info.value) == text
    frames = [frame.name for frame in traceback.extract_tb(info.tb)]
    assert frames[-1] == "beyond"
    assert "loop" not in frames and "__call__" not in frames
    l2 = sim.hierarchy.l2
    assert all(l2.probe_line(line) == way
               for line, way in resident(l2.state).items())
    assert sum(l2.stats.misses) > 0


def capped(case, engine, cap):
    """``("ran", result)`` or ``("raised", message)`` of ``case`` under
    ``max_cycles=cap``."""
    sim = simulator_module.CMPSimulator(
        case.processor(), case.partitioning, case.traces,
        dataclasses.replace(case.simulation(engine), max_cycles=cap))
    try:
        return "ran", sim.run()
    except RuntimeError as exc:
        return "raised", str(exc)


@pytest.mark.parametrize("key", [("lru", "none"), ("nru", "masks")],
                         ids="/".join)
def test_a_cap_equal_to_a_pop_clock_runs_that_pop_once(key):
    """Integer clocks (``ipm * cpi_base`` and the penalties integers), so
    the least cap a run survives is the clock of a pop: the loop must
    run that pop (``now > cap`` is false) and not hand it back to its
    shell forever.  At that cap both engines finish with the same
    result; one cycle below, both raise the same text — the last pop
    is a freeze, which the reference runs before it raises."""
    rng = np.random.default_rng(3)
    case = dataclasses.replace(
        scenario(key),
        traces=[Trace(f"t{i}", rng.integers(0, 300, size=400)
                      + 1_000_000 * i, ipm=2.0, cpi_base=1.0)
                for i in range(3)],
        per_thread_instructions=(1500, 1900, 2400))
    lo, hi = 0, 1 << 24
    while lo < hi:
        mid = (lo + hi) // 2
        if capped(case, "batched", mid)[0] == "ran":
            hi = mid
        else:
            lo = mid + 1
    for cap in (lo - 1, lo):
        assert capped(case, "batched", cap) == capped(case, "reference",
                                                      cap), cap
    assert capped(case, "batched", lo - 1) == (
        "raised", f"simulation exceeded max_cycles={lo - 1} with 0 "
                  f"threads still running")


@pytest.mark.parametrize("key", [("lru", "none"), ("nru", "masks")],
                         ids="/".join)
def test_the_loop_returns_only_where_its_shell_has_work(key, monkeypatch):
    """One call of the loop, then one more per event its shell handles:
    a window to load, a boundary crossed, a freeze.  So a run calls it
    at most windows loaded + boundaries crossed + freezes + 1 times."""
    counts = dict.fromkeys(("loop", "windows", "boundaries"), 0)
    call = native.CompiledKernel.__call__
    load = BatchedEngine._load_chunk

    def counted_call(self, *arguments):
        counts["loop"] += self._loaded.params[0] == "clocks"
        return call(self, *arguments)

    def counted_load(self, t):
        counts["windows"] += 1
        return load(self, t)

    monkeypatch.setattr(native.CompiledKernel, "__call__", counted_call)
    monkeypatch.setattr(BatchedEngine, "_load_chunk", counted_load)
    sim = scenario(key).simulator("batched")
    if sim.controller is not None:
        boundary = sim.controller.interval_boundary

        def counted_boundary(cycle):
            counts["boundaries"] += 1
            boundary(cycle=cycle)

        sim.controller.interval_boundary = counted_boundary
    sim.run()
    assert counts["windows"] > 2 * len(sim.traces)
    assert counts["boundaries"] > 2 or sim.controller is None
    assert counts["loop"] <= (counts["windows"] + counts["boundaries"]
                              + len(sim.traces) + 1), counts


# ----------------------------------------------------------------------
# Observability and the host without a compiler
# ----------------------------------------------------------------------
def test_target_stats_say_what_ran_and_why():
    key = ("bt", "btvectors")
    both = (("loop", key), ("observe", ("bt", "none")))
    run_engine(scenario(key), "batched")
    for name in both:
        entry = transitions.target_stats()[name]
        assert entry["target"] == "c"
        assert entry["cache"] in ("hit", "built")
        assert entry["build_s"] >= 0 and "reason" not in entry
        assert entry["binds"] == entry["compiled"] >= 1
    entry["binds"] = -1                 # a copy: nothing leaks back
    assert transitions.target_stats()[name]["binds"] >= 1
    summary = transitions.target_summary()
    assert summary.startswith("targets: loop c=")
    assert ", observe c=" in summary and "; built=" in summary


def test_host_without_a_compiler_runs_the_reference_engine(monkeypatch,
                                                           tmp_path):
    """An empty ``PATH``: ``auto`` runs the reference engine with the
    compiled run's results and no warning, an explicit ``batched``
    refuses naming why, and ``target_stats`` / ``engine_summary`` say
    why."""
    key = ("nru", "masks")
    case = scenario(key)
    compiled = run_engine(case, "batched")
    monkeypatch.setenv("PATH", str(tmp_path))
    native.load.cache_clear()
    native.compiler.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bare = run_engine(case, "auto")
            with pytest.raises(ValueError, match="no compiled loop: no C "
                                                 r"compiler \(cc\) on PATH"):
                case.simulator("batched").run()
        stats = transitions.target_stats()
        summary = engine_summary()
    finally:
        monkeypatch.undo()
        native.load.cache_clear()
        native.compiler.cache_clear()
    assert diff_snapshots(compiled, bare) == []
    for name in (("prefilter", transitions.PREFILTER_KEY),
                 ("observe", ("nru", "none"))):
        assert stats[name]["target"] is None
        assert stats[name]["reason"] == "no C compiler (cc) on PATH"
    assert "no compiled loop: no C compiler (cc) on PATH" in summary


def test_an_unavailable_compiler_takes_the_reference_engine(monkeypatch):
    """``native.compiler`` raising :class:`native.Unavailable` — a host
    whose compiler cannot be used — sends ``auto`` to the reference
    engine, and an explicit ``batched`` names the reason."""
    def unavailable():
        raise native.Unavailable("compiler probe refused", loud=False)

    case = scenario(("lru", "counters"))
    compiled = run_engine(case, "batched")
    monkeypatch.setattr(native, "compiler", unavailable)
    native.load.cache_clear()
    try:
        sim = case.simulator("auto")
        with pytest.raises(ValueError, match="no compiled loop: compiler "
                                             "probe refused"):
            BatchedEngine(sim)
        assert type(simulator_module.make_engine(sim, "auto")).__name__ \
            == "ReferenceEngine"
        assert diff_snapshots(compiled, run_engine(case, "auto")) == []
    finally:
        native.load.cache_clear()


# ----------------------------------------------------------------------
# Who runs a rendering: the batched engine's loop and drains, nothing else
# ----------------------------------------------------------------------
def test_reference_and_call_form_runs_enter_no_rendered_kernel(monkeypatch):
    """Only batch kernels are rendered, so the per-access paths step the
    classes by construction: neither a reference run nor an ``auto`` run
    with an immediate observer (the reference engine's) calls a compiled
    kernel — and both reproduce the batched run."""
    def crossed(self, *arguments):
        raise AssertionError("a per-access path entered a compiled kernel")

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

    assert diff_snapshots(run_engine(case, "reference"), batched) == []
    assert diff_snapshots(run_engine(ImmediateCase(**vars(case)), "auto"),
                          batched) == []


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
    every drain is the same ``int64`` view of the run's miss-stream
    buffer whatever stands behind it: an opaque callable or a
    transparent wrapper (``functools.wraps``, the way a tracer wraps
    it).  Either way the run binds no drain kernel of
    its own: the four are the ATDs', bound when they were built."""
    case = scenario(("lru", "masks"))
    monkeypatch.setattr(RecordingCase, "transparent", transparent)
    monkeypatch.setattr(RecordingCase, "seen", [])
    before = binds(("lru", "none"), "observe")
    recorded = run_engine(RecordingCase(**vars(case)), "batched")
    assert binds(("lru", "none"), "observe") - before == 4
    assert set(RecordingCase.seen) == {np.ndarray}
    assert diff_snapshots(run_engine(case, "batched"), recorded) == []


def test_an_aborted_run_leaves_the_atds_on_their_own_kernel():
    """Nothing is installed for a run, so nothing needs undoing when one
    raises: each ATD still drains through the compiled kernel it bound,
    a batch longer than its directory included."""
    sim, _info = run_overrun()
    atds = [monitor.atd for monitor in sim.profiling.monitors]
    assert len(atds) == 4
    for atd in atds:
        assert isinstance(vars(atd)["observe_many"], native.CompiledKernel)
        sampled = atd.sampled_accesses
        atd.observe_many(array("q", [0, 2, 4] * len(atd.state.lines)))
        assert atd.sampled_accesses > sampled


# ----------------------------------------------------------------------
# Shared, not marshalled: what a compiled call hands C
# ----------------------------------------------------------------------
#: The rendering of a translated kernel, by its first parameter.
RENDERING_OF = {"boundary": "loop", "batch": "observe", "refs": "prefilter"}


def bound_arrays(kernel):
    """``(name, kind)`` of each member the bind set: every one that is
    not a parameter."""
    loaded = kernel._loaded
    return [(name, kind) for name, _ctype, kind in loaded.fields
            if name not in loaded.params]


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
    held, and its calls' arguments kept as ``_calls``.

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
        vars(self).setdefault("_calls", []).append(arguments)
        return call(self, *arguments)

    monkeypatch.setattr(native.CompiledKernel, "__init__", recorded)
    monkeypatch.setattr(native.CompiledKernel, "__call__", remembered)
    return bound


@pytest.mark.parametrize("key", list(CONFIGS), ids="/".join)
def test_a_compiled_call_copies_nothing(key, request, kernels):
    """Every compiled kernel of a run — the loop, each drain, each L1
    window walk — gets its argument block at bind: every array member
    that is not a parameter holds the address of the owner's own buffer
    (0 for an absent channel), every other bound member is a scalar, and
    no call changes either.  LRU's recency order is one of the shared
    arrays, and so are the run's clocks, cursors and miss-stream buffer,
    the loop's two parameters being scalars.  Every call hands C the very
    columns and arrays it was given — the prefilter's window and output
    columns, a drain's batch — each pinned where it is an ``array``
    (:func:`kernels`), and every drain's batch is a view of the run's
    buffer.  Nothing is copied back: the classes find every line the
    kernels left in a tag store where they left it."""
    if key == ("bt", "masks"):
        request.getfixturevalue("masks_for_bt")
    sim = scenario(key, service_interval=37.5).simulator("batched")
    sim.run()
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
        if rendering == "loop":
            assert set(transitions.LoopRun._fields[4:]) <= shared
            buffer = kernel._bound["lines"]
    for kernel, _at_bind, _handed in kernels:
        if RENDERING_OF[kernel._loaded.params[0]] == "observe":
            assert all(np.shares_memory(batch, buffer)
                       for batch, in getattr(kernel, "_calls", ()))
    expected = {"loop", "prefilter"}
    if CONFIGS[key].partitioned:
        expected.add("observe")
    assert seen == expected

    stores = [sim.hierarchy.l2.state]
    if CONFIGS[key].partitioned:
        stores += [monitor.atd.state for monitor in sim.profiling.monitors]
    assert all(resident(store) for store in stores)


def test_a_bound_owner_array_cannot_be_resized_between_calls(kernels):
    """A compiled kernel holds a buffer export of every owner ``array`` it
    binds for as long as it lives, so the rule that no owner array is
    ever resized is enforced at any time, not only inside a call: after a
    whole run, ``append`` on any of them — the run's clocks and cursors
    included — raises ``BufferError`` and leaves it as it was, and the
    run's miss-stream buffer, a view, cannot be resized either."""
    sim = scenario(("lru", "counters")).simulator("batched")
    sim.run()
    assert len(kernels) == 1 + 4 + 4
    resized = set()
    for kernel, _at_bind, _handed in kernels:
        for name, kind in bound_arrays(kernel):
            value = kernel._bound[name]
            if isinstance(value, array):
                before = list(value)
                with pytest.raises(BufferError):
                    value.append(value[0])
                assert list(value) == before, name
                resized.add(name)
            elif isinstance(value, np.ndarray):
                with pytest.raises(ValueError, match="cannot resize"):
                    value.resize(len(value) + 1)
                resized.add(name)
    assert set(transitions.LoopRun._fields[4:]) <= resized


def test_resizing_a_shared_array_in_a_call_out_is_refused():
    """A controller that grows a bound array inside ``beyond`` — between
    two calls of the loop — gets a ``BufferError`` out of the run: the
    loop holds that array's address for as long as it lives, and the
    array is left as it was."""
    sim = scenario(("nru", "masks")).simulator("batched")
    masks = sim.hierarchy.l2.partition._masks
    boundary = sim.controller.interval_boundary
    before = []

    def grow(cycle):
        boundary(cycle=cycle)
        before[:] = [list(masks)]
        masks.append(masks[0])

    sim.controller.interval_boundary = grow
    with pytest.raises(BufferError):
        sim.run()
    assert list(masks) == before[0]
    assert len(masks) == sim.processor.num_cores
