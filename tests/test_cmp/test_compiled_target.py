"""The two targets of the ``loop`` and ``observe`` renderings against each
other and against the policy classes.

``BatchedEngine.run`` executes the compiled target of a stock key — its
event loop and, in a profiled run, the drains of its ATDs — wherever
the host can build it and the Python target otherwise
(:func:`repro.cache.transitions.bind`).  Both are translations of one
checked source, so every run here is made three times — compiled (the
default), Python (through :func:`repro.cache.transitions.python_target`,
the one internal seam) and over the generic object protocol, which steps
the hand-written policy and scheme *classes* — and the full fuzz-oracle
snapshots must agree: result, tag directory, policy / scheme state,
ATD / SDH registers, victim probe.

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

import numpy as np
import pytest

import repro.cmp.engine.batched as batched_mod
from repro.cache import native, transitions
from repro.cache.partition.masks import MasksPartition
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
    """The same case with the L2's instance-bound kernel removed: the
    call-form loop over the policy and scheme classes."""

    def simulator(self, engine):
        sim = super().simulator(engine)
        del sim.hierarchy.l2.access_line_hit
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
    # One drain kernel per ATD per run, on the target the loop got — the
    # generic-L2 run included: its ATDs still run their rendering.
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
    exact_types([l2.stats.accesses, l2.stats.misses, l2.state.lines,
                 l2.state.invalid, list(l2.state.map.items())], "l2")


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
        transitions._factory.cache_clear()
        native.load.cache_clear()

    forget()
    yield
    forget()


def test_mutating_a_fragment_changes_both_targets(monkeypatch, relearn):
    """The injected bug of ``tests/corpus/lru-promote-below-mru.json`` —
    the hit way re-inserted one slot below the MRU — in the one ``promote``
    fragment: the compiled and the Python loop both change, identically,
    and both now disagree with the policy classes."""
    case = scenario(("lru", "masks"))
    stock = run_engine(case, "batched")
    generic = run_engine(GenericL2Case(**vars(case)), "batched")
    assert diff_snapshots(generic, stock) == []

    monkeypatch.setitem(
        transitions.POLICIES["lru"], "promote",
        "if o[0] != way:\n    o.remove(way)\n    o.insert(1, way)")
    transitions._factory.cache_clear()
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
    assert "list_insert(o, o_n, assoc, INT64_C(1), way);" in \
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
    statement, the state it reached is copied back, and the original
    exception — text and Python-side frames — comes out of ``run``."""
    text = ("simulation exceeded max_cycles=10000 with 3 threads still "
            "running")
    sim, info = run_overrun()
    assert str(info.value) == text
    frames = [frame.name for frame in traceback.extract_tb(info.tb)]
    assert frames[-1] == "beyond"
    if expected_target() == "c":
        assert "loop" not in frames and "execute" in frames
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
# Who may cross into C: a whole drain, never a single access
# ----------------------------------------------------------------------
def test_single_access_observation_never_binds_the_compiled_target(
        monkeypatch):
    """The compiled drain copies the ATD's state in and out per call —
    per *batch* that is noise, per access it would be ~200x the Python
    step.  So the reference engine, the call-form loop with an immediate
    observer and ``ATD.observe`` itself stay on the Python rendering:
    no ``observe`` bind is recorded and no compiled kernel is called."""
    def crossed(self, *arguments):
        raise AssertionError("a single access crossed into C")

    key = ("nru", "masks")
    case = scenario(key)
    batched = run_engine(case, "batched")
    monkeypatch.setattr(native.CompiledKernel, "__call__", crossed)
    before = binds(("nru", "none"), "observe")
    assert diff_snapshots(run_engine(case, "reference"), batched) == []

    class ImmediateCase(FuzzCase):
        def simulator(self, engine):
            sim = super().simulator(engine)
            observe = sim.profiling.observe
            sim.hierarchy.l2_observer = \
                lambda core, line: observe(core, line)
            del sim.hierarchy.l2.access_line_hit    # the call-form loop
            return sim

    immediate = run_engine(ImmediateCase(**vars(case)), "batched")
    assert diff_snapshots(immediate, batched) == []
    assert binds(("nru", "none"), "observe") == before


class RecordingCase(FuzzCase):
    """The case with thread 1's ``atd.observe_many`` rebound to a
    recorder of batch types — ``transparent``: behind ``functools.wraps``,
    the way a tracer wraps it."""

    transparent = False
    seen: list = []
    atds: list = []

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
        self.atds[:] = [m.atd for m in sim.profiling.monitors]
        return sim


@pytest.mark.parametrize("transparent", [False, True],
                         ids=["opaque", "functools.wraps"])
def test_a_rebound_drain_stays_in_the_call_path(transparent, monkeypatch):
    """Whoever rebinds an ATD's ``observe_many`` sees every drain.  An
    opaque callable is drained as it stands — lists, and whatever it
    calls is the ATD's own Python kernel.  A transparent wrapper (a
    ``__wrapped__`` chain ending at the kernel the ATD bound) is still
    called, with the run's own bind behind it: columns into the compiled
    kernel wherever the host has ``cc``.  Either way the run leaves every
    ATD on the kernel it keeps for itself."""
    case = scenario(("lru", "masks"))
    monkeypatch.setattr(RecordingCase, "transparent", transparent)
    monkeypatch.setattr(RecordingCase, "seen", [])
    before = binds(("lru", "none"), "observe")
    recorded = run_engine(RecordingCase(**vars(case)), "batched")
    after = binds(("lru", "none"), "observe")
    assert sum(after.values()) - sum(before.values()) \
        == (4 if transparent else 3)
    compiled_behind = transparent and expected_target() == "c"
    assert set(RecordingCase.seen) \
        == {np.ndarray if compiled_behind else list}
    assert diff_snapshots(run_engine(case, "batched"), recorded) == []
    assert all(atd.kernel.target is atd.kernel.python
               and atd.kernel.floor == 0 for atd in RecordingCase.atds)


def test_an_aborted_run_leaves_the_atds_on_their_own_kernel():
    sim, _info = run_overrun()
    atds = [monitor.atd for monitor in sim.profiling.monitors]
    assert len(atds) == 4
    for atd in atds:
        assert atd.kernel.target is atd.kernel.python
        atd.observe_many([0, 2, 4])         # a list, as before the run
