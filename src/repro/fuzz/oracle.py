"""Oracle runner: execute a case under every applicable engine and diff.

The load-bearing claim behind every reported figure is that the
execution engines are *bit-identical*.  This module turns that claim into
a checkable predicate for one :class:`~repro.fuzz.case.FuzzCase`: run the
reference engine (the semantic oracle), run the batched engine, and
diff **everything observable** after the run:

* the :class:`~repro.cmp.results.SimulationResult` — per-thread timing
  terms (``cycles`` compared as exact floats), event counters, partition
  decision history, acronym;
* the final L2 **tag directory** (resident lines per way, invalid/dirty
  masks) — the integral of every hit/miss/victim decision the run made;
* the full **replacement-policy and partition-scheme state** (flat
  arrays, RNG stream position) via a generic attribute digest — hidden
  state divergence that has not yet surfaced in a victim choice;
* the **ATD/SDH profiling state** — sampled tag lines, SDH registers,
  sampled/skipped counters per monitor;
* a **victim probe**: after capturing the final state, a canonical
  stream of fresh lines (one per set, twice) is pushed through the L2 so
  latent replacement-state differences must materialise as different
  eviction choices — a decision-sequence check compressed into the tag
  state it leaves behind.

Two engines that agree on all of the above executed the same decision
sequence; any mismatch is reported as a list of dotted field paths.

The batched engine runs **twice** per case — once with the window
cache cold, once warm off the first run — and
both snapshots are diffed against the reference, which walks its L1 per
access, never touches a cache, steps the policy classes instead of the
rendered kernels and so stays the independent oracle.  A
cache that replays the wrong window, or restores the wrong L1 state, can
only show on the warm run.

It runs a third time with its event loop *and its ATD drains* held to
the **Python target** (:func:`repro.cache.transitions.python_target`).
Where the host has a C compiler the first two runs executed the compiled
targets of the same renderings, so the stage is compiled-vs-Python over
the full snapshot — SDH registers and ATD tags included; without one all
three are the Python target and the stage costs one redundant run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from contextlib import nullcontext

from repro.cache.transitions import python_target
from repro.cmp.engine.common import clear_window_cache
from repro.config import ENGINE_REFERENCE
from repro.fuzz.case import FuzzCase

#: The runs of the batched engine per case (module docstring): diff-path
#: prefix and the context each runs in.
_STAGES = (("", nullcontext), ("warm: ", nullcontext),
           ("python target: ", python_target))

#: Cap on reported diff paths per engine pair (divergences are usually
#: systemic; the first few paths identify the failing subsystem).
_MAX_DIFFS = 40


# ----------------------------------------------------------------------
# Generic state digest
# ----------------------------------------------------------------------
def _primitive(value, depth: int = 0):
    """Recursively reduce an object to comparable plain primitives."""
    if depth > 8:
        return repr(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.random.Generator):
        # The bit-generator state pins the *number of draws consumed* —
        # two engines that drew a different victim count diverge here
        # even if every materialised number happened to coincide.
        return _primitive(value.bit_generator.state, depth + 1)
    if isinstance(value, dict):
        return sorted(
            (repr(k), _primitive(v, depth + 1)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_primitive(v, depth + 1) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _primitive(dataclasses.asdict(value), depth + 1)
    if hasattr(value, "__dict__"):
        return sorted(
            (k, _primitive(v, depth + 1))
            for k, v in vars(value).items()
            if not callable(v)
        )
    return repr(value)


def state_digest(obj) -> object:
    """Comparable primitive digest of a policy / partition-scheme object."""
    return _primitive(obj)


# ----------------------------------------------------------------------
# Snapshot
# ----------------------------------------------------------------------
@dataclass
class Snapshot:
    """Everything observable after one engine run (plain primitives)."""

    threads: list
    events: dict
    history: list
    acronym: str
    tag_lines: list
    tag_invalid: list
    tag_dirty: list
    policy_state: object
    scheme_state: object
    profiling: list
    probe_tag_lines: list

    def as_dict(self) -> dict:
        """Field-name -> value view (diffing walks this)."""
        return dataclasses.asdict(self)


def _profiling_state(sim) -> list:
    if sim.profiling is None:
        return []
    return [
        (
            list(m.atd.state.lines),
            list(m.atd.sdh._r),
            m.atd.sampled_accesses,
            m.atd.skipped_accesses,
        )
        for m in sim.profiling.monitors
    ]


def _victim_probe(sim) -> list:
    """Push fresh lines through every L2 set; return the tag state left.

    Every probe access misses (the line addresses sit far above any fuzz
    trace's), so each forces a victim choice off the *final* replacement
    state.  Two runs with equal pre-probe state leave equal post-probe
    tags; a latent policy-state divergence shows up as different
    evictions.  Runs after the snapshot of the real final state, so the
    mutation is harmless — and uses ``access_line_hit`` directly, which
    never touches profiling or the controller.
    """
    l2 = sim.hierarchy.l2
    num_sets = l2.state.num_sets
    # Line addresses map to sets as ``line & (num_sets - 1)``; a base far
    # above any fuzz trace's addresses plus ``r * num_sets + s`` lands in
    # set ``s`` with a line no run has ever touched.
    probe_base = 1 << 40
    access = l2.access_line_hit
    for round_ in range(2):
        for s in range(num_sets):
            access(probe_base + round_ * num_sets + s, 0)
    return list(l2.state.lines)


def run_engine(case: FuzzCase, engine: str) -> Snapshot:
    """Run one engine on the case and capture the full snapshot.

    The reference run drops the rendered kernels its L2 and ATDs bound,
    so the oracle steps the hand-written policy / scheme / profiler
    *classes* and shares no transition body with the engines under test.
    """
    sim = case.simulator(engine)
    if engine == ENGINE_REFERENCE:
        vars(sim.hierarchy.l2).pop("access_line_hit", None)
        monitors = sim.profiling.monitors if sim.profiling else ()
        for core, monitor in enumerate(monitors):
            vars(monitor.atd).pop("observe", None)
            vars(monitor.atd).pop("observe_many", None)
            # ProfilingLogic bound the kernelised observer when it was built.
            sim.profiling._observe[core] = monitor.atd.observe
    result = sim.run()
    l2 = sim.hierarchy.l2
    snapshot = Snapshot(
        threads=[dataclasses.asdict(t) for t in result.threads],
        events=dataclasses.asdict(result.events),
        history=[dataclasses.asdict(r) for r in result.partition_history],
        acronym=result.acronym,
        tag_lines=list(l2.state.lines),
        tag_invalid=list(l2.state.invalid),
        tag_dirty=list(l2.state.dirty),
        policy_state=state_digest(l2.policy),
        scheme_state=state_digest(l2.partition),
        profiling=_profiling_state(sim),
        probe_tag_lines=[],
    )
    snapshot.probe_tag_lines = _victim_probe(sim)
    return snapshot


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
def _walk_diff(path: str, a, b, out: List[str]) -> None:
    if len(out) >= _MAX_DIFFS:
        return
    if type(a) is not type(b):
        out.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
        return
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b), key=repr):
            if key not in a or key not in b:
                out.append(f"{path}.{key}: only on one side")
            else:
                _walk_diff(f"{path}.{key}", a[key], b[key], out)
        return
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for i, (va, vb) in enumerate(zip(a, b)):
            _walk_diff(f"{path}[{i}]", va, vb, out)
            if len(out) >= _MAX_DIFFS:
                return
        return
    if a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def diff_snapshots(reference: Snapshot, other: Snapshot) -> List[str]:
    """Dotted paths of every observable difference (empty = identical)."""
    out: List[str] = []
    ref = reference.as_dict()
    oth = other.as_dict()
    for name in ref:
        _walk_diff(name, ref[name], oth[name], out)
        if len(out) >= _MAX_DIFFS:
            break
    return out


# ----------------------------------------------------------------------
# Per-case oracle
# ----------------------------------------------------------------------
@dataclass
class CaseReport:
    """Outcome of cross-checking one case over all its engine pairs."""

    case: FuzzCase
    engines: Tuple[str, ...]
    #: engine name -> diff paths vs the reference snapshot (empty = equal);
    #: the warm run's paths carry a ``warm:`` prefix, the batched
    #: engine's Python-target run a ``python target:`` one.
    diffs: Dict[str, List[str]] = field(default_factory=dict)
    error: Optional[str] = None
    #: Engine runs that completed (the reference once, every other engine
    #: cold and warm, batched once more on the Python target — fewer when
    #: a run crashed).
    engine_runs: int = 0

    @property
    def divergent(self) -> bool:
        """True when any engine disagreed with the reference (or crashed)."""
        return self.error is not None or any(self.diffs.values())

    def divergent_engines(self) -> List[str]:
        """Engines whose snapshot differed from the reference."""
        return [name for name, diffs in self.diffs.items() if diffs]

    def summary(self) -> str:
        """One-line human summary of the cross-check outcome."""
        if self.error is not None:
            return f"ERROR: {self.error}"
        bad = self.divergent_engines()
        if not bad:
            return (f"ok: {len(self.engines) - 1} engine(s) match reference "
                    f"({self.case.total_accesses()} accesses, "
                    f"{self.case.partitioning.acronym})")
        parts = []
        for name in bad:
            first = self.diffs[name][0]
            parts.append(f"{name} ({len(self.diffs[name])} diff(s), "
                         f"first: {first})")
        return "DIVERGENCE: " + "; ".join(parts)


def run_case(case: FuzzCase,
             engines: Optional[Tuple[str, ...]] = None) -> CaseReport:
    """Cross-check one case: reference vs every other applicable engine,
    each run cold and then warm (module docstring).

    Engine crashes (exceptions out of an engine run) count as divergence
    — an engine that raises where the oracle completes is as wrong as
    one that returns different numbers.
    """
    if engines is None:
        engines = case.applicable_engines()
    if ENGINE_REFERENCE not in engines:
        engines = (ENGINE_REFERENCE,) + tuple(engines)
    report = CaseReport(case=case, engines=tuple(engines))
    try:
        reference = run_engine(case, ENGINE_REFERENCE)
    except Exception as exc:  # noqa: BLE001 — any oracle crash is terminal
        report.error = f"reference engine crashed: {exc!r}"
        return report
    report.engine_runs += 1
    for engine in engines:
        if engine == ENGINE_REFERENCE:
            continue
        clear_window_cache()
        diffs = report.diffs[engine] = []
        for prefix, target in _STAGES:
            try:
                with target():
                    snapshot = run_engine(case, engine)
            except Exception as exc:  # noqa: BLE001 — crash == divergence
                diffs.append(f"{prefix}engine crashed: {exc!r}")
                break
            report.engine_runs += 1
            diffs += [prefix + path
                      for path in diff_snapshots(reference, snapshot)]
    return report
