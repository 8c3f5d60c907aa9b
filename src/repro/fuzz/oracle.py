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

Agreement is not correctness: a bug in the transition spec both engines
render would agree with itself.  So every run, the reference's too, also
checks the partition's post-conditions against the tag store
(:func:`partition_postconditions`): global masks and BT subcubes are
pairwise disjoint and cover the ways, and owner-counter owned bits are
disjoint across cores and make up each set's valid ways.  A violation is
reported as a path prefixed ``postcondition:``.

The batched engine — compiled event loop, ATD drains and L1 prefilter
— is diffed against the reference, which walks its L1 per access and
steps the policy, scheme and profiler classes: an oracle that shares no
transition body with the kernels.  A case the batched engine refuses
(:func:`repro.cmp.engine.batched_refusal`) has no pair to diff.  Then
every read-only thread's trace is walked, in windows of uneven widths,
through the compiled ``prefilter`` and through the class's per-access
``access_line_hit`` (:func:`prefilter_diffs`): miss streams, L1 slots,
dirty flags and statistics must be equal (paths prefixed
``prefilter:``).  A writing trace never reaches the kernel.
"""

from __future__ import annotations

import dataclasses
import itertools
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.l1 import SmallLRUCache
from repro.config import ENGINE_REFERENCE
from repro.fuzz.case import FuzzCase

#: Window widths :func:`prefilter_diffs` cycles through: a single
#: reference, short odd ones and a long one, so state carries across
#: every kind of seam.
_PREFILTER_WIDTHS = (1, 7, 64, 3, 1000)

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
    if isinstance(value, (np.ndarray, array)):
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
    #: :func:`partition_postconditions` of the run's final state, each
    #: prefixed ``postcondition:``: reported per engine, not diffed.
    postconditions: list = field(default_factory=list)

    def as_dict(self) -> dict:
        """Field-name -> value view of the diffed fields (diffing walks
        this)."""
        view = dataclasses.asdict(self)
        del view["postconditions"]
        return view


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


def _disjoint_cover(label: str, masks: List[int], ways: int) -> List[str]:
    """Paths where per-core way ``masks`` overlap or do not make up
    exactly ``ways``."""
    out = []
    union = 0
    for core, mask in enumerate(masks):
        if union & mask:
            out.append(f"{label}[{core}]: ways {union & mask:#x} "
                       f"also held by another core")
        union |= mask
    if union != ways:
        out.append(f"{label}: cores hold ways {union:#x}, not {ways:#x}")
    return out


def partition_postconditions(sim) -> List[str]:
    """What the L2's enforcement scheme must satisfy after any run.

    Global masks (``masks``) and BT subcubes (``btvectors``) are pairwise
    disjoint across cores and cover every way.  Owner counters
    (``counters``): in every set the cores' owned-way bits are disjoint
    and make up exactly the set's valid ways.  Returns one path per
    violation (empty = all hold).
    """
    l2 = sim.hierarchy.l2
    scheme = l2.partition
    if scheme is None:
        return []
    cores = range(scheme.num_cores)
    if scheme.name != "counters":
        return _disjoint_cover(
            f"{scheme.name}.mask",
            [scheme.candidate_mask(0, core) for core in cores],
            scheme.full_mask)
    out = []
    for s in range(scheme.num_sets):
        out += _disjoint_cover(
            f"counters.owned[{s}]",
            [scheme._owned[s * scheme.num_cores + core] for core in cores],
            scheme.full_mask & ~l2.state.invalid[s])
    return out


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
    """Run one engine on the case and capture the full snapshot."""
    sim = case.simulator(engine)
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
        postconditions=["postcondition: " + path
                        for path in partition_postconditions(sim)],
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


def _stepped(l1: SmallLRUCache, lines) -> list:
    """The :class:`~repro.cache.l1.MissStream` of one read window as
    ``[gaps, lines, tail]``, the columns as lists, from per-access
    ``access_line_hit`` calls."""
    gaps, misses, gap = [], [], 0
    for line in lines.tolist():
        if l1.access_line_hit(line):
            gap += 1
            continue
        gaps.append(gap)
        misses.append(line)
        gap = 0
    return [gaps, misses, gap]


def _prefilter_walk(case: FuzzCase, trace, per_access: bool) -> list:
    """The miss streams of the read-only ``trace``, window by window,
    through a fresh L1's compiled ``prefilter`` (or, ``per_access``,
    ``access_line_hit``), then the L1's slots, dirty flags and
    statistics."""
    l1 = SmallLRUCache(case.processor().l1d)
    walked = []
    pos = 0
    for width in itertools.cycle(_PREFILTER_WIDTHS):
        if pos == len(trace):
            break
        lines = trace.lines[pos:pos + width]
        if per_access:
            walked.append(_stepped(l1, lines))
        else:
            gaps, misses, tail = l1.access_lines_hit(lines)
            walked.append([gaps.tolist(), misses.tolist(), tail])
        pos += len(lines)
    return [walked, list(l1._slots), list(l1._dirty),
            [list(getattr(l1.stats, name)) for name in l1.stats.__slots__]]


def prefilter_diffs(case: FuzzCase) -> List[str]:
    """Dotted paths where the compiled L1 ``prefilter`` walks a read-only
    thread's trace differently from the class's per-access
    ``access_line_hit`` (empty = identical)."""
    out: List[str] = []
    for core, trace in enumerate(case.traces):
        if trace.writes is None:
            _walk_diff(f"t{core}",
                       _prefilter_walk(case, trace, per_access=True),
                       _prefilter_walk(case, trace, per_access=False), out)
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
    #: the prefilter's diff against the per-access L1 carries a
    #: ``prefilter:`` prefix, and an engine's failed partition
    #: post-conditions a ``postcondition:`` one (the reference's own
    #: appear under its name only when one fails).
    diffs: Dict[str, List[str]] = field(default_factory=dict)
    error: Optional[str] = None
    #: Engine runs that completed (the reference once, then every other
    #: engine — fewer when a run crashed).
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
    plus the compiled prefilter vs the per-access L1, and every run's
    partition post-conditions (module docstring).

    Engine crashes (exceptions out of an engine run) count as divergence
    — an engine that raises where the oracle completes is as wrong as
    one that returns different numbers.
    """
    report = CaseReport(case=case, engines=(ENGINE_REFERENCE,))
    try:
        reference = run_engine(case, ENGINE_REFERENCE)
    except Exception as exc:  # noqa: BLE001 — any oracle crash is terminal
        report.error = f"reference engine crashed: {exc!r}"
        return report
    report.engine_runs += 1
    if reference.postconditions:
        report.diffs[ENGINE_REFERENCE] = reference.postconditions
    if engines is None:
        engines = case.applicable_engines()
    others = tuple(engine for engine in engines if engine != ENGINE_REFERENCE)
    report.engines += others
    for engine in others:
        try:
            snapshot = run_engine(case, engine)
        except Exception as exc:  # noqa: BLE001 — crash == divergence
            report.diffs[engine] = [f"engine crashed: {exc!r}"]
            continue
        report.engine_runs += 1
        report.diffs[engine] = (
            diff_snapshots(reference, snapshot)
            + ["prefilter: " + path for path in prefilter_diffs(case)]
            + snapshot.postconditions)
    return report
