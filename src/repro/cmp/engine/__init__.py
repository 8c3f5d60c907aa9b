"""CMP execution engines.

Two engines, one implementation each:

* :class:`ReferenceEngine` — one scheduler event per memory reference,
  routed through the full hierarchy, stepping the policy, scheme and
  profiler classes: the semantic oracle, and what runs everything else.
* :class:`BatchedEngine` — the compiled L1 ``prefilter`` feeding the
  compiled ``loop`` rendering of the L2's stock (policy, scheme) pair
  (:mod:`repro.cache.transitions`), one event per reference that reaches
  the shared L2, bit-identical at every core count (a single thread is
  one clock); what it runs is :func:`batched_refusal`'s rule.

:func:`make_engine` instantiates by the ``SimulationConfig.engine`` name
(``"auto"``: :func:`resolve_engine_name`); :func:`engine_summary` says
which engines ran, and why.

(``solo.py`` and ``vector.py`` beside this file are benchmark-owned
stubs of two deleted single-thread engines: ``benchmarks/e2e`` imports
them by name and only a benchmark PR may edit it.  Nothing here
registers, exports or selects them.)
"""

from __future__ import annotations

from collections import Counter

from repro.cmp.engine.batched import BatchedEngine, CHUNK_SIZE, batched_refusal
from repro.cmp.engine.common import EngineBase, freeze_count
from repro.cmp.engine.reference import ReferenceEngine
from repro.config import ENGINE_AUTO, ENGINE_BATCHED, ENGINE_REFERENCE

#: Simulation-semantics version, part of every campaign store key
#: (:mod:`repro.campaign.hashing`).  Bump whenever a change can alter
#: simulation *results* — timing recurrence, freeze rule, hierarchy
#: semantics — so stale cached results can never be mistaken for current
#: ones.  Version 1 was the seed hot loop; version 2 is the PR 1
#: ``anchor + count * base`` recurrence with integer freeze counts.  The
#: engine *choice* (reference / batched) is deliberately not part of the
#: version: the equivalence suites pin both engines bit-identical.
ENGINE_VERSION = 2

#: Hot-path sources whose bytes are covered by the engine-version guard.
#: Paths are relative to ``src/``; edit the tuple when the hot path grows
#: a new module.  The trace generator is here too: every stored result is
#: keyed by a trace *recipe*, so an edit that changes a generated trace
#: must be as visible as one that changes the simulation.  So are the
#: profiling read-out and the partition selectors: they decide every
#: partitioned result at each interval boundary.
ENGINE_GUARDED_SOURCES = (
    "repro/cmp/engine/batched.py",
    "repro/cmp/engine/common.py",
    "repro/cmp/engine/reference.py",
    "repro/cache/state.py",
    "repro/cache/transitions.py",
    "repro/cache/cgen.py",
    "repro/cache/native.py",
    "repro/cache/cache.py",
    "repro/cache/hierarchy.py",
    "repro/cache/l1.py",
    "repro/cmp/memory.py",
    "repro/profiling/atd.py",
    "repro/profiling/sdh.py",
    "repro/profiling/monitor.py",
    "repro/core/buddy.py",
    "repro/core/minmisses.py",
    "repro/core/controller.py",
    "repro/workloads/generator.py",
)

#: sha256 over ``ENGINE_VERSION`` and the guarded sources, recorded so the
#: ``engine-version-guard`` lint rule can detect hot-path edits that ship
#: without an explicit version review.  Refresh (after bumping
#: ENGINE_VERSION when simulation results changed) with::
#:
#:     python -m repro lint --refresh-engine-checksum
ENGINE_SOURCE_CHECKSUM = "d98c17e7b979c5df52cfed874fad6e4a019b6a15152b9c7081bd391fbb9e2ef6"

_ENGINES = {
    ENGINE_REFERENCE: ReferenceEngine,
    ENGINE_BATCHED: BatchedEngine,
}


#: Engines :func:`make_engine` built in this process, and the reasons
#: ``auto`` runs went to the reference engine (:func:`engine_summary`).
_BUILT: Counter = Counter()
_REFUSED: Counter = Counter()


def resolve_engine_name(name: str, sim) -> str:
    """Concrete engine name for one simulator: ``"auto"`` — the
    :class:`~repro.config.SimulationConfig` default — is the batched
    engine at every core count unless :func:`batched_refusal` finds a
    reason against it; explicit names pass through unchanged."""
    if name != ENGINE_AUTO:
        return name
    return ENGINE_BATCHED if batched_refusal(sim) is None else ENGINE_REFERENCE


def make_engine(sim, name: str) -> EngineBase:
    """Instantiate the execution engine ``name`` for one simulator; an
    explicit ``"batched"`` the simulation does not admit raises
    :class:`ValueError` naming the reason."""
    engine = resolve_engine_name(name, sim)
    try:
        cls = _ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; known: {sorted(_ENGINES)} "
            f"(or '{ENGINE_AUTO}')"
        ) from None
    built = cls(sim)
    _BUILT[engine] += 1
    if name == ENGINE_AUTO and engine == ENGINE_REFERENCE:
        _REFUSED[batched_refusal(sim)] += 1
    return built


def engine_summary() -> str:
    """The engines :func:`make_engine` built in this process, and why
    ``auto`` did not pick the batched one, as one accounting line."""
    text = (f"engines: batched={_BUILT[ENGINE_BATCHED]} "
            f"reference={_BUILT[ENGINE_REFERENCE]}")
    if _REFUSED:
        text += " (" + "; ".join(f"{count}x {reason}" for reason, count
                                 in sorted(_REFUSED.items())) + ")"
    return text


__all__ = [
    "BatchedEngine",
    "CHUNK_SIZE",
    "ENGINE_VERSION",
    "EngineBase",
    "ReferenceEngine",
    "batched_refusal",
    "engine_summary",
    "freeze_count",
    "make_engine",
    "resolve_engine_name",
]
