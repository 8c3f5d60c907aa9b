"""CMP execution engines.

Two interchangeable implementations of the simulation hot loop:

* :class:`ReferenceEngine` — one scheduler event per memory reference,
  routed through the full hierarchy.  The semantic oracle.
* :class:`BatchedEngine` — bulk L1 prefilter (the L1's ``prefilter``
  rendering, one call per window of the trace) with slow-path events
  only for references that reach the shared L2, executed by the ``loop``
  rendering of the policy's transition spec
  (:mod:`repro.cache.transitions`; both compiled where the host has
  ``cc``).
  Bit-identical results at every core count: a single-thread run —
  every isolation job, every 1-core figure point — is the same loop over
  a heap of one.

:func:`make_engine` instantiates by the ``SimulationConfig.engine`` name;
the default ``"auto"`` resolves through :func:`resolve_engine_name` to
the batched engine, whatever the core count.

(``solo.py`` and ``vector.py`` beside this file are benchmark-owned
stubs of two deleted single-thread engines: ``benchmarks/e2e`` imports
them by name and only a benchmark PR may edit it.  Nothing here
registers, exports or selects them.)
"""

from __future__ import annotations

from repro.cmp.engine.batched import BatchedEngine, CHUNK_SIZE
from repro.cmp.engine.common import EngineBase, freeze_count
from repro.cmp.engine.reference import ReferenceEngine
from repro.cmp.engine.scheduler import EventScheduler
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
#: must be as visible as one that changes the simulation.
ENGINE_GUARDED_SOURCES = (
    "repro/cmp/engine/batched.py",
    "repro/cmp/engine/common.py",
    "repro/cmp/engine/reference.py",
    "repro/cmp/engine/scheduler.py",
    "repro/cache/state.py",
    "repro/cache/transitions.py",
    "repro/cache/cgen.py",
    "repro/cache/native.py",
    "repro/cache/cache.py",
    "repro/cache/hierarchy.py",
    "repro/cache/l1.py",
    "repro/cmp/memory.py",
    "repro/profiling/atd.py",
    "repro/workloads/generator.py",
)

#: sha256 over ``ENGINE_VERSION`` and the guarded sources, recorded so the
#: ``engine-version-guard`` lint rule can detect hot-path edits that ship
#: without an explicit version review.  Refresh (after bumping
#: ENGINE_VERSION when simulation results changed) with::
#:
#:     python -m repro lint --refresh-engine-checksum
ENGINE_SOURCE_CHECKSUM = "276c549daeadcf979448653bcc5c8964eb080c9ffe8d88b2ee2bf3f1a08fcaf8"

_ENGINES = {
    ENGINE_REFERENCE: ReferenceEngine,
    ENGINE_BATCHED: BatchedEngine,
}


def resolve_engine_name(name: str, num_cores: int) -> str:
    """Concrete engine name for a configuration (resolves ``"auto"``).

    ``"auto"`` — the :class:`~repro.config.SimulationConfig` default — is
    the batched engine for every ``num_cores``: a replacement policy is a
    per-set automaton that does not care how many threads feed it, so one
    rendering of it serves isolation runs and multi-core runs alike.
    Explicit names pass through unchanged.
    """
    return ENGINE_BATCHED if name == ENGINE_AUTO else name


def make_engine(sim, name: str) -> EngineBase:
    """Instantiate the execution engine ``name`` for one simulator."""
    name = resolve_engine_name(name, len(sim.traces))
    try:
        cls = _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; known: {sorted(_ENGINES)} "
            f"(or '{ENGINE_AUTO}')"
        ) from None
    return cls(sim)


__all__ = [
    "BatchedEngine",
    "CHUNK_SIZE",
    "ENGINE_VERSION",
    "EngineBase",
    "EventScheduler",
    "ReferenceEngine",
    "freeze_count",
    "make_engine",
    "resolve_engine_name",
]
