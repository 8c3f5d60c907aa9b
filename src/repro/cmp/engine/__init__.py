"""CMP execution engines.

Four interchangeable implementations of the simulation hot loop:

* :class:`ReferenceEngine` — one scheduler event per memory reference,
  routed through the full hierarchy.  The semantic oracle.
* :class:`BatchedEngine` — bulk L1 prefilter (numpy over the trace) with
  slow-path events only for references that reach the shared L2.  Several
  times faster, bit-identical results.
* :class:`SoloEngine` — the single-thread fast path: no event scheduler at
  all, just the bulk L1 prefilter and a walk of the L2 miss stream.  Only
  valid for one-core simulations (isolation runs, 1-core figure points),
  where it is bit-identical by construction — no cross-thread ordering
  exists to preserve.
* :class:`VectorEngine` — the single-thread *window-at-a-time* slow
  path: the L2 miss stream is cut into boundary-free windows, each
  drained by one window-kernel call (the ``window`` rendering of the
  policy's transition spec, :mod:`repro.cache.transitions`) with the
  clock reconstructed by a vectorised prefix sum.  Bit-identical to solo
  (configurations outside its batched path delegate to solo outright).

:func:`make_engine` instantiates by the ``SimulationConfig.engine`` name;
the default ``"auto"`` resolves through :func:`resolve_engine_name` to the
vector engine for single-thread simulations and the batched engine
otherwise.  (The vector promotion is backed by the recorded benchmarks in
``benchmarks/BENCH_engine.json`` and the ``repro fuzz`` differential
soak; configurations outside the vector fast path delegate to solo.)
"""

from __future__ import annotations

from repro.cmp.engine.batched import BatchedEngine, CHUNK_SIZE
from repro.cmp.engine.common import EngineBase, freeze_count
from repro.cmp.engine.reference import ReferenceEngine
from repro.cmp.engine.scheduler import EventScheduler
from repro.cmp.engine.solo import SoloEngine
from repro.cmp.engine.vector import VectorEngine
from repro.config import (
    ENGINE_AUTO,
    ENGINE_BATCHED,
    ENGINE_REFERENCE,
    ENGINE_SOLO,
    ENGINE_VECTOR,
)

#: Simulation-semantics version, part of every campaign store key
#: (:mod:`repro.campaign.hashing`).  Bump whenever a change can alter
#: simulation *results* — timing recurrence, freeze rule, hierarchy
#: semantics — so stale cached results can never be mistaken for current
#: ones.  Version 1 was the seed hot loop; version 2 is the PR 1
#: ``anchor + count * base`` recurrence with integer freeze counts.  The
#: engine *choice* (reference / batched / solo / vector) is deliberately
#: not part of the version: the equivalence suites pin all engines
#: bit-identical.
ENGINE_VERSION = 2

#: Hot-path sources whose bytes are covered by the engine-version guard.
#: Paths are relative to ``src/``; edit the tuple when the hot path grows
#: a new module.
ENGINE_GUARDED_SOURCES = (
    "repro/cmp/engine/batched.py",
    "repro/cmp/engine/common.py",
    "repro/cmp/engine/reference.py",
    "repro/cmp/engine/scheduler.py",
    "repro/cmp/engine/solo.py",
    "repro/cmp/engine/vector.py",
    "repro/cache/state.py",
    "repro/cache/transitions.py",
    "repro/cache/cgen.py",
    "repro/cache/native.py",
    "repro/cache/cache.py",
    "repro/cache/hierarchy.py",
    "repro/cmp/memory.py",
)

#: sha256 over ``ENGINE_VERSION`` and the guarded sources, recorded so the
#: ``engine-version-guard`` lint rule can detect hot-path edits that ship
#: without an explicit version review.  Refresh (after bumping
#: ENGINE_VERSION when simulation results changed) with::
#:
#:     python -m repro lint --refresh-engine-checksum
ENGINE_SOURCE_CHECKSUM = "6bcbcfc49a102fd2f3bb0fd3ea5c252a6ea434075f5eced2362e431b58da7f43"

_ENGINES = {
    ENGINE_REFERENCE: ReferenceEngine,
    ENGINE_BATCHED: BatchedEngine,
    ENGINE_SOLO: SoloEngine,
    ENGINE_VECTOR: VectorEngine,
}


def resolve_engine_name(name: str, num_cores: int) -> str:
    """Concrete engine name for a configuration (resolves ``"auto"``).

    ``"auto"`` — the :class:`~repro.config.SimulationConfig` default —
    picks the window-at-a-time vector engine for single-thread simulations
    and the batched engine otherwise; explicit names pass through
    unchanged.  The vector engine delegates to solo for configurations
    outside its batched path (write traces, custom observers), so
    ``auto`` never loses correctness to the promotion — only the fast
    path widens.
    """
    if name == ENGINE_AUTO:
        return ENGINE_VECTOR if num_cores == 1 else ENGINE_BATCHED
    return name


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
    "SoloEngine",
    "VectorEngine",
    "freeze_count",
    "make_engine",
    "resolve_engine_name",
]
