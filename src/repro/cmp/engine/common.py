"""Shared scaffolding of the CMP execution engines.

Both engines (reference, batched) simulate the identical
machine: the same per-thread analytic core model, the same shared hierarchy
objects, the same interval controller.  This module owns everything that
must be *equal by construction* between them so the equivalence suites
compare engines, not setup code:

* the timing recurrence.  A thread's clock is ``anchor + count * base_cost``
  where ``anchor`` is the clock after its last L2-reaching access and
  ``count`` the L1 hits committed since.  Written this way, advancing one
  hit at a time (reference) and keying a thread's next L2 access by the
  whole gap of hits before it (batched) evaluate the *same*
  floating-point expression, so the engines
  agree bit for bit even for non-dyadic ``ipm``/``cpi`` values;
* the freeze rule.  Statistics freeze on the access where the committed
  instruction count ``count * ipm`` first reaches the budget; the crossing
  access index is precomputed as an integer (:func:`freeze_count`) so both
  engines freeze on exactly the same access;
* result assembly (:class:`ThreadResult` / :class:`EventCounts`);
* the per-window L1-miss stream (:func:`l1_miss_window`) the batched
  engine walks, and the process-wide **window cache** behind it.

Window cache.  Everything in front of the shared L2 is private per core,
so a window's L1-miss stream is a pure function of the trace window and
the L1 contents before it — independent of the L2 configuration under
study.  A true-LRU state is fully determined by the last ``assoc``
distinct lines of each set, so from a trace's second pass on the state
before every window *recurs*, and every configuration of a sweep replays
the same windows.  :func:`l1_miss_window` therefore memoises the walk
under the key ``(trace fingerprint, pos, end, write mode, L1 geometry,
full L1 image)`` — the image itself (per-set stacks and dirty set,
:meth:`SmallLRUCache.snapshot`), never a hash of it or a window ordinal,
so equal keys mean equal inputs by construction.  A hit restores the L1
image and the ``CacheStats`` deltas the walk would have left into the
simulator's own L1 *in place*: the object is bit-for-bit what a walk
produces, there is no stale-L1 path.  Entries are compact numpy columns
(:class:`MissWindow`) in one cache bounded by :data:`WINDOW_CACHE_BYTES`;
a mix that outgrows the budget keeps a stable part of every thread's
sweep resident (:func:`_trim_window_cache`) and walks the rest as the
engines always did — never a different answer.  The counters
(:func:`window_cache_stats`) are observational and unkeyed.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.cache import CacheStats
from repro.cmp.memory import MemoryChannel
from repro.cmp.results import EventCounts, SimulationResult, ThreadResult
from repro.profiling.monitor import ProfilingSystem


def deferrable_profiling(sim) -> Optional[ProfilingSystem]:
    """The :class:`ProfilingSystem` behind the L2 observer, or ``None``.

    Deferred ATD drains only engage when the hierarchy's observer is the
    *stock* ``ProfilingSystem.observe`` of the simulator's own profiling
    system: its state is per-thread and read exclusively at controller
    boundaries and run end, which is what makes buffering exact.  A custom
    observer (tests, examples wiring their own callable) keeps immediate
    per-access calls — the engine cannot know when its state is read.
    """
    profiling = sim.profiling
    if profiling is None:
        return None
    observer = sim.hierarchy.l2_observer
    if observer is None:
        return None
    if getattr(observer, "__self__", None) is not profiling:
        return None
    if getattr(observer, "__func__", None) is not ProfilingSystem.observe:
        return None
    return profiling


#: Byte budget of the window cache.  Sized against the smallest resident
#: set that runs multi-core jobs in one process (a ``small``-scale figure
#: campaign peaks near 100 MB, and ``peak_rss_mb`` may grow by a tenth):
#: a whole mix at that scale is 1-3 MB of entries and fits.  A
#: ``paper``-scale trace (2 M references, 31 windows a pass) is 6-8 MB,
#: so those mixes are 13 MB (2 threads) to 60 MB (8) — every one over the
#: budget, where about budget / working set of the lookups still hit
#: (measured 50 % / 20 % / 9 % over six passes; plain LRU: 0 %).
WINDOW_CACHE_BYTES = 8 << 20

_STAT_FIELDS = CacheStats.__slots__


class MissWindow:
    """L1-miss stream of one trace window, as compact numpy columns.

    ``offs`` are the window-relative offsets of the references that miss
    the L1 and ``gaps[j]`` the L1 hits between miss ``j - 1`` (or the
    window start) and miss ``j``, both in the narrowest unsigned dtype
    that holds the window width; ``victims`` is the dirty L1 victim each
    miss displaced (``-1`` for none) when the run carries writes, else
    ``None``.  The miss *lines* are not stored — they are a gather of the
    trace the caller holds (:func:`l1_miss_window` returns them).
    ``l1_after`` / ``stats_delta`` are what the walk leaves in the L1.
    ``sampled`` maps an ATD sampling factor to the positions (in the miss
    stream) of the lines that fall in a sampled set; only
    :func:`l1_miss_window` adds to it, so ``nbytes`` — what the cache
    charges for the entry — is maintained in that one place.
    """

    __slots__ = ("offs", "gaps", "victims", "l1_after", "stats_delta",
                 "sampled", "nbytes")

    def __init__(self, offs: np.ndarray, victims: Optional[np.ndarray],
                 width: int, l1_before, l1_after,
                 stats_delta: Tuple[int, ...]) -> None:
        dtype = np.min_scalar_type(max(width - 1, 0))
        self.offs = offs.astype(dtype)
        self.gaps = (np.diff(offs, prepend=-1) - 1).astype(dtype)
        self.victims = victims
        self.l1_after = l1_after
        self.stats_delta = stats_delta
        self.sampled: Dict[int, np.ndarray] = {}
        # The two L1 images (``l1_before`` sits in the key) are Python
        # tuples; the estimate keeps the budget honest for tiny windows.
        self.nbytes = (512 + self.offs.nbytes + self.gaps.nbytes
                       + (victims.nbytes if victims is not None else 0)
                       + _image_bytes(l1_before) + _image_bytes(l1_after))


def _image_bytes(image) -> int:
    """Rough heap footprint of a :meth:`SmallLRUCache.snapshot` image."""
    stacks, dirty = image
    return (256 + sum(48 + 40 * len(ways) for ways in stacks)
            + 72 * len(dirty))


#: trace fingerprint -> (rest of the key -> window): the traces in the
#: order they were last looked up, a trace's windows in the order they
#: were last used.
_TRACES: "OrderedDict[str, OrderedDict[tuple, MissWindow]]" = OrderedDict()

#: Purely observational: nothing reads them back, and they live outside
#: every hot-path closure.
_WINDOW_STATS = {"lookups": 0, "hits": 0, "evictions": 0, "bytes": 0}


def window_cache_stats() -> dict:
    """``{lookups, hits, evictions, entries, bytes}`` of the window cache
    (a copy; ``bytes`` is the accounted size of the resident entries)."""
    stats = dict(_WINDOW_STATS)
    stats["entries"] = sum(map(len, _TRACES.values()))
    return stats


def clear_window_cache() -> None:
    """Drop every cached window and zero the counters."""
    _TRACES.clear()
    for name in _WINDOW_STATS:
        _WINDOW_STATS[name] = 0


def l1_miss_window(trace, l1, pos: int, end: int, has_writes: bool,
                   atd=None) -> Tuple[MissWindow, np.ndarray]:
    """Prefilter ``trace[pos:end]`` through the private ``l1`` in bulk.

    Returns the window's :class:`MissWindow` and the line addresses of
    its L1 misses (an int64 array; the hits between them are pure clock
    arithmetic).  Dirty victims only arise on miss fills, so the miss
    subset carries every write-back of the window.  With an ``atd``,
    ``window.sampled[atd.sampling]`` holds the ascending positions of the
    miss lines that land in a set the ATD samples: the sub-stream keeps
    the stream's order and the ATD ignores every other line, so feeding
    it ``lines[positions]`` and counting the rest as skipped equals
    feeding it the whole stream.

    Memoised in the window cache (module docstring): on a hit the L1 is
    not walked but left exactly as the walk would leave it.
    """
    lines = trace.chunk_view(pos, end - pos)
    geometry = l1.geometry
    before = l1.snapshot()
    fingerprint = trace.fingerprint()
    key = (pos, end, has_writes, geometry.num_sets, geometry.assoc, before)
    stats = l1.stats
    _WINDOW_STATS["lookups"] += 1
    windows = _TRACES.get(fingerprint)
    window = windows.get(key) if windows is not None else None
    resident = window is not None
    if resident:
        _WINDOW_STATS["hits"] += 1
        charge = 0
        l1.restore(window.l1_after)
        for name, delta in zip(_STAT_FIELDS, window.stats_delta):
            getattr(stats, name)[0] += delta
        lines = lines[window.offs]
    else:
        counts = [getattr(stats, name)[0] for name in _STAT_FIELDS]
        if not has_writes:
            miss_idx = np.flatnonzero(~l1.access_lines_hit(lines))
            victims = None
        else:
            writes = trace.writes[pos:end] if trace.writes is not None else None
            flags, victims = l1.access_lines_rw(lines, writes)
            miss_idx = np.flatnonzero(~flags)
            victims = victims[miss_idx]
        delta = tuple(getattr(stats, name)[0] - count
                      for name, count in zip(_STAT_FIELDS, counts))
        window = MissWindow(miss_idx, victims, end - pos, before,
                            l1.snapshot(), delta)
        charge = window.nbytes
        lines = lines[miss_idx]
    if atd is not None and atd.sampling not in window.sampled:
        positions = atd.sampled_positions(lines).astype(window.offs.dtype)
        window.sampled[atd.sampling] = positions
        window.nbytes += positions.nbytes
        charge += positions.nbytes
    # An entry larger than the whole budget would only flush the rest.
    if resident or window.nbytes <= WINDOW_CACHE_BYTES:
        if windows is None:
            windows = _TRACES[fingerprint] = OrderedDict()
        windows[key] = window
        windows.move_to_end(key)
        _TRACES.move_to_end(fingerprint)
        _WINDOW_STATS["bytes"] += charge
        _trim_window_cache()
    return window, lines


def _trim_window_cache() -> None:
    """Evict down to the budget: from the trace looked up longest ago,
    the window it used last.

    The traffic is a set of cyclic sweeps — every thread walks its
    trace's windows in order, pass after pass and configuration after
    configuration — so plain LRU would evict each window just before its
    next use once a mix outgrows the budget.  The window a trace used
    last is the one it needs again latest; taking it keeps a stable part
    of every sweep resident (for the inserting trace itself that window
    is the newcomer: the cache then simply stops admitting).  A trace no
    running simulation looks up any more goes first, and goes whole.
    """
    while _WINDOW_STATS["bytes"] > WINDOW_CACHE_BYTES:
        fingerprint, windows = next(iter(_TRACES.items()))
        _, evicted = windows.popitem()
        if not windows:
            del _TRACES[fingerprint]
        _WINDOW_STATS["bytes"] -= evicted.nbytes
        _WINDOW_STATS["evictions"] += 1


def freeze_count(budget: float, ipm: float) -> int:
    """Smallest access count ``c >= 1`` with ``c * ipm >= budget`` (in
    float arithmetic, so the comparison matches the engines' freeze test).
    """
    c = int(math.ceil(budget / ipm))
    if c < 1:
        c = 1
    while c > 1 and (c - 1) * ipm >= budget:
        c -= 1
    while c * ipm < budget:
        c += 1
    return c


class EngineBase:
    """Configuration-derived state shared by the execution engines."""

    def __init__(self, sim) -> None:
        self.sim = sim
        processor = sim.processor
        simulation = sim.simulation
        traces = sim.traces
        n = len(traces)
        self.n = n
        self.base_cost: List[float] = [t.ipm * t.cpi_base for t in traces]
        self.ipms: List[float] = [t.ipm for t in traces]
        self.lengths: List[int] = [len(t) for t in traces]
        self.has_writes = any(t.writes is not None for t in traces)

        per_thread = simulation.per_thread_instructions
        if per_thread is not None:
            if len(per_thread) != n:
                raise ValueError(
                    f"per_thread_instructions has {len(per_thread)} entries "
                    f"for {n} threads"
                )
            budgets = [float(b) for b in per_thread]
        else:
            budgets = [
                float(min(simulation.instructions_per_thread, t.instructions))
                for t in traces
            ]
        self.freeze_counts: List[int] = [
            freeze_count(budget, trace.ipm)
            for budget, trace in zip(budgets, traces)
        ]

        self.l2_hit_pen = float(processor.l2_hit_penalty)
        self.mem_pen = float(processor.l2_hit_penalty + processor.memory_penalty)
        self.channel: Optional[MemoryChannel] = None
        if simulation.memory_service_interval > 0:
            self.channel = MemoryChannel(simulation.memory_service_interval,
                                         float(processor.memory_penalty))
        self.interval = float(sim.partitioning.interval_cycles)
        self.max_cycles = simulation.max_cycles

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the simulation until every thread's statistics freeze.

        Engines must produce *identical* :class:`SimulationResult` values
        for identical inputs — the contract the equivalence suite pins.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _assemble(self, frozen: Sequence[Optional[ThreadResult]],
                  l1_accesses: int, l1_writebacks: int,
                  memory_writebacks: int) -> SimulationResult:
        """Build the :class:`SimulationResult` from engine-side counters."""
        sim = self.sim
        l2_stats = sim.hierarchy.l2.stats
        atd_accesses = 0
        if sim.profiling is not None:
            atd_accesses = sum(
                m.atd.sampled_accesses for m in sim.profiling.monitors
            )
        controller = sim.controller
        events = EventCounts(
            l1_accesses=l1_accesses,
            l2_accesses=l2_stats.total_accesses,
            l2_hits=l2_stats.total_hits,
            l2_misses=l2_stats.total_misses,
            atd_accesses=atd_accesses,
            repartitions=controller.repartitions if controller else 0,
            wall_cycles=max(r.cycles for r in frozen if r is not None),
            l1_writebacks=l1_writebacks,
            memory_writebacks=memory_writebacks,
            memory_queue_cycles=self.channel.queue_cycles if self.channel else 0.0,
        )
        history = list(controller.history) if controller is not None else []
        return SimulationResult(
            acronym=sim.partitioning.acronym,
            threads=[r for r in frozen if r is not None],
            events=events,
            partition_history=history,
        )
