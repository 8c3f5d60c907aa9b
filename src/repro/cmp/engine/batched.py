"""Batched execution engine: bulk L1 prefilter + miss-stream event loop.

The key observation: the private L1s interact with nothing shared.  A
thread's L1 hit/miss outcome for every reference is a pure function of its
own reference stream, so it is computed *in bulk* ahead of time, one
window of :data:`CHUNK_SIZE` references per call of the L1's ``prefilter``
kernel (:meth:`repro.cache.l1.SmallLRUCache.access_lines_hit`).  Of each
window the engine keeps only the **L1-miss stream** the kernel writes —
the lines that reach the shared L2 and the number of L1 hits (the *gap*)
preceding each — and schedules exactly one event per L2 access, at
``anchor + gap * base``: the reference engine's pop key
``(clock, thread)`` for that access.

It runs read-only traces of an L2 with a stock (policy, scheme) pair
under stock profiling or none, where the compiled ``loop`` and
``prefilter`` load (:func:`batched_refusal`): every job of every figure.
Anything else is the reference engine's.

Exactness argument (pinned by ``tests/test_cmp/test_engine_equivalence.py``):

* **Folded gaps.**  L1 hits touch no shared state, so they need no event
  of their own.  The reference pops the access that follows ``gap`` hits
  at ``anchor + gap * base`` (:mod:`.common`); this engine evaluates the
  identical float expression, with the gap accumulated across window
  seams and trace wraps, so the L2 accesses and memory-channel requests
  of all threads execute in the same total ``(clock, thread)`` order
  with bit-equal clocks.
* **Freeze-hit event.**  A thread's freeze access must commit in exact
  global order (it may end the run).  When it is an L2 access it already
  is an event.  When it is the ``h``-th L1 hit of a gap it becomes the
  only kind of non-L2 event: it pops at its own key
  ``anchor + (h - 1) * base``, freezes at ``anchor + h * base``, and the
  thread is then rescheduled for the L2 access that ends the gap.
* **Boundary placement.**  Interval boundaries fire while the popped clock
  has crossed them (catch-up ``while``).  No L2 access has a key between a
  boundary and the first pop at or after it, so every repartition precedes
  the same L2 accesses as in the reference loop; the final (freeze) event
  fires every boundary it crossed, as the reference's last pop does.
* **Sliced ATD drains.**  Each core's ATD observes only its own thread's
  stream and is read only at controller boundaries and run end, so stock
  profiling (:func:`.common.deferrable_profiling`) is *deferred*: the
  executed part of each miss stream, ``lines[drained:cursor]``, drains
  through ``atd.observe_many`` right before every boundary, at the
  thread's freeze, when its window is replaced, and at run end.
  Per-thread order is the stream's order; cross-thread drain order is
  immaterial because the ATDs are disjoint.  ``observe_many`` is the
  ATD's compiled ``observe`` kernel (or whatever replaced it), which
  works on the ATD's arrays in place: between two drains the truth is
  the ATD itself, which is what the controller reads, halves and resets.
* **Sampled sub-stream.**  A 1-in-N sampled ATD ignores every line
  outside its sampled sets, only counting it.  A drain hands it the
  whole slice, as an ``array('q')``, and the kernel's own ``skip_mask``
  test counts the unsampled lines, the way the hardware decodes sampling
  from index bits.
* **Parked threads.**  After a whole trace pass without an L1 miss the L1
  contents can never change again (hits install nothing), so the thread
  has no further L2 access: it gets its freeze-hit event if still due,
  then parks at ``+inf``.
* **Fixed windows.**  A walk is a pure function of the L1 slots and the
  window (a read walk leaves the dirty flags all zero).  So when a
  whole-trace window (a trace of at most :data:`CHUNK_SIZE` references)
  leaves the slots as it found them, every later pass would walk the
  same window from the same slots: the engine keeps that walk's columns
  and hands them out again, adding to the L1's ``CacheStats`` what a walk
  would (``length`` accesses, the misses, no invalid fill — an invalid
  fill changes the slots).  The check is what makes it exact; true LRU
  only makes it early: one pass leaves each set holding the last
  ``assoc`` distinct lines it saw (all of them, if fewer), whatever it
  started with, so a thread's second walk already passes the check.
* **One clock per thread.**  The pending events are ``clocks``, one
  ``array('d')`` slot per thread: the loop stores the thread's next key
  in its slot and runs the thread with the least clock, the lowest index
  among equal ones (strict ``<``) — the ``(clock, thread)`` order of the
  reference engine's heap.  A parked thread's slot holds ``+inf``.
* **One thread.**  Nothing above assumes a second thread.  With ``n == 1``
  — every isolation job, every 1-core figure point — the arg-min has one
  slot to look at, the loop returns to Python once per window
  (``resume``) and the termination rollback has nobody to visit; there
  is no separate single-thread engine.
* **Fused L2 access.**  The loop itself is the ``loop`` rendering of
  :mod:`repro.cache.transitions`, the L2 transition inlined; its float
  expressions and ``(clock, thread)`` order are the reference engine's,
  and its per-thread access count is settled in ``drain``, like the
  ATDs.  It works by address on the clocks and cursors it shares with
  the shell's call-outs (``array('q')`` / ``array('d')``) and on the
  ``int64`` miss-stream columns the prefilter wrote.
* **Termination rollback.**  The reference stops right after the last
  freeze access.  Accesses of other threads ordering after that key were
  never executed there; only the L1 hits of each thread's pending gap can
  be affected (its pending L2 access never ran), so a binary
  search over the gap's pop keys counts the hits that did commit.
"""

from __future__ import annotations

import math
from array import array
from typing import List, Optional

import numpy as np

from repro.cache import transitions
from repro.cache.state import rendered_key
from repro.cmp.engine.common import EngineBase, deferrable_profiling
from repro.cmp.results import SimulationResult, ThreadResult

#: References prefiltered per bulk L1 call.  Bounds the miss-stream
#: columns (a few hundred KB per thread) while amortising the call.
CHUNK_SIZE = 1 << 16

_NO_MISSES = np.empty(0, dtype=np.int64)


def batched_refusal(sim) -> Optional[str]:
    """Why :class:`BatchedEngine` cannot run ``sim`` exactly, or None:
    read off the simulator and this host, never an option."""
    from repro.cache import native          # ctypes + cc: first use

    hierarchy = sim.hierarchy
    l2 = hierarchy.l2
    key = rendered_key(l2)
    if key is None:
        if "access_line_hit" in vars(l2):
            return "the L2's access_line_hit is rebound"
        scheme = type(l2.partition).__name__ if l2.partition else "none"
        return (f"no rendering of the L2's {type(l2.policy).__name__} "
                f"with scheme {scheme}")
    if any(trace.writes is not None for trace in sim.traces):
        return "a trace writes"
    if (hierarchy.l2_observer is not None
            and deferrable_profiling(sim) is None):
        return "a custom L2 observer"
    for rendering, kernel in (("loop", key),
                              ("prefilter", transitions.PREFILTER_KEY)):
        loaded, info = native.load(rendering, kernel)
        if loaded is None:
            return f"no compiled {rendering}: {info['reason']}"
    return None


class BatchedEngine(EngineBase):
    """One event per L2 access over the bulk-prefiltered miss streams."""

    name = "batched"

    def __init__(self, sim) -> None:
        refusal = batched_refusal(sim)
        if refusal is not None:
            raise ValueError(f"the batched engine cannot run this "
                             f"simulation: {refusal}")
        super().__init__(sim)
        n = self.n
        # Per-thread prefilter window.  ``pos`` is the trace position after
        # it, ``upto`` the references through the thread's last L2 access
        # before it and ``tail`` the L1 hits after the window's last miss
        # (all hits since that L2 access while the window has no miss).
        # ``span`` counts the window's references through its last miss
        # (so the next window's ``upto`` is ``upto + span``).
        # ``lines`` are the addresses of its L1 misses, ``gaps[j]`` the L1
        # hits preceding miss ``j`` (int64 columns the loop reads).
        self._ck_pos = [0] * n
        self._ck_upto = [0] * n
        self._ck_span = [0] * n
        self._ck_tail = [0] * n
        self._ck_lines: List[np.ndarray] = [_NO_MISSES] * n
        self._ck_gaps: List[np.ndarray] = [_NO_MISSES] * n
        # Freeze access of the window, if any: at or in the gap before miss
        # ``fz_at`` (-2: none); ``fz_hit`` is 0 when it is that miss itself,
        # else its 1-based rank among the gap's hits.
        self._ck_fz_at = array("q", [-2]) * n
        self._ck_fz_hit = array("q", [0]) * n
        # ``(offs, gaps, lines, gaps[0])`` of a whole-trace window whose
        # walk left the L1 as it found it: every later pass's window.
        self._ck_fixed: List[Optional[tuple]] = [None] * n

    # ------------------------------------------------------------------
    def _load_chunk(self, t: int) -> bool:
        """Prefilter thread ``t``'s next window into its L1-miss stream.

        Returns ``False`` once a whole trace pass went by without a miss:
        the footprint is L1-resident, so the "window" is just the hits up
        to the freeze access (if still ahead) and holds no L2 access.
        """
        length = self.lengths[t]
        carry = self._ck_tail[t]
        upto = self._ck_upto[t] + self._ck_span[t]
        to_freeze = self.freeze_counts[t] - upto - carry
        streaming = carry < length
        if streaming:
            pos = self._ck_pos[t]
            end = min(length, pos + CHUNK_SIZE)
            width = end - pos
            l1 = self.sim.hierarchy.l1[t]
            fixed = self._ck_fixed[t]
            if fixed is not None:
                # What the walk would return and add (module docstring).
                offs, gaps, lines, first = fixed
                gaps[0] = first
                l1.stats.accesses[0] += length
                l1.stats.misses[0] += len(lines)
            else:
                before = l1._slots[:] if width == length else None
                window = self.sim.traces[t].chunk_view(pos, width)
                offs, gaps, lines = l1.access_lines_hit(window)
                # (A pass without a miss parks the thread instead.)
                if len(lines) and before == l1._slots:
                    self._ck_fixed[t] = (offs, gaps, lines, int(gaps[0]))
            if len(gaps):
                gaps[0] += carry
            self._ck_lines[t] = lines
            self._ck_pos[t] = end if end < length else 0
        else:
            offs = gaps = self._ck_lines[t] = _NO_MISSES
            width = max(to_freeze, 0)
        fz_at, fz_hit = -2, 0
        if 0 < to_freeze <= width:
            fz_at = int(np.searchsorted(offs, to_freeze - 1))
            if fz_at == len(offs) or offs[fz_at] != to_freeze - 1:
                fz_hit = (to_freeze - 1 - int(offs[fz_at - 1]) if fz_at
                          else carry + to_freeze)
        tail = width - int(offs[-1]) - 1 if len(offs) else carry + width
        self._ck_upto[t] = upto
        self._ck_span[t] = carry + width - tail
        self._ck_tail[t] = tail
        self._ck_gaps[t] = gaps
        self._ck_fz_at[t] = fz_at
        self._ck_fz_hit[t] = fz_hit
        return streaming

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the L2 accesses of all threads in exact global order.

        See the module docstring for the exactness argument; the result is
        bit-identical to :meth:`ReferenceEngine.run`.
        """
        sim = self.sim
        n = self.n
        base = self.base_cost
        freeze_counts = self.freeze_counts
        l2_hit_pen = self.l2_hit_pen
        mem_pen = self.mem_pen
        max_cycles = self.max_cycles
        # math.inf when unset: one float compare per pop, no branch.
        cycle_cap = max_cycles if max_cycles is not None else math.inf
        controller = sim.controller
        interval = self.interval
        next_boundary = interval if controller is not None else math.inf
        hierarchy = sim.hierarchy
        l2 = hierarchy.l2
        l2_stats = l2.stats
        # Stock profiling (or none: the constructor refused any other
        # observer) drains in slices (module docstring).
        profiling = deferrable_profiling(sim)
        obs_drain = ([m.atd.observe_many for m in profiling.monitors]
                     if profiling is not None else None)
        loop = transitions.bind("loop", rendered_key(l2), l2, self.channel)
        l2_accesses = l2_stats.accesses

        lines = self._ck_lines
        gaps = self._ck_gaps
        fz_at = self._ck_fz_at
        fz_hit = self._ck_fz_hit
        base = array("d", base)
        load = self._load_chunk
        # Next pending miss (``~j`` while a freeze-hit waits), the cursor
        # value that needs the slow path, the clock after the thread's
        # last L2 access.
        cur = array("q", [0]) * n
        stop = array("q", [0]) * n
        anchor = array("d", [0.0]) * n
        drained = [0] * n     # misses of the window the ATD has seen
        missed = [0] * n      # L1 misses in the windows before this one
        frozen: List[Optional[ThreadResult]] = [None] * n
        active = n

        def drain(u: int, j: int) -> None:
            # Settle what the loop defers for ``lines[u][drained[u]:j]``.
            d = drained[u]
            if j <= d:
                return
            drained[u] = j
            # The loop leaves the per-access count to here; nothing reads
            # it between two drains.
            l2_accesses[u] += j - d
            if obs_drain is not None:
                # The whole slice: the kernel counts the unsampled lines
                # (module docstring).
                obs_drain[u](array("q", lines[u][d:j].tobytes()))

        def beyond(now: float) -> float:
            """Rare path of a pop at or past the horizon — the earlier of
            the next boundary and the cycle cap; returns the new one."""
            nonlocal next_boundary
            if now >= next_boundary:
                # Drain the executed misses before the controller reads
                # the SDHs; then catch up on every crossed boundary.
                for u in range(n):
                    drain(u, cur[u] if cur[u] >= 0 else ~cur[u])
                while now >= next_boundary:
                    controller.interval_boundary(cycle=int(next_boundary))
                    next_boundary += interval
            if now > cycle_cap:
                raise RuntimeError(
                    f"simulation exceeded max_cycles={max_cycles} with "
                    f"{active} threads still running"
                )
            return min(next_boundary, cycle_cap)

        def freeze(t: int, clock: float, j: int) -> int:
            """Freeze thread ``t``; returns the threads still running."""
            nonlocal active
            drain(t, j)
            frozen[t] = ThreadResult(
                name=sim.traces[t].name,
                instructions=freeze_counts[t] * self.ipms[t],
                cycles=clock,
                l1_accesses=freeze_counts[t],
                l1_misses=missed[t] + j,
                l2_accesses=l2_stats.accesses[t],
                l2_misses=l2_stats.misses[t],
            )
            fz_at[t] = -2
            active -= 1
            return active

        def resume(t: int, j: int) -> float:
            """Key of thread ``t``'s next event after ``j`` window misses."""
            while True:
                if fz_at[t] == j and fz_hit[t]:
                    cur[t] = ~j
                    return anchor[t] + (fz_hit[t] - 1) * base[t]
                if j < len(lines[t]):
                    cur[t] = j
                    if fz_at[t] < j:
                        stop[t] = len(lines[t])
                    else:
                        stop[t] = fz_at[t] if fz_hit[t] else fz_at[t] + 1
                    return anchor[t] + gaps[t][j] * base[t]
                drain(t, j)
                missed[t] += j
                drained[t] = 0
                if not load(t) and fz_at[t] < 0:
                    cur[t] = 0
                    return math.inf
                j = 0

        # The first pop: the least clock, the lowest thread among equal
        # ones, as the loop's own arg-min (module docstring).
        clocks = array("d", [resume(t, 0) for t in range(n)])
        t = min(range(n), key=clocks.__getitem__)
        now, t = loop(
            clocks[t], t, clocks, n, min(next_boundary, cycle_cap),
            beyond, freeze, resume, cur, stop, anchor, lines, gaps,
            fz_at, fz_hit, base, l2_hit_pen, mem_pen)
        for u in range(n):
            if u != t:
                drain(u, cur[u])

        # Termination rollback (module docstring): count, per other thread,
        # the hits of its pending gap whose pop keys precede the final key.
        final_key = (now, t)
        l1_accesses = freeze_counts[t]
        for u in range(n):
            if u == t:
                continue
            j = cur[u]
            l1_accesses += self._ck_upto[u] + j + int(gaps[u][:j].sum())
            a0 = anchor[u]
            b = base[u]
            # A parked thread's gap is unbounded; any count past the final
            # key bounds the search.
            lo, hi = 0, (int(gaps[u][j]) if j < len(gaps[u])
                         else int((now - a0) / b) + 2)
            while lo < hi:
                mid = (lo + hi) // 2
                if (a0 + mid * b, u) > final_key:
                    hi = mid
                else:
                    lo = mid + 1
            l1_accesses += lo

        return self._assemble(
            frozen,
            l1_accesses=l1_accesses,
            l1_writebacks=0,
            memory_writebacks=l2_stats.total_writebacks,
        )
