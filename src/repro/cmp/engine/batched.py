"""Batched execution engine: bulk L1 prefilter + miss-stream event loop.

The key observation: the private L1s interact with nothing shared.  A
thread's L1 hit/miss outcome for every reference is a pure function of its
own reference stream, so it is computed *in bulk* ahead of time
(:func:`.common.l1_miss_window`), one window of :data:`CHUNK_SIZE`
references at a time — and only once per (trace window, L1 state): the
window cache in :mod:`.common` replays it for every later pass over the
trace and every other configuration of the mix.  Of each window the
engine keeps only the **L1-miss stream** — the lines that reach the
shared L2 and the number of L1 hits (the *gap*) preceding each — and
schedules exactly one heap event per L2 access:
``(anchor + gap * base, thread)``, the reference engine's pop key for
that access.

Exactness argument (pinned by ``tests/test_cmp/test_engine_equivalence.py``):

* **Folded gaps.**  L1 hits touch no shared state, so they need no event
  of their own.  The reference pops the access that follows ``gap`` hits
  at ``anchor + gap * base`` (:mod:`.common`); this engine evaluates the
  identical float expression, with the gap accumulated across window
  seams and trace wraps, so the L2 accesses, write-back drains and
  memory-channel requests of all threads execute in the same total
  ``(clock, thread)`` order with bit-equal clocks.
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
  through the batch observe kernels right before every boundary, at the
  thread's freeze, when its window is replaced, and at run end.
  Per-thread order is the stream's order; cross-thread drain order is
  immaterial because the ATDs are disjoint.  The kernel is this run's own
  bind of the ATD's ``observe`` rendering, made where the loop is bound
  and installed behind ``atd.observe_many`` for the length of the run
  (:class:`repro.cache.state.DrainKernel`): compiled wherever the loop
  is, it copies the ATD's lists in and out once per drain — between two
  drains the truth is always the ATD's own lists and dict, which is what
  the controller reads, halves and resets — so a batch shorter than the
  directory it would copy is drained by the Python rendering instead,
  and an ATD whose ``observe_many`` somebody replaced is drained as it
  stands.
* **Sampled sub-stream.**  A 1-in-N sampled ATD ignores every line
  outside its sampled sets (it only counts them), so a drain hands the
  kernel just the slice's *sampled* lines — the window's cached
  sampled positions cut by two bisects, an order-preserving
  sub-sequence — and adds the others to ``skipped_accesses``
  arithmetically: tag state, SDH registers and both counters equal the
  unfiltered drain's.
* **Parked threads.**  After a whole trace pass without an L1 miss the L1
  contents can never change again (hits install nothing), so the thread
  has no further L2 access: it gets its freeze-hit event if still due,
  then parks at ``+inf``.
* **One thread.**  Nothing above assumes a second thread.  With ``n == 1``
  — every isolation job, every 1-core figure point — the heap is empty
  after the first pop, ``heappushpop`` hands each event straight back,
  the loop returns to Python once per window (``resume``) and the
  termination rollback has nobody to visit; there is no separate
  single-thread engine.
* **Fused L2 access.**  The loop itself is the ``loop`` rendering of
  :mod:`repro.cache.transitions`: for a stock (policy, scheme) pair the
  L2 transition is inlined from the same fragments ``access_line_hit``
  is rendered from, so only *how the hit/miss bit is computed* differs
  from the call form; the float expressions and the ``(clock, thread)``
  pops are one template.  Its per-thread access count is settled in
  ``drain``, like the ATDs.
* **Termination rollback.**  The reference stops right after the last
  freeze access.  Accesses of other threads ordering after that key were
  never executed there; only the L1 hits of each thread's pending gap can
  be affected (its pending L2 access is still in the heap), so a binary
  search over the gap's pop keys counts the hits that did commit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from heapq import heapify, heappop, heappushpop
from typing import List, Optional

import numpy as np

from repro.cache import transitions
from repro.cache.state import rendered_drain_kernel, rendered_key
from repro.cmp.engine.common import (
    EngineBase,
    deferrable_profiling,
    l1_miss_window,
)
from repro.cmp.results import SimulationResult, ThreadResult

#: References prefiltered per bulk L1 call.  Bounds the flag/victim arrays
#: (a few hundred KB per thread) while amortising the numpy fixed costs.
CHUNK_SIZE = 1 << 16

_NO_MISSES = np.empty(0, dtype=np.int64)


class BatchedEngine(EngineBase):
    """One heap event per L2 access over the bulk-prefiltered miss streams."""

    name = "batched"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        n = self.n
        # Per-thread prefilter window.  ``pos`` is the trace position after
        # it, ``upto`` the references through the thread's last L2 access
        # before it and ``tail`` the L1 hits after the window's last miss
        # (all hits since that L2 access while the window has no miss).
        # ``span`` counts the window's references through its last miss
        # (so the next window's ``upto`` is ``upto + span``).
        # ``lines``/``victims`` are the addresses and displaced dirty lines
        # of its L1 misses, ``gaps[j]`` the L1 hits preceding miss ``j``.
        self._ck_pos = [0] * n
        self._ck_upto = [0] * n
        self._ck_span = [0] * n
        self._ck_tail = [0] * n
        self._ck_lines: List[list] = [[] for _ in range(n)]
        self._ck_victims: List[Optional[list]] = [None] * n
        self._ck_gaps: List[list] = [[] for _ in range(n)]
        # Deferred profiling (set by ``run``): per thread its ATD, the
        # positions in ``lines`` that fall in a sampled ATD set, and those
        # lines themselves.
        self._atds: Optional[list] = None
        self._ck_spos: List[list] = [[] for _ in range(n)]
        self._ck_slines: List[list] = [[] for _ in range(n)]
        # Freeze access of the window, if any: at or in the gap before miss
        # ``fz_at`` (-2: none); ``fz_hit`` is 0 when it is that miss itself,
        # else its 1-based rank among the gap's hits.
        self._ck_fz_at = [-2] * n
        self._ck_fz_hit = [0] * n
        # Set by ``run``: a compiled loop reads the miss stream as int64
        # numpy columns (by pointer), the Python one as lists — and so,
        # per thread, does a compiled drain kernel its sampled lines.
        self._columns = False
        self._drain_columns = [False] * n

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
            atd = self._atds[t] if self._atds is not None else None
            window, lines = l1_miss_window(
                self.sim.traces[t], self.sim.hierarchy.l1[t], pos, end,
                self.has_writes, atd)
            offs = window.offs
            if self._columns:
                gaps = window.gaps.astype(np.int64)
                self._ck_lines[t] = np.ascontiguousarray(lines, np.int64)
            else:
                gaps = window.gaps.tolist()
                self._ck_lines[t] = lines.tolist()
            if len(gaps):
                gaps[0] += carry
            self._ck_victims[t] = (window.victims.tolist()
                                   if window.victims is not None else None)
            if atd is not None:
                positions = window.sampled[atd.sampling]
                self._ck_spos[t] = positions.tolist()
                sampled = lines[positions]
                self._ck_slines[t] = (
                    np.ascontiguousarray(sampled, np.int64)
                    if self._drain_columns[t] else sampled.tolist())
            width = end - pos
            self._ck_pos[t] = end if end < length else 0
        else:
            offs = _NO_MISSES
            gaps = self._ck_lines[t] = _NO_MISSES if self._columns else []
            self._ck_spos[t], self._ck_slines[t] = [], []
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
        has_writes = self.has_writes
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
        # Stock profiling drains in slices (module docstring); a custom
        # observer keeps immediate per-access calls.
        profiling = deferrable_profiling(sim)
        observe_now = hierarchy.l2_observer if profiling is None else None
        atds = self._atds = ([m.atd for m in profiling.monitors]
                             if profiling is not None else None)
        spos = self._ck_spos
        slines = self._ck_slines
        # The one loop source is the ``loop`` template of
        # repro.cache.transitions.  With the rendered kernel of a stock
        # (policy, scheme) pair still bound to the L2, a read-only run
        # without an immediate observer gets it with that pair's
        # transition inlined; every other run gets the call form.
        key = (rendered_key(l2)
               if not has_writes and observe_now is None else None)
        fused = key is not None
        loop = transitions.bind("loop", key, l2, self.channel)
        # The drains, by the same rule: an ATD whose ``observe_many``
        # still leads to the rendered batch kernel it bound for itself
        # runs, until this run ends, this run's own bind of that
        # rendering (compiled where the loop is: one state copy per
        # drain, its sampled lines handed over as int64 columns, batches
        # shorter than the directory left to the Python rendering); any
        # other is drained as it stands, with lists.
        obs_drain = None
        rendered = []
        self._drain_columns = [False] * n
        if atds is not None:
            obs_drain = [atd.observe_many for atd in atds]
            rendered = [(u, kernel) for u, kernel
                        in enumerate(map(rendered_drain_kernel, atds))
                        if kernel is not None]
        l2_accesses = l2_stats.accesses
        # A compiled loop shares the per-thread cursors with the closures
        # below as C-typed arrays and takes the miss stream as columns;
        # the Python loop works on lists.
        columns = self._columns = hasattr(loop, "ints")
        ints, floats = (loop.ints, loop.floats) if columns else (list, list)

        lines = self._ck_lines
        gaps = self._ck_gaps
        victims = self._ck_victims
        fz_at = self._ck_fz_at = ints(self._ck_fz_at)
        fz_hit = self._ck_fz_hit = ints(self._ck_fz_hit)
        base = floats(base)
        load = self._load_chunk
        cur = ints([0] * n)   # next pending miss; ``~j`` while a freeze-hit waits
        stop = ints([0] * n)  # cursor value that needs the slow path
        drained = [0] * n     # misses of the window the ATD has seen
        missed = [0] * n      # L1 misses in the windows before this one
        anchor = floats([0.0] * n)  # clock after the thread's last L2 access
        frozen: List[Optional[ThreadResult]] = [None] * n
        active = n

        def drain(u: int, j: int) -> None:
            # Settle what the loop defers for ``lines[u][drained[u]:j]``.
            d = drained[u]
            if j <= d:
                return
            drained[u] = j
            if fused:
                # The fused loop leaves the per-access count to here;
                # nothing reads it between two drains.
                l2_accesses[u] += j - d
            if obs_drain is not None:
                # Only the sampled lines reach the kernel; the rest are
                # counted (module docstring).
                lo = bisect_left(spos[u], d)
                hi = bisect_left(spos[u], j, lo)
                if hi > lo:
                    obs_drain[u](slines[u][lo:hi])
                atds[u].skipped_accesses += (j - d) - (hi - lo)

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

        try:
            for u, kernel in rendered:
                self._drain_columns[u] = kernel.install(
                    transitions.bind("observe", kernel.key, atds[u]))
            # Raw heapq over (clock, thread) pairs: the same exact order
            # as EventScheduler (see scheduler.py), without the
            # method-call layer.
            heap = [(resume(t, 0), t) for t in range(n)]
            heapify(heap)
            now, t = heappop(heap)
            now, t, wb_l1_to_l2, wb_l1_to_mem = loop(
                now, t, heap, heappushpop, min(next_boundary, cycle_cap),
                beyond, freeze, resume, cur, stop, anchor, lines, gaps,
                fz_at, fz_hit, base, l2_hit_pen, mem_pen, victims,
                has_writes, observe_now)
            for u in range(n):
                if u != t:
                    drain(u, cur[u])
        finally:
            # The ATDs go back to the kernel they keep for themselves.
            for _u, kernel in rendered:
                kernel.restore()

        # Termination rollback (module docstring): count, per other thread,
        # the hits of its pending gap whose pop keys precede the final key.
        final_key = (now, t)
        l1_accesses = freeze_counts[t]
        for u in range(n):
            if u == t:
                continue
            j = cur[u]
            hits = gaps[u][:j]
            l1_accesses += (self._ck_upto[u] + j
                            + (int(hits.sum()) if columns else sum(hits)))
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
            l1_writebacks=wb_l1_to_l2 + wb_l1_to_mem,
            memory_writebacks=l2_stats.total_writebacks + wb_l1_to_mem,
        )
