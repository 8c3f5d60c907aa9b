"""Batched execution engine: bulk L1 prefilter + miss-stream event loop.

The key observation: the private L1s interact with nothing shared.  A
thread's L1 hit/miss outcome for every reference is a pure function of its
own reference stream, so it is computed *in bulk* ahead of time, one
window of :data:`CHUNK_SIZE` references per call of the L1's ``prefilter``
kernel (:meth:`repro.cache.l1.SmallLRUCache.access_lines_hit`).  Of each
window the engine keeps only the **L1-miss stream** the kernel writes
into the thread's row of the run's buffer — the lines that reach the
shared L2 and the L1 hits (the *gap*) preceding each — and schedules
exactly one event per L2 access, at ``anchor + gap * base``: the
reference engine's pop key ``(clock, thread)`` for that access.

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
  global order (it may end the run).  One countdown per thread, ``left``,
  finds it: it starts at the freeze count and each executed L2 access
  takes off itself and the hits before it, so it counts the references
  from just after the thread's last L2 access through its freeze
  access.  When an access leaves it 0, that access was the freeze.
  When it leaves ``h`` with ``0 < h <= gap`` for the pending gap, the
  freeze is the ``h``-th L1 hit of that gap and becomes the only kind
  of non-L2 event: it pops at its own key ``anchor + (h - 1) * base``,
  freezes at ``anchor + h * base``, and the thread is then rescheduled
  for the L2 access that ends the gap.
* **Boundary placement.**  Interval boundaries fire while the popped clock
  has crossed them (catch-up ``while``).  No L2 access has a key between a
  boundary and the first pop at or after it, so every repartition precedes
  the same L2 accesses as in the reference loop; the final (freeze) event
  fires every boundary it crossed, as the reference's last pop does.
* **Sliced ATD drains.**  Each core's ATD observes only its own thread's
  stream and is read only at controller boundaries and run end, so stock
  profiling (:func:`.common.deferrable_profiling`) is *deferred*: the
  executed part of each miss stream, ``lines[t, drained:cursor]`` (a
  view), drains through ``atd.observe_many`` right before every
  boundary, at the thread's freeze, when its window is replaced, and at
  run end.
  Per-thread order is the stream's order; cross-thread drain order is
  immaterial because the ATDs are disjoint.  ``observe_many`` is the
  ATD's compiled ``observe`` kernel (or whatever replaced it), which
  works on the ATD's arrays in place: between two drains the truth is
  the ATD itself, which is what the controller reads, halves and resets.
* **Sampled sub-stream.**  A 1-in-N sampled ATD ignores every line
  outside its sampled sets, only counting it.  A drain hands it the
  whole slice, and the kernel's own ``skip_mask``
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
  same window from the same slots: the walk's stream stays in the
  thread's row, the engine keeps its ``(misses, gaps[0], tail)`` and
  adds to the L1's ``CacheStats`` what a walk would (``length``
  accesses, the misses, no invalid fill — an invalid fill changes the
  slots).  The check is what makes it exact; true LRU
  only makes it early: one pass leaves each set holding the last
  ``assoc`` distinct lines it saw (all of them, if fewer), whatever it
  started with, so a thread's second walk already passes the check.
* **One clock per thread.**  The pending events are ``clocks``, one
  ``array('d')`` slot per thread: the loop stores the thread's next key
  in its slot and runs the thread with the least clock, the lowest index
  among equal ones (strict ``<``) — the ``(clock, thread)`` order of the
  reference engine's heap.  A parked thread's slot holds ``+inf``.
  The arg-min compares each clock's IEEE bits read as an ``int64``
  (``order_key``) with selects, where a branch on the doubles would
  mispredict at eight threads: every clock is +0.0, a positive finite
  double or ``+inf``, where the keys order exactly as the floats and tie
  only where they do.  An ``inf`` pop means every thread still
  running parked without its freeze: the run raises, naming them, where
  it would otherwise never end.
* **One thread.**  Nothing above assumes a second thread.  With ``n == 1``
  — every isolation job, every 1-core figure point — the arg-min has one
  slot to look at, the loop returns to its shell once per window and
  the termination rollback has nobody to visit; there is no separate
  single-thread engine.
* **Fused L2 access.**  The loop itself is the ``loop`` rendering of
  :mod:`repro.cache.transitions`, the L2 transition inlined; its float
  expressions and ``(clock, thread)`` order are the reference engine's,
  and its per-thread access count is settled in ``drain``, like the
  ATDs.  Bound once per run (:class:`repro.cache.transitions.LoopRun`),
  it works by address on the clocks and cursors it shares with this
  shell (``array('q')`` / ``array('d')``) and on the ``int64``
  miss-stream buffer the prefilter writes; a call passes two scalars.
  The buffer is the running thread's, kept between its runs
  (:func:`stream_buffer`): a run views a prefix of it, reads only what
  it wrote first, and faults in only pages no earlier run touched.
* **Returns, not call-backs.**  The compiled loop never runs Python: it
  returns to :meth:`BatchedEngine.run` at a pop that reaches the next
  boundary or passes the cycle cap (nothing executed: ``beyond`` drains,
  repartitions or raises), at a freeze (``freeze``) and at a window end
  (``resume`` loads the next window); the shell stores the thread's next
  key in ``clocks`` and calls it again, and the loop's arg-min picks the
  same pop as before the return.  A pop at the cap itself runs
  (``now > cap``), so a re-entry never hands the same pop back.
* **Termination rollback.**  The reference stops right after the last
  freeze access.  Accesses of other threads ordering after that key were
  never executed there; only the L1 hits of each thread's pending gap can
  be affected (its pending L2 access never ran).  A thread's references
  through its last L2 access are its freeze count less ``left``; a
  binary search over the pending gap's pop keys counts the hits that
  did commit.
"""

from __future__ import annotations

import math
import mmap
import threading
from array import array
from typing import List, Optional

import numpy as np

from repro.cache import transitions
from repro.cache.state import rendered_key
from repro.cmp.engine.common import EngineBase, deferrable_profiling
from repro.cmp.results import SimulationResult, ThreadResult

#: References prefiltered per bulk L1 call.  Bounds the miss-stream
#: buffer (a few hundred KB per thread) while amortising the call.
CHUNK_SIZE = 1 << 16

#: Each thread's miss-stream buffer (``map``), kept between its runs.
_BUFFERS = threading.local()


def stream_buffer(n: int, stride: int) -> np.ndarray:
    """This thread's miss-stream buffer as ``(2, n, stride)`` ``int64``:
    thread ``t``'s window is ``[:, t]``, ``gaps`` then ``lines``.

    One mapping per thread, grown (mapped afresh) only when a run needs
    more than every run before it on this thread, so a run faults in
    only the pages no earlier run wrote.  What a run reads it wrote
    first, so an earlier run's bytes change nothing.  Anonymous pages,
    not ``np.empty``: numpy advises huge pages for an allocation this
    large, and a row is written only as far as its windows' misses, so
    2 MB pages would make the unwritten rest resident.  Private pages: a
    forked child's writes stay its own.  Per thread, because the
    compiled kernels run without the GIL: two runs on two threads (a
    remote campaign's workers) each write their own buffer.
    """
    count = 2 * n * stride
    held = getattr(_BUFFERS, "map", None)
    if held is None or len(held) < count * 8:
        held = _BUFFERS.map = mmap.mmap(-1, count * 8,
                                        flags=mmap.MAP_PRIVATE)
    return np.frombuffer(held, dtype=np.int64, count=count).reshape(
        2, n, stride)


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
        # it and ``tail`` the L1 hits after the window's last miss (all hits
        # since the thread's last L2 access while the window has no miss).
        # ``misses`` counts its L1 misses (the loop's ``stop``): the
        # thread's row of the run's miss-stream buffer (``_stream``,
        # viewed by ``run``) holds their addresses (``lines``) and the
        # L1 hits preceding each (``gaps``).  ``left`` counts the
        # references from just after the thread's last L2 access through
        # its freeze access (the loop counts it down).
        self._ck_pos = [0] * n
        self._ck_tail = [0] * n
        self._ck_misses = array("q", [0]) * n
        self._ck_left = array("q", self.freeze_counts)
        # ``(misses, gaps[0], tail)`` of a whole-trace window whose walk
        # left the L1 as it found it: every later pass's window, left in
        # its row.
        self._ck_fixed: List[Optional[tuple]] = [None] * n
        self._stream = np.empty((2, n, 0), dtype=np.int64)

    # ------------------------------------------------------------------
    def _load_chunk(self, t: int) -> bool:
        """Prefilter thread ``t``'s next window into its L1-miss stream.

        Returns ``False`` once a whole trace pass went by without a miss:
        the footprint is L1-resident, so the thread has no further L2
        access, and its pending gap no end.
        """
        length = self.lengths[t]
        carry = self._ck_tail[t]
        if carry >= length:
            return False
        gaps = self._stream[0, t]
        pos = self._ck_pos[t]
        end = min(length, pos + CHUNK_SIZE)
        width = end - pos
        l1 = self.sim.hierarchy.l1[t]
        fixed = self._ck_fixed[t]
        if fixed is not None:
            # What the walk would return and add (module docstring).
            misses, gaps[0], tail = fixed
            l1.stats.accesses[0] += length
            l1.stats.misses[0] += misses
        else:
            before = l1._slots[:] if width == length else None
            window = self.sim.traces[t].chunk_view(pos, width)
            stream = l1.access_lines_hit(window, self._stream[:, t])
            misses, tail = len(stream.gaps), stream.tail
            # (A pass without a miss parks the thread instead.)
            if misses and before == l1._slots:
                self._ck_fixed[t] = misses, int(gaps[0]), tail
        if misses:
            gaps[0] += carry
        else:
            tail += carry
        self._ck_pos[t] = end if end < length else 0
        self._ck_tail[t] = tail
        self._ck_misses[t] = misses
        return True

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
        l2_accesses = l2_stats.accesses

        # Thread ``t``'s window is ``stream[:, t]``, as wide as the
        # widest window.
        stride = min(CHUNK_SIZE, max(self.lengths))
        stream = self._stream = stream_buffer(n, stride)
        gaps, lines = stream
        misses = self._ck_misses
        tails = self._ck_tail
        left = self._ck_left
        base = array("d", base)
        load = self._load_chunk
        clocks = array("d", [0.0]) * n
        # Next pending miss (``~j`` while a freeze-hit waits), the clock
        # after the thread's last L2 access.
        cur = array("q", [0]) * n
        anchor = array("d", [0.0]) * n
        loop = transitions.bind(
            "loop", rendered_key(l2), l2, self.channel, transitions.LoopRun(
                n, stride, l2_hit_pen, mem_pen, lines.reshape(-1),
                gaps.reshape(-1), clocks, cur, misses, anchor, left, base))
        drained = [0] * n     # misses of the window the ATD has seen
        missed = [0] * n      # L1 misses in the windows before this one
        frozen: List[Optional[ThreadResult]] = [None] * n
        active = n

        def drain(u: int, j: int) -> None:
            # Settle what the loop defers for ``lines[u, drained[u]:j]``.
            d = drained[u]
            if j <= d:
                return
            drained[u] = j
            # The loop leaves the per-access count to here; nothing reads
            # it between two drains.
            l2_accesses[u] += j - d
            if obs_drain is not None:
                # The whole slice, a view of the buffer: the kernel counts
                # the unsampled lines (module docstring).
                obs_drain[u](lines[u, d:j])

        def beyond(t: int, now: float) -> None:
            """Thread ``t``'s pop at ``now``, at or past the next boundary
            or past the cycle cap."""
            nonlocal next_boundary
            if now == math.inf:
                # Every thread still running has parked: no event is
                # left, so no freeze can end the run.
                running = ", ".join(f"{u} ({sim.traces[u].name})"
                                    for u in range(n) if frozen[u] is None)
                raise RuntimeError(f"every event was spent before all "
                                   f"threads froze; never froze: {running}")
            if now >= next_boundary:
                # Drain the executed misses before the controller reads
                # the SDHs; then catch up on every crossed boundary.
                for u in range(n):
                    drain(u, cur[u] if cur[u] >= 0 else ~cur[u])
                while now >= next_boundary:
                    controller.interval_boundary(cycle=int(next_boundary))
                    next_boundary += interval
            if now > cycle_cap:
                # The reference raises after running the pop: its freeze
                # leaves one thread fewer running.
                j = cur[t]
                freezing = j < 0 or left[t] == gaps[t, j] + 1
                raise RuntimeError(
                    f"simulation exceeded max_cycles={max_cycles} with "
                    f"{active - freezing} threads still running"
                )

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
            active -= 1
            return active

        def resume(t: int, j: int) -> float:
            """Key of thread ``t``'s next event after ``j`` window misses."""
            while j == misses[t]:
                drain(t, j)
                missed[t] += j
                drained[t] = 0
                j = 0
                streaming = load(t)
                # The loop's freeze test, for the gap before the fresh
                # window's first miss: the window's tail if it has none,
                # and without end once the thread has parked.
                gap = ((gaps[t, 0] if misses[t] else tails[t]) if streaming
                       else math.inf)
                if frozen[t] is None and 0 < left[t] <= gap:
                    cur[t] = ~0
                    return anchor[t] + (left[t] - 1) * base[t]
                if not streaming:
                    cur[t] = 0
                    return math.inf
            cur[t] = j
            return anchor[t] + gaps[t, j] * base[t]

        # The loop returns where the shell has work (``TEMPLATES["loop"]``):
        # a boundary or the cap (2), a freeze (1), a window end (0).
        for t in range(n):
            clocks[t] = resume(t, 0)
        while True:
            t, clock, event = loop(next_boundary, cycle_cap)
            if event == 2:
                beyond(t, clock)
                continue
            if event == 1 and not freeze(t, clock, cur[t]):
                break
            clocks[t] = resume(t, cur[t])
        now = clocks[t]
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
            l1_accesses += freeze_counts[u] - left[u]
            a0 = anchor[u]
            b = base[u]
            # A parked thread's gap is unbounded; any count past the final
            # key bounds the search.
            lo, hi = 0, (int(gaps[u, j]) if j < misses[u]
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
