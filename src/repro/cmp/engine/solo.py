"""Solo execution engine: heap-free single-thread fast path.

Single-thread runs — every campaign isolation job, every Figure 6 1-core
point — have no cross-thread ordering to preserve: there is exactly one
clock, so the scheduler's job degenerates to "process the trace in order".
This engine drops the heap entirely.  The whole trace is prefiltered
through the private L1 in bulk windows (the same
:func:`.common.l1_miss_window` the batched engine uses, window cache
included) and
only the **L2 miss stream** is walked, in a single locals-bound loop; the
clock advances by the shared ``anchor + count * base`` recurrence and
interval boundaries fire by pure cycle arithmetic.

Exactness argument (pinned by ``tests/test_cmp/test_solo_engine.py``):

* With one thread the reference engine's pop order is trace order, and the
  pop time of access ``i`` is the clock after access ``i - 1``.  Both
  engines evaluate that clock as the identical float expression
  ``anchor + count * base`` (:mod:`.common`), so every slow-path input —
  L2 lookup, memory-channel request time, freeze clock — is bit-equal.
* L1 hits touch no L2/profiling state and no shared-state event can
  intervene (there is no other thread), so committing a whole hit-streak
  as one arithmetic step is exact.
* Interval boundaries only interact with the run through the SDHs (read
  and halved at the boundary) and the partition scheme (read at L2
  accesses), both untouched by L1 hits.  Firing every crossed boundary at
  the next L2-reaching access's pop time — or at the freeze access's pop
  time for a trailing hit-streak — therefore fires the same boundaries, in
  the same order, against the same profiling state, interleaved with the
  same L2 accesses, as the reference's per-access checks.
* The run terminates at the freeze access (the reference loop's ``active``
  hits zero at the only thread's freeze), so no termination rollback is
  needed.

ATD profiling drains are deferred exactly as in the batched engine: the
thread's L2-reaching lines are buffered and drained through the batch
observe kernels at interval boundaries and run end (see
:func:`.common.deferrable_profiling` for when this engages).
"""

from __future__ import annotations

import math

from repro.cmp.engine.batched import CHUNK_SIZE
from repro.cmp.engine.common import (
    EngineBase,
    deferrable_profiling,
    l1_miss_window,
)
from repro.cmp.results import SimulationResult, ThreadResult


class SoloEngine(EngineBase):
    """Single-thread fast path: bulk L1 prefilter + miss-stream walk."""

    name = "solo"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        if self.n != 1:
            raise ValueError(
                f"the solo engine runs exactly one thread, got {self.n}; "
                f"use engine='batched' (or 'auto') for multi-core runs"
            )

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Walk the L2 miss stream until the thread's statistics freeze.

        See the module docstring for the exactness argument; the result is
        bit-identical to :meth:`ReferenceEngine.run`.
        """
        sim = self.sim
        trace = sim.traces[0]
        length = self.lengths[0]
        base = self.base_cost[0]
        freeze_at = self.freeze_counts[0]
        has_writes = self.has_writes
        l2_hit_pen = self.l2_hit_pen
        mem_pen = self.mem_pen
        channel = self.channel
        max_cycles = self.max_cycles

        controller = sim.controller
        interval = self.interval
        # math.inf when unpartitioned: one float compare per miss, no branch.
        next_boundary = interval if controller is not None else math.inf
        hierarchy = sim.hierarchy
        l1 = hierarchy.l1[0]
        l2 = hierarchy.l2
        l2_access_hit = l2.access_line_hit
        l2_access_rw = l2.access_line_rw
        l2_write_back = l2.write_back_line
        observer = hierarchy.l2_observer

        # Deferred ATD drains: buffer the L2-reaching lines, drain through
        # the batch observe kernel at boundaries and run end.  A custom
        # (non-ProfilingSystem) observer keeps immediate per-access calls.
        profiling = deferrable_profiling(sim)
        if profiling is not None:
            obs_buf: list = []
            record = obs_buf.append
            drain = profiling.monitors[0].atd.observe_many
        else:
            obs_buf = None
            drain = None
            if observer is not None:
                def record(line, _observe=observer):
                    _observe(0, line)
            else:
                record = None

        anchor = 0.0
        count = 0        # L1 hits committed since the last L2-reaching access
        done = 0         # accesses committed (== L1 accesses)
        slow = 0         # accesses that reached the L2 (== L1 misses)
        pos = 0          # trace position of the next access (wraps)
        clock = 0.0
        wb_l1_to_l2 = 0
        wb_l1_to_mem = 0

        # The isolation workload — unpartitioned, unobserved, read-only,
        # fixed-latency memory — gets a dedicated miss loop with every
        # generic branch compiled out.
        fast = (record is None and not has_writes and channel is None
                and controller is None and max_cycles is None)

        while True:
            end = min(length, pos + CHUNK_SIZE)
            n_chunk = end - pos
            # Only the miss positions are materialised as Python scalars —
            # the hits are pure clock arithmetic.
            window, lines = l1_miss_window(trace, l1, pos, end, has_writes)
            miss_offs = window.offs.tolist()
            miss_lines = lines.tolist()
            miss_victims = (window.victims.tolist()
                            if window.victims is not None else None)
            limit = freeze_at - done
            if limit > n_chunk:
                limit = n_chunk
            cursor = 0
            froze = False
            if fast:
                # Chunk-relative offset of the freeze access when the
                # budget lands in this window (-1 otherwise: no miss ever
                # matches).  A freeze on an L1 *hit* never matches either —
                # the trailing-hits block below commits it.
                freeze_off = limit - 1 if limit == freeze_at - done else -1
                for off, line in zip(miss_offs, miss_lines):
                    if off >= limit:
                        break
                    count += off - cursor
                    now = anchor + count * base
                    if l2_access_hit(line, 0):
                        clock = now + base + l2_hit_pen
                    else:
                        clock = now + base + mem_pen
                    anchor = clock
                    count = 0
                    slow += 1
                    cursor = off + 1
                    if off == freeze_off:
                        froze = True
                        break
                if froze:
                    done = freeze_at
                    break
                k = limit - cursor
                done += limit
                if k:
                    count += k
                    if done == freeze_at:
                        clock = anchor + count * base
                        break
                pos = end if end < length else 0
                continue
            for mi, off in enumerate(miss_offs):
                if off >= limit:
                    break
                k = off - cursor
                if k:
                    count += k
                now = anchor + count * base     # pop time of this access
                if now >= next_boundary:
                    if obs_buf:
                        drain(obs_buf)
                        del obs_buf[:]
                    while now >= next_boundary:
                        controller.interval_boundary(cycle=int(next_boundary))
                        next_boundary += interval
                line = miss_lines[mi]
                if miss_victims is not None:
                    victim = miss_victims[mi]
                    if victim >= 0:
                        if l2_write_back(victim, 0):
                            wb_l1_to_l2 += 1
                        else:
                            wb_l1_to_mem += 1
                if record is not None:
                    record(line)
                if has_writes:
                    hit2 = l2_access_rw(line, 0, False)
                else:
                    hit2 = l2_access_hit(line, 0)
                if hit2:
                    clock = now + base + l2_hit_pen
                elif channel is not None:
                    clock = channel.request(now + l2_hit_pen) + base
                else:
                    clock = now + base + mem_pen
                anchor = clock
                count = 0
                done += k + 1
                slow += 1
                cursor = off + 1
                if max_cycles is not None and now > max_cycles:
                    raise RuntimeError(
                        f"simulation exceeded max_cycles={max_cycles} with "
                        f"1 thread still running"
                    )
                if done == freeze_at:
                    froze = True
                    break
            if froze:
                break
            # Trailing hits of the window (up to the freeze access).
            k = limit - cursor
            if k:
                count += k
                done += k
                if done == freeze_at:
                    # The freeze access is an L1 hit.  Its pop time is the
                    # clock after its predecessor; fire the boundaries the
                    # reference's per-access checks would have caught first.
                    now = anchor + (count - 1) * base
                    if now >= next_boundary:
                        if obs_buf:
                            drain(obs_buf)
                            del obs_buf[:]
                        while now >= next_boundary:
                            controller.interval_boundary(
                                cycle=int(next_boundary))
                            next_boundary += interval
                    clock = anchor + count * base
                    if max_cycles is not None and now > max_cycles:
                        raise RuntimeError(
                            f"simulation exceeded max_cycles={max_cycles} "
                            f"with 1 thread still running"
                        )
                    break
            pos = end if end < length else 0

        if obs_buf:
            drain(obs_buf)
            del obs_buf[:]

        l2_stats = l2.stats
        thread = ThreadResult(
            name=trace.name,
            instructions=freeze_at * self.ipms[0],
            cycles=clock,
            l1_accesses=done,
            l1_misses=slow,
            l2_accesses=l2_stats.accesses[0],
            l2_misses=l2_stats.misses[0],
        )
        return self._assemble(
            [thread],
            l1_accesses=done,
            l1_writebacks=wb_l1_to_l2 + wb_l1_to_mem,
            memory_writebacks=l2_stats.total_writebacks + wb_l1_to_mem,
        )
