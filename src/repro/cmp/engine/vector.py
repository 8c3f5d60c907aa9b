"""Vector execution engine: window-at-a-time single-thread slow path.

This is what ``engine="auto"`` resolves to for single-thread runs (the
promotion is backed by the recorded engine benchmarks and the
``repro fuzz`` differential soak); configurations outside the batched
path below delegate to the solo engine.

The solo engine already commits L1 hit-streaks in bulk, but still walks
the L2 miss stream one access at a time — a Python loop iteration, a
kernel closure call and a handful of float operations per miss.  This
engine removes that per-miss interpreter work for the stretches where it
is provably unobservable.  It cuts the miss stream (the shared
:func:`.common.l1_miss_window`, window cache included) into
**boundary-free windows** (no controller interval boundary can fire
inside), hands each window whole and in trace order to a single
window-kernel call (:func:`repro.cache.state.build_set_run_kernel`: the
``window`` rendering of the policy's transition spec, or a loop over
``access_line_hit`` for a cache without one), and reconstructs the clock
for the whole window with one vectorised prefix sum.  Neither the engine
nor the kernel sorts or drops accesses.

Exactness argument (pinned by ``tests/test_cmp/test_vector_engine.py``):

* **Transitions.**  Within a boundary-free window nothing outside the
  cache reads or writes replacement/tag/partition state, so the window's
  state evolution is the per-access transition function iterated over
  the miss stream, in trace order.  The window kernel is that iteration
  with the transition inlined — rendered from the same fragments as the
  scalar hit kernel — or literally a loop over ``access_line_hit`` (so a
  policy without a flat-state kernel runs here too).
* **Timing.**  The shared recurrence ``now = anchor + count * base``,
  ``clock = now + base + penalty`` is a chain of dependent additions
  with one multiply per miss.  ``np.add.accumulate`` evaluates a strictly
  left-to-right chain, so laying the window out as
  ``[anchor, k0*base, base, pen0, k1*base, base, pen1, ...]`` reproduces
  the solo engine's float operations operation-for-operation — the nows
  and clocks are bit-equal, not just close.
* **Boundaries.**  Windows are cut with a pessimistic per-miss cost
  ceiling: a window only extends while an upper bound on each miss's pop
  time stays below the next boundary (with margin), so no boundary can
  fire inside a window.  Near a boundary the engine falls back to
  per-miss steps identical to the solo engine's loop body.
* **Observation.**  ATD drains are deferred exactly as in the solo
  engine: the buffered lines are appended in trace order and drained at
  boundaries and run end.

Configurations outside the batched path — write traces (write-backs
interleave with fills inside the miss stream) and custom observers
(per-access calls required) — delegate to the
:class:`~repro.cmp.engine.solo.SoloEngine`, which is bit-identical by
the existing equivalence suite.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cache.state import build_set_run_kernel
from repro.cmp.engine.batched import CHUNK_SIZE
from repro.cmp.engine.common import (
    EngineBase,
    clear_window_cache,
    deferrable_profiling,
    l1_miss_window,
    window_cache_stats,
)
from repro.cmp.engine.solo import SoloEngine
from repro.cmp.results import SimulationResult, ThreadResult

#: Safety margin applied to the pessimistic window bound before comparing
#: with the next boundary: the bound is computed with a different
#: operation order than the true pop times, so allow for relative float
#: error (generously) plus one absolute cycle.
_BOUND_SLACK = 1.0 + 1e-9


def memo_stats() -> dict:
    """Counters of the window cache (:func:`.common.window_cache_stats`),
    the one prefilter cache every engine shares, under ``window_cache``.
    The flat ``l1_hits`` / ``l1_misses`` (= lookups - hits) repeat them
    only because ``benchmarks/e2e/workloads.py`` reads these keys and
    only a benchmark PR may edit it — ROADMAP item 3 drops both."""
    cache = window_cache_stats()
    return {"l1_hits": cache["hits"],
            "l1_misses": cache["lookups"] - cache["hits"],
            "window_cache": cache}


def clear_memos() -> None:
    """Drop every cached window and zero the counters (test isolation,
    cold timings)."""
    clear_window_cache()


class VectorEngine(EngineBase):
    """Single-thread window-at-a-time fast path over the L2 miss stream."""

    name = "vector"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        if self.n != 1:
            raise ValueError(
                f"the vector engine runs exactly one thread, got {self.n}; "
                f"use engine='batched' (or 'auto') for multi-core runs"
            )

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Drain the L2 miss stream window-by-window until freeze.

        See the module docstring for the exactness argument; the result
        is bit-identical to :meth:`SoloEngine.run` (and therefore to the
        reference engine).
        """
        sim = self.sim
        hierarchy = sim.hierarchy
        l2 = hierarchy.l2
        profiling = deferrable_profiling(sim)
        observer = hierarchy.l2_observer
        if self.has_writes or (observer is not None and profiling is None):
            # Write traces interleave L1 write-backs (and dirty-eviction
            # accounting) inside the miss stream; a custom observer needs
            # a call per access.  Both are solo's territory.
            return SoloEngine(sim).run()
        kernel = build_set_run_kernel(l2)

        trace = sim.traces[0]
        length = self.lengths[0]
        base = self.base_cost[0]
        freeze_at = self.freeze_counts[0]
        l2_hit_pen = self.l2_hit_pen
        mem_pen = self.mem_pen
        channel = self.channel
        max_cycles = self.max_cycles

        controller = sim.controller
        interval = self.interval
        next_boundary = interval if controller is not None else math.inf
        l1 = hierarchy.l1[0]
        l2_access_hit = l2.access_line_hit

        if profiling is not None:
            obs_buf: list = []
            obs_extend = obs_buf.extend
            drain = profiling.monitors[0].atd.observe_many
        else:
            obs_buf = None
            obs_extend = None
            drain = None

        # Pessimistic per-miss cost ceiling for the window cut: base plus
        # the worst-case miss penalty.  With a memory channel a miss can
        # additionally wait for the queue, which drains at one service
        # per interval — accounted by seeding the bound with the queue's
        # current horizon and charging one service interval per miss.
        if channel is not None:
            cmax = base + l2_hit_pen + channel.latency + channel.service_interval
        else:
            cmax = base + mem_pen

        anchor = 0.0
        count = 0        # L1 hits committed since the last L2-reaching access
        done = 0         # accesses committed (== L1 accesses)
        slow = 0         # accesses that reached the L2 (== L1 misses)
        pos = 0          # trace position of the next access (wraps)
        clock = 0.0
        froze = False

        while True:
            end = min(length, pos + CHUNK_SIZE)
            n_chunk = end - pos
            window, miss_lines = l1_miss_window(trace, l1, pos, end, False)
            # Widened once: the cached column is uint16 at the default
            # window, too narrow for the bound and gap arithmetic below.
            miss_idx = window.offs.astype(np.int64)
            limit = freeze_at - done
            if limit > n_chunk:
                limit = n_chunk
            # Misses at or beyond the freeze access never execute.
            n_miss = int(np.searchsorted(miss_idx, limit, side="left"))
            cursor = 0
            mi = 0
            while mi < n_miss:
                offs = miss_idx[mi:n_miss]
                if controller is not None:
                    m0 = anchor
                    if channel is not None and channel._next_free > m0:
                        m0 = channel._next_free
                    bounds = (
                        m0
                        + (count - cursor + offs).astype(np.float64) * base
                        + np.arange(1, offs.size + 1, dtype=np.float64) * cmax
                    )
                    safe_n = int(np.searchsorted(
                        bounds * _BOUND_SLACK + 1.0, next_boundary,
                        side="left"))
                else:
                    safe_n = offs.size
                if safe_n == 0:
                    # Too close to a boundary for a window: take one miss
                    # with the solo engine's exact per-miss step.
                    off = int(offs[0])
                    k = off - cursor
                    if k:
                        count += k
                    now = anchor + count * base
                    if now >= next_boundary:
                        if obs_buf:
                            drain(obs_buf)
                            del obs_buf[:]
                        while now >= next_boundary:
                            controller.interval_boundary(
                                cycle=int(next_boundary))
                            next_boundary += interval
                    line = int(miss_lines[mi])
                    if obs_buf is not None:
                        obs_buf.append(line)
                    if l2_access_hit(line, 0):
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
                    mi += 1
                    if max_cycles is not None and now > max_cycles:
                        raise RuntimeError(
                            f"simulation exceeded max_cycles={max_cycles} "
                            f"with 1 thread still running"
                        )
                    if done == freeze_at:
                        froze = True
                        break
                    continue
                # --- one boundary-free window of safe_n misses ---------
                w_offs = offs[:safe_n]
                lines_list = miss_lines[mi:mi + safe_n].tolist()
                if obs_extend is not None:
                    obs_extend(lines_list)
                hit_flags = bytearray(safe_n)
                kernel(lines_list, hit_flags)
                hits8 = np.frombuffer(hit_flags, dtype=np.uint8)
                if channel is None:
                    # One prefix sum reproduces the per-miss recurrence
                    # float-op-for-float-op (see the module docstring).
                    steps = np.empty(3 * safe_n + 1, dtype=np.float64)
                    steps[0] = anchor
                    gaps = np.empty(safe_n, dtype=np.float64)
                    gaps[0] = count + (int(w_offs[0]) - cursor)
                    if safe_n > 1:
                        gaps[1:] = np.diff(w_offs)
                        gaps[1:] -= 1.0
                    steps[1::3] = gaps * base
                    steps[2::3] = base
                    steps[3::3] = np.where(hits8, l2_hit_pen, mem_pen)
                    acc = np.add.accumulate(steps)
                    clock = float(acc[-1])
                    last_now = acc[-3]
                else:
                    # Queue feedback is inherently sequential: replay the
                    # solo timing loop over the precomputed hit flags.
                    request = channel.request
                    hlist = hits8.tolist()
                    c = cursor
                    last_now = 0.0
                    for i, off in enumerate(w_offs.tolist()):
                        count += off - c
                        last_now = anchor + count * base
                        if hlist[i]:
                            clock = last_now + base + l2_hit_pen
                        else:
                            clock = request(last_now + l2_hit_pen) + base
                        anchor = clock
                        count = 0
                        c = off + 1
                last_off = int(w_offs[-1])
                done += last_off + 1 - cursor
                slow += safe_n
                cursor = last_off + 1
                count = 0
                anchor = clock
                mi += safe_n
                if max_cycles is not None and last_now > max_cycles:
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
                    # The freeze access is an L1 hit; fire the boundaries
                    # its pop time crossed, exactly as the solo engine.
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
            l1_writebacks=0,
            memory_writebacks=l2_stats.total_writebacks,
        )
