"""Vector execution engine: set-parallel single-thread slow path.

This is what ``engine="auto"`` resolves to for single-thread runs (the
promotion is backed by the recorded engine benchmarks and the
``repro fuzz`` differential soak); configurations outside the batched
path below delegate to the solo engine.

The solo engine already commits L1 hit-streaks in bulk, but still walks
the L2 miss stream one access at a time — a Python loop iteration, a
kernel closure call and a handful of float operations per miss.  This
engine removes that per-miss interpreter work for the stretches where it
is provably unobservable.  It cuts the miss stream into **boundary-free
windows** (no controller interval boundary can fire inside), analyses
each window *set-parallel* with numpy — a stable sort groups every set's
accesses while preserving within-set order — to **elide** the accesses
that are provably idempotent repeat hits, hands the surviving stream to
a single :func:`repro.cache.kernels.build_set_run_kernel` call, and
reconstructs the clock for the whole window with one vectorised prefix
sum.

Exactness argument (pinned by ``tests/test_cmp/test_vector_engine.py``):

* **Transitions.**  Within a boundary-free window nothing outside the
  cache reads or writes replacement/tag/partition state, so the window's
  state evolution is the per-access transition function iterated over
  the miss stream.  The python window kernel *is* a loop over the
  cache's scalar hit kernel, in trace order (so a policy without a
  flat-state kernel runs here too, through the generic
  ``access_line_hit``); the array kernels are pinned to it.
* **Repeat elision.**  An access whose line equals the immediately
  preceding access to the same set is a guaranteed hit (the L2 always
  installs on a miss and read-only windows never invalidate) whose
  transition is idempotent for the kinds certified by
  :func:`~repro.cache.state.mru_repeat_elidable` — LRU's MRU promote is
  a no-op, BT rewrites the same tree bits, NRU's used bit is already
  set and cannot re-fire the saturation reset.  Deleting those accesses from the replay (never reordering the
  survivors) leaves every remaining transition, victim choice and
  statistic identical; the elided accesses are recorded as hits and
  counted into ``stats.accesses`` directly.  In the grouped (stable
  sort) layout the repeats are exactly the adjacent equal lines: equal
  lines share a set, and stable grouping keeps each set's accesses in
  trace order.
* **Pair elision.**  For the kinds certified by
  :func:`~repro.cache.state.pair_elidable` (unpartitioned ``lru`` and
  ``bt``, associativity >= 2) a two-line alternation ``X, Y, X, Y, ...``
  within a set extends the same idea to whole pairs: after the leading
  ``X, Y`` every further access is a guaranteed hit (neither policy can
  evict the line touched one access ago), and each complete pair
  ``(X, Y)`` is an identity transition on the replacement state — LRU
  maps top-of-stack ``(Y, X)`` back to ``(Y, X)``, BT's pair composition
  ``f_Y . f_X`` is idempotent by mask algebra.  After repeat dedup the
  alternations are exactly the runs of ``c[i] == c[i-2]`` in the grouped
  stream (positions two apart that share a line share a set, and the
  grouped layout keeps the set contiguous, so the position between them
  is the same set too); an even number of leading positions of each run
  is elided, the odd tail replays normally.
* **L1 memo.**  The private L1 is a fixed policy fed by the raw trace,
  so its per-chunk miss-index streams are a pure function of the trace
  content, the chunk size and the freeze count — independent of the L2
  configuration under study.  A small keyed memo replays those arrays
  (in chunk-visit order, so budget wrap-arounds replay correctly) for
  repeat runs of the same trace, skipping the L1 walk entirely; entries
  are recorded all-or-nothing, only by runs that complete normally.
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
  engine, and the buffered lines are appended in trace order *before*
  elision — the ATDs replay the full stream, so elision is invisible to
  every profiling kind.

Configurations outside the batched path — write traces (write-backs
interleave with fills inside the miss stream) and custom observers
(per-access calls required) — delegate to the
:class:`~repro.cmp.engine.solo.SoloEngine`, which is bit-identical by
the existing equivalence suite.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from repro.cache.kernels import build_set_run_kernel
from repro.cache.state import mru_repeat_elidable, pair_elidable
from repro.cmp.engine.batched import CHUNK_SIZE
from repro.cmp.engine.common import (
    EngineBase,
    clear_window_cache,
    deferrable_profiling,
    window_cache_stats,
)
from repro.cmp.engine.solo import SoloEngine
from repro.cmp.results import SimulationResult, ThreadResult

#: Safety margin applied to the pessimistic window bound before comparing
#: with the next boundary: the bound is computed with a different
#: operation order than the true pop times, so allow for relative float
#: error (generously) plus one absolute cycle.
_BOUND_SLACK = 1.0 + 1e-9

#: Minimum window size for the set-parallel repeat-elision analysis: the
#: stable sort has a fixed overhead, so tiny windows (boundary-dense
#: partitioned phases) replay directly through the window kernel.
_ELIDE_MIN = 64

#: Cross-run memo of per-chunk L1 miss-index arrays, keyed by everything
#: the stream depends on: trace content fingerprint, budget length,
#: freeze count, chunk size and L1 geometry.  See the module docstring
#: ("L1 memo") for the exactness argument.  Bounded LRU; an isolation
#: stage revisits each trace once per policy, so even a small bound
#: captures the reuse.
#:
#: Each entry is ``{"miss": [per-chunk index arrays], "windows": {...}}``.
#: When no controller and no observer are attached, the window sequence
#: and the elision analysis are *also* pure functions of the key plus
#: ``(set_mask, elide, pair)`` — boundaries cannot cut windows and no
#: timing feedback exists — so the ``windows`` sub-dict additionally
#: caches, per eligibility variant, the per-window replay inputs
#: ``(lines_list, kept_list, elide_marks, kept_idx, n_elided)``; the
#: kernels only read them.  Recorded all-or-nothing, like ``miss``.
_L1_MEMO: "OrderedDict[tuple, dict]" = OrderedDict()
_L1_MEMO_MAX = 32

#: Hit/miss counters over the module-global memo state, keyed by memo
#: layer.  ``l1`` counts whole-run lookups of the per-chunk miss-index
#: entry; ``window`` counts lookups of the per-variant window products
#: (only runs eligible for window memoization — no controller, no
#: observer — touch it).  Purely observational: nothing reads them back.
_MEMO_STATS = {"l1_hits": 0, "l1_misses": 0,
               "window_hits": 0, "window_misses": 0}


def memo_stats() -> dict:
    """Snapshot of every engine-side memo counter (a copy): this module's
    L1/window memo plus, under ``window_cache``, the solo/batched window
    cache (:func:`.common.window_cache_stats`) — one place to ask."""
    stats = dict(_MEMO_STATS)
    stats["l1_entries"] = len(_L1_MEMO)
    stats["window_cache"] = window_cache_stats()
    return stats


def clear_memos() -> None:
    """Drop all memoized runs and cached windows and zero the counters
    (test isolation) — one place to reset."""
    _L1_MEMO.clear()
    for key in _MEMO_STATS:
        _MEMO_STATS[key] = 0
    clear_window_cache()


class VectorEngine(EngineBase):
    """Single-thread set-parallel fast path over the L2 miss stream."""

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
        kernel = build_set_run_kernel(l2, sim.simulation.kernel_backend)
        elide = mru_repeat_elidable(l2)
        pair = pair_elidable(l2)

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
        l1_bulk_hit = l1.access_lines_hit
        l2_access_hit = l2.access_line_hit
        l2_accesses = l2.stats.accesses
        set_mask = l2.state.num_sets - 1
        # Grouping only needs the set index as a sort key; a narrow dtype
        # lets numpy's stable sort take its radix path (an order of
        # magnitude faster than int64 comparison sort at window sizes).
        if set_mask < 1 << 8:
            set_dtype = np.uint8
        elif set_mask < 1 << 16:
            set_dtype = np.uint16
        else:
            set_dtype = np.int64

        memo_key = (trace.fingerprint(), length, freeze_at, CHUNK_SIZE,
                    l1.geometry.num_sets, l1.geometry.assoc)
        entry = _L1_MEMO.get(memo_key)
        if entry is not None:
            _MEMO_STATS["l1_hits"] += 1
            _L1_MEMO.move_to_end(memo_key)
            replay = entry["miss"]
            record = None
        else:
            _MEMO_STATS["l1_misses"] += 1
            replay = None
            record = []
        n_replayed = 0

        if profiling is not None:
            obs_buf: list = []
            obs_extend = obs_buf.extend
            drain = profiling.monitors[0].atd.observe_many
        else:
            obs_buf = None
            obs_extend = None
            drain = None

        # Per-window elision products (policy-independent given the
        # eligibility variant) are replayable only when no boundary can
        # cut a window and no observer needs the raw stream.
        w_replay = w_record = None
        if controller is None and obs_extend is None:
            vkey = (set_mask, elide, pair)
            if entry is not None:
                w_replay = entry["windows"].get(vkey)
            if w_replay is None:
                _MEMO_STATS["window_misses"] += 1
                w_record = []
            else:
                _MEMO_STATS["window_hits"] += 1
        n_windows = 0

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
            lines_np = trace.chunk_view(pos, n_chunk)
            if replay is not None:
                # L1 state goes stale on this path — nothing reads it:
                # the thread result's L1 counts come from done/slow.
                miss_idx = replay[n_replayed]
                n_replayed += 1
            else:
                flags = l1_bulk_hit(lines_np)
                miss_idx = np.flatnonzero(~flags)
                record.append(miss_idx)
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
                    line = int(lines_np[off])
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
                if w_replay is not None:
                    (lines_list, kept_list, marks, kept_idx,
                     n_elided) = w_replay[n_windows]
                    n_windows += 1
                    if kept_list is None:
                        hit_flags = bytearray(safe_n)
                        kernel(lines_list, hit_flags)
                        hits8 = np.frombuffer(hit_flags, dtype=np.uint8)
                    else:
                        hits8 = marks.copy()
                        hit_flags = bytearray(len(kept_list))
                        kernel(kept_list, hit_flags)
                        hits8[kept_idx] = np.frombuffer(
                            hit_flags, dtype=np.uint8)
                        l2_accesses[0] += n_elided
                else:
                    w_lines = lines_np[w_offs]
                    lines_list = w_lines.tolist()
                    if obs_extend is not None:
                        # Trace order, before elision: the ATDs replay
                        # the full stream, so elision stays invisible
                        # to them.
                        obs_extend(lines_list)
                    hits8 = None
                    kept_list = marks = kept_idx = None
                    n_elided = 0
                    if elide and safe_n >= _ELIDE_MIN:
                        g_order = np.argsort(
                            (w_lines & set_mask).astype(set_dtype),
                            kind="stable")
                        g_lines = w_lines[g_order]
                        # Adjacent equal lines in the grouped layout are
                        # exactly the same-set repeats: guaranteed hits
                        # with idempotent transitions (module docstring).
                        keep_g = np.empty(safe_n, dtype=bool)
                        keep_g[0] = True
                        np.not_equal(g_lines[1:], g_lines[:-1],
                                     out=keep_g[1:])
                        n_elided = safe_n - int(np.count_nonzero(keep_g))
                        if n_elided or pair:
                            hits8 = np.zeros(safe_n, dtype=np.uint8)
                            hits8[g_order[~keep_g]] = 1
                            if pair:
                                c_gidx = np.flatnonzero(keep_g)
                                c = g_lines[c_gidx]
                                m = c.size
                                if m >= 4:
                                    # Two-line alternation runs: c[i]
                                    # two back is the same line (and
                                    # therefore the same contiguous set
                                    # group).  Elide an even count of
                                    # leading positions of each maximal
                                    # run — whole (X, Y) pairs, identity
                                    # transitions per the module
                                    # docstring.
                                    alt = np.zeros(m + 1, dtype=np.int8)
                                    alt[2:m] = c[2:] == c[:-2]
                                    edges = np.diff(alt)
                                    starts = np.flatnonzero(edges == 1) \
                                        + 1
                                    ends = np.flatnonzero(edges == -1) \
                                        + 1
                                    drop = (ends - starts) & -2
                                    total = int(drop.sum())
                                    if total:
                                        excl = np.cumsum(drop) - drop
                                        pos_c = (
                                            np.repeat(starts - excl,
                                                      drop)
                                            + np.arange(total)
                                        )
                                        hits8[g_order[c_gidx[pos_c]]] = 1
                                        n_elided += total
                            if n_elided:
                                marks = hits8.copy()
                                kept_idx = np.flatnonzero(hits8 == 0)
                                kept_list = w_lines[kept_idx].tolist()
                                hit_flags = bytearray(kept_idx.size)
                                kernel(kept_list, hit_flags)
                                hits8[kept_idx] = np.frombuffer(
                                    hit_flags, dtype=np.uint8)
                                l2_accesses[0] += n_elided
                            else:
                                hits8 = None
                    if hits8 is None:
                        hit_flags = bytearray(safe_n)
                        kernel(lines_list, hit_flags)
                        hits8 = np.frombuffer(hit_flags, dtype=np.uint8)
                        kept_list = marks = kept_idx = None
                        n_elided = 0
                    if w_record is not None:
                        w_record.append((lines_list, kept_list, marks,
                                         kept_idx, n_elided))
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

        # Only a normally completed run publishes its memo products —
        # all-or-nothing, so a partial recording can never replay.
        if record is not None:
            entry = {"miss": record, "windows": {}}
            _L1_MEMO[memo_key] = entry
            if len(_L1_MEMO) > _L1_MEMO_MAX:
                _L1_MEMO.popitem(last=False)
        if w_record is not None:
            entry["windows"][vkey] = w_record

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
