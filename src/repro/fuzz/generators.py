"""Seeded generators for adversarial traces and configuration points.

Everything is a pure function of ``(seed, index)`` through one
``numpy.random.default_rng([seed, index])`` stream, so a fuzz campaign is
exactly reproducible: same seed, same budget — same cases, in the same
order, on any machine (the acceptance test pins this by fingerprint).

The trace shapes are chosen to stress the engine machinery that a
uniform random stream almost never exercises:

* ``streak`` — a rotation of L1-conflicting lines (more lines than the
  L1's ways, all in one L1 set), so *every* access reaches the L2 and
  each L2 set's grouped subsequence is one line repeated: reuse gap 0,
  the array kernels' ``gap < assoc`` shortcut at its extreme, with
  occasional random breakers so the runs start and stop mid-window.
* ``alternation`` — interleaved two-line ``X, Y, X, Y`` pairs per L2 set
  (reuse gap 1, the same shortcut one step out), plus breakers and a
  random tail so corrupted replacement state surfaces in later victim
  choices.
* ``phase_change`` — abrupt footprint/locality regime switches every few
  hundred accesses: streams the controller's miss curves chase, boundary
  catch-ups after cheap phases.
* ``wrap_heavy`` — a short trace with an instruction budget worth many
  passes: trace wrap-around, chunk reloads at the wrap seam, freeze
  edges landing mid-pass, and window-cache hits from the second pass
  on.
* ``stream`` — a compulsory-miss pointer walk with occasional jumps
  back: freeze-on-miss edges and maximal memory-channel queueing.
* ``uniform`` — plain uniform noise over a footprint (the baseline the
  adversarial shapes are measured against).
* ``set_collision`` — long single-L2-set runs (deeper than any
  associativity), alternation tails and partial-fill grazing bursts:
  the array kernels' stack-distance, eviction-pairing and invalid-way
  fill paths, hammered in isolation.

Two more shapes only mean something next to other threads, so
:func:`generate_case` deals them to one core of some multi-core cases
(after every other draw, leaving the older cases of a seed unchanged).
They aim at what the batched engine's miss-stream loop special-cases:

* ``l1_resident`` — an optional warm-up, then references to a set of
  lines that fits the L1: a whole pass without a miss parks the thread
  (no further events), before or after its freeze, while the other
  threads keep the heap busy; with the warm-up, each pass ends in one
  huge hit gap instead.
* ``freeze_in_gap`` — short miss bursts separated by long single-line
  hit streaks, the trace starting and ending inside one, with the
  core's budget chosen so its freeze access is a hit deep in a streak
  (possibly passes later, across the wrap): the freeze-hit event.

Configuration points sample the legal cross product the batched engine
runs (anything else has no second engine to diff): 1, 2, 4 or 8 cores
(a case with more cores than L2 ways is unpartitioned), the three paper
policies under every enforcement scheme (partitioned needs a profilable
policy, BT pairs with btvectors), selectors including ``static``,
boundary-dense intervals, ATD sampling ratios, the bandwidth channel and
non-dyadic ``ipm``/``cpi`` values, on read-only traces.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.config import (
    ENFORCE_BTVECTORS,
    ENFORCE_COUNTERS,
    ENFORCE_MASKS,
    ENFORCE_NONE,
    PROFILABLE_POLICIES,
    PartitioningConfig,
    SELECTOR_STATIC,
)
from repro.fuzz.case import FuzzCase
from repro.workloads.trace import Trace

#: Shape registry order is part of the deterministic contract — new
#: shapes append, never reorder.
TRACE_SHAPES = ("streak", "alternation", "phase_change", "wrap_heavy",
                "stream", "uniform", "set_collision", "l1_resident",
                "freeze_in_gap")

#: Shapes any core may draw; the rest are multi-core only (module
#: docstring) and dealt separately.
_ANY_CORE_SHAPES = TRACE_SHAPES[:7]
_MULTI_CORE_SHAPES = TRACE_SHAPES[7:]

#: Minimum hits between a ``freeze_in_gap`` freeze and the miss before it.
_FREEZE_DEPTH = 8

#: Candidate ``ipm`` values; the non-dyadic entries force the timing
#: recurrence to be evaluated with genuinely inexact float terms.
_IPMS = (4.0, 2.0, 3.0, 2.6, 1.5, 3.3)
_CPIS = (1.0, 1.1, 0.8)


def _int(rng: np.random.Generator, lo: int, hi: int) -> int:
    """Inclusive integer draw as a Python int."""
    return int(rng.integers(lo, hi + 1))


# ----------------------------------------------------------------------
# Trace shapes
# ----------------------------------------------------------------------
def _streak_lines(rng, count, l1_sets, l1_assoc, l2_sets):
    """Rotation of L1-conflicting lines with random breakers."""
    depth = _int(rng, l1_assoc + 1, l1_assoc + 4)
    # Lines ``s + k * l1_sets`` share L1 set ``s``; spacing by a further
    # multiple spreads them over distinct L2 sets (mod l2_sets).
    s = _int(rng, 0, l1_sets - 1)
    stride = l1_sets * _int(rng, 1, max(1, l2_sets // l1_sets))
    pool = s + stride * np.arange(depth, dtype=np.int64)
    lines = np.tile(pool, count // depth + 1)[:count].copy()
    # Breakers: short random bursts so repeat runs start and stop.
    n_breaks = _int(rng, 0, 4)
    for _ in range(n_breaks):
        at = _int(rng, 0, count - 2)
        span = min(_int(rng, 1, 12), count - at)
        lines[at:at + span] = rng.integers(0, 4 * l2_sets, size=span)
    return lines


def _alternation_lines(rng, count, l1_sets, l1_assoc, l2_sets):
    """Interleaved same-L2-set pairs, breakers, random tail."""
    n_pairs = _int(rng, 2, 4)
    s = _int(rng, 0, l1_sets - 1)
    pairs = []
    for k in range(n_pairs):
        x = s + k * l1_sets                  # distinct L2 sets per pair
        y = x + l2_sets * _int(rng, 1, 3)    # same L2 set as x, new line
        pairs.extend((x, y))
    body_unit = np.array(pairs, dtype=np.int64)
    tail_len = min(count // 4, 1200)
    body = np.tile(body_unit, count // body_unit.size + 1)
    body = body[:max(1, count - tail_len)]
    tail = rng.integers(0, 6 * l2_sets, size=count - body.size)
    lines = np.concatenate([body, tail])
    # A breaker inside the body splits one set's alternation run.
    if count > 50:
        at = _int(rng, 10, count // 2)
        lines[at] = int(body_unit[0]) + 5 * l2_sets
    return lines


def _phase_change_lines(rng, count, l1_sets, l1_assoc, l2_sets):
    """Abrupt regime switches between footprints and a streaming phase."""
    lines = np.empty(count, dtype=np.int64)
    filled = 0
    stream_pos = 1 << 20
    while filled < count:
        span = min(_int(rng, 200, 900), count - filled)
        kind = _int(rng, 0, 2)
        if kind == 0:      # hot: footprint smaller than the L2
            footprint = _int(rng, 4, max(5, l2_sets))
            lines[filled:filled + span] = rng.integers(0, footprint,
                                                       size=span)
        elif kind == 1:    # cold: footprint several ways per set
            footprint = l2_sets * _int(rng, 4, 12)
            lines[filled:filled + span] = rng.integers(0, footprint,
                                                       size=span)
        else:              # scan: compulsory misses, no reuse
            lines[filled:filled + span] = stream_pos + np.arange(span)
            stream_pos += span
        filled += span
    return lines


def _wrap_heavy_lines(rng, count, l1_sets, l1_assoc, l2_sets):
    """Short mixed-locality body — the *budget* supplies the wraps."""
    footprint = l2_sets * _int(rng, 2, 6)
    lines = rng.integers(0, footprint, size=count)
    # A hot prefix makes the wrap seam visible in the L1 (the tail's
    # working set collides with the head's on re-entry).
    hot = _int(rng, 1, 4)
    lines[: count // 4] = rng.integers(0, hot * l1_sets, size=count // 4)
    return lines.astype(np.int64)


def _stream_lines(rng, count, l1_sets, l1_assoc, l2_sets):
    """Pointer walk with occasional jumps back to a hot window."""
    lines = np.arange(count, dtype=np.int64) + (1 << 16)
    n_jumps = _int(rng, 0, 5)
    for _ in range(n_jumps):
        at = _int(rng, 0, count - 2)
        span = min(_int(rng, 4, 64), count - at)
        back = _int(rng, 1, max(2, at + 1))
        lines[at:at + span] = lines[max(0, at - back):][:span]
    return lines


def _uniform_lines(rng, count, l1_sets, l1_assoc, l2_sets):
    footprint = _int(rng, l2_sets, l2_sets * 16)
    return rng.integers(0, footprint, size=count).astype(np.int64)


def _set_collision_lines(rng, count, l1_sets, l1_assoc, l2_sets):
    """Long single-L2-set runs, alternation tails, invalid-way churn.

    Aimed squarely at the array kernels' split paths: one L2 set is
    hammered with more distinct lines than any associativity (deep
    non-fit segments — stack-distance classification and eviction
    pairing), alternation tails keep its windows hit-dense, sequential
    sweeps maximise the per-window distinct count, and grazing bursts
    over fresh sets leave them partially filled so later windows keep
    consuming invalid ways (the fit path's fill ordering).
    """
    s = _int(rng, 0, l1_sets - 1)
    # Lines congruent to ``target`` mod l2_sets share one L2 set and —
    # l1_sets dividing l2_sets — one L1 set: every access reaches the L2.
    target = s + l1_sets * _int(rng, 0, max(0, l2_sets // l1_sets - 1))
    depth = _int(rng, 2, 24)
    pool = target + l2_sets * np.arange(depth, dtype=np.int64)
    out = np.empty(count, dtype=np.int64)
    i = 0
    while i < count:
        mode = _int(rng, 0, 3)
        span = min(_int(rng, 20, 200), count - i)
        if mode == 0:     # long random run inside the hammered set
            out[i:i + span] = pool[rng.integers(0, depth, size=span)]
        elif mode == 1:   # alternation tail: X, Y, X, Y in the set
            x, y = rng.choice(pool, size=2, replace=False)
            seg = np.empty(span, dtype=np.int64)
            seg[0::2] = x
            seg[1::2] = y
            out[i:i + span] = seg
        elif mode == 2:   # sequential sweep: maximal distinct count
            out[i:i + span] = target + l2_sets * (
                np.arange(span, dtype=np.int64) % (2 * depth))
        else:             # graze fresh sets, leaving them part-invalid
            out[i:i + span] = rng.integers(0, 4 * l2_sets, size=span)
        i += span
    return out


def _l1_resident_lines(rng, count, l1_sets, l1_assoc, l2_sets):
    """Optional warm-up, then only lines of an L1-resident set."""
    resident = np.arange(_int(rng, 1, l1_sets * l1_assoc), dtype=np.int64)
    lines = resident[rng.integers(0, resident.size, size=count)]
    if rng.random() < 0.5:
        warm = _int(rng, 1, count // 4)
        lines[:warm] = rng.integers(0, 8 * l2_sets, size=warm)
    return lines


def _freeze_in_gap_lines(rng, count, l1_sets, l1_assoc, l2_sets):
    """Miss bursts between long one-line hit streaks, seam inside one."""
    lines = np.empty(count, dtype=np.int64)
    fresh = 1 << 12
    i = 0
    while i < count:
        burst = min(_int(rng, 1, 12), count - i)
        lines[i:i + burst] = fresh + np.arange(burst)
        fresh += burst
        i += burst
        streak = min(_int(rng, 40, 400), count - i)
        lines[i:i + streak] = lines[i - 1]
        i += streak
    # The trace ends and re-enters on one line: that gap spans the wrap.
    edge = min(_int(rng, 20, 200), count // 3)
    lines[:edge] = lines[-edge:] = 7
    return lines


def _freeze_in_gap_budget(rng, trace: Trace) -> int:
    """A budget whose freeze access repeats the line of (at least) the
    ``_FREEZE_DEPTH`` accesses before it — an L1 hit deep in a gap."""
    lines = trace.lines
    count = len(lines)
    same = np.concatenate([lines[:1] == lines[-1:], lines[1:] == lines[:-1]])
    deep = np.flatnonzero(np.convolve(same, np.ones(_FREEZE_DEPTH))[:count]
                          >= _FREEZE_DEPTH)
    deep = deep[deep >= _FREEZE_DEPTH]      # pass 0 starts cold
    at = _int(rng, 0, 2) * count + int(deep[_int(rng, 0, deep.size - 1)])
    # freeze_count(budget, ipm) == at + 1 for every ipm >= 1.
    return int((at + 1) * trace.ipm)


_SHAPE_FNS = {
    "streak": _streak_lines,
    "alternation": _alternation_lines,
    "phase_change": _phase_change_lines,
    "wrap_heavy": _wrap_heavy_lines,
    "stream": _stream_lines,
    "uniform": _uniform_lines,
    "set_collision": _set_collision_lines,
    "l1_resident": _l1_resident_lines,
    "freeze_in_gap": _freeze_in_gap_lines,
}


def generate_trace_shape(shape: str, rng: np.random.Generator,
                         l1_sets: int, l1_assoc: int, l2_sets: int,
                         count: Optional[int] = None,
                         name: str = "t0") -> Trace:
    """One trace of the named shape, drawn from ``rng``."""
    if shape not in _SHAPE_FNS:
        raise ValueError(
            f"unknown trace shape {shape!r}; known: {TRACE_SHAPES}")
    if count is None:
        count = (_int(rng, 200, 800)
                 if shape in ("wrap_heavy", "l1_resident")
                 else _int(rng, 1500, 6000))
    lines = _SHAPE_FNS[shape](rng, count, l1_sets, l1_assoc, l2_sets)
    ipm = float(_IPMS[_int(rng, 0, len(_IPMS) - 1)])
    cpi = float(_CPIS[_int(rng, 0, len(_CPIS) - 1)])
    return Trace(name, np.asarray(lines, dtype=np.int64), ipm=ipm,
                 cpi_base=cpi)


# ----------------------------------------------------------------------
# Configuration points
# ----------------------------------------------------------------------
def _sample_partitioning(rng: np.random.Generator, num_cores: int,
                         l2_sets: int, l2_assoc: int) -> PartitioningConfig:
    """A legal PartitioningConfig point (invariants respected up front):
    unpartitioned where the L2 has fewer ways than there are cores (no
    allocation gives every core a way)."""
    partitioned = rng.random() < 0.5 and l2_assoc >= num_cores
    # The paper policies, the ones with a rendering (module docstring).
    policy = PROFILABLE_POLICIES[_int(rng, 0, len(PROFILABLE_POLICIES) - 1)]
    if not partitioned:
        return PartitioningConfig(policy=policy, enforcement=ENFORCE_NONE)
    if policy == "bt":
        enforcement = ENFORCE_BTVECTORS
    else:
        enforcement = (ENFORCE_MASKS if rng.random() < 0.5
                       else ENFORCE_COUNTERS)
    if enforcement == ENFORCE_BTVECTORS:
        # Subcube allocation only composes with these two selectors.
        selectors = ["minmisses", "even"]
    else:
        selectors = ["minmisses", "lookahead", "even", "fair"]
    static_counts = None
    if enforcement != ENFORCE_BTVECTORS and rng.random() < 0.15:
        selector = SELECTOR_STATIC
        base, extra = divmod(l2_assoc, num_cores)
        static_counts = tuple(base + (1 if i < extra else 0)
                              for i in range(num_cores))
    else:
        selector = selectors[_int(rng, 0, len(selectors) - 1)]
    nru_scaling = (1.0, 0.75, 0.5)[_int(rng, 0, 2)] if policy == "nru" \
        else 1.0
    interval = (500, 2_000, 20_000, 1_000_000)[_int(rng, 0, 3)]
    divisors = [d for d in (1, 2, 4, 8) if l2_sets % d == 0]
    sampling = divisors[_int(rng, 0, len(divisors) - 1)]
    min_ways = 1
    if l2_assoc >= 2 * num_cores + 2 and rng.random() < 0.2:
        min_ways = 2
    return PartitioningConfig(
        policy=policy, enforcement=enforcement, selector=selector,
        nru_scaling=nru_scaling, interval_cycles=interval,
        atd_sampling=sampling, min_ways=min_ways,
        static_counts=static_counts,
    )


def generate_case(seed: int, index: int) -> FuzzCase:
    """Deterministic case ``index`` of the campaign driven by ``seed``."""
    rng = np.random.default_rng([seed, index])
    r = rng.random()
    # The top slice of what were 4-core draws is 8 cores: every other
    # case of a seed is what it was before 8 cores were drawn.
    num_cores = (1 if r < 0.65 else 2 if r < 0.90 else 4 if r < 0.97
                 else 8)
    l1_sets = (2, 4)[_int(rng, 0, 1)]
    l1_assoc = 2
    l2_sets = (8, 16, 32)[_int(rng, 0, 2)]
    l2_assoc = (4, 8)[_int(rng, 0, 1)]

    partitioning = _sample_partitioning(rng, num_cores, l2_sets, l2_assoc)

    shapes = []
    traces: List[Trace] = []
    for core in range(num_cores):
        shape = _ANY_CORE_SHAPES[_int(rng, 0, len(_ANY_CORE_SHAPES) - 1)]
        shapes.append(shape)
        trace = generate_trace_shape(shape, rng, l1_sets, l1_assoc,
                                     l2_sets, name=f"t{core}")
        if num_cores > 1 and rng.random() < 0.9:
            # Disjoint per-core address spaces (the paper's methodology);
            # the remaining 10 % deliberately share lines across cores.
            trace = Trace(trace.name, trace.lines + (core << 20),
                          ipm=trace.ipm, cpi_base=trace.cpi_base)
        traces.append(trace)

    per_thread = None
    if "wrap_heavy" in shapes:
        # Budgets worth several trace passes: the wrap machinery is the
        # point of the shape.
        per_thread = tuple(
            int(len(t) * t.ipm * (2 + 6 * rng.random())) for t in traces)
        budget = max(per_thread)
    else:
        budget = _int(rng, 6_000, 40_000)

    service = 0.0
    if rng.random() < 0.3:
        service = float(_int(rng, 200, 800))

    if num_cores > 1 and rng.random() < 0.5:
        # Deal one core a multi-core shape (module docstring).  Drawn
        # last, so the cases of a seed that skip this are what they were
        # before the shapes existed.
        core = _int(rng, 0, num_cores - 1)
        shape = _MULTI_CORE_SHAPES[_int(rng, 0, len(_MULTI_CORE_SHAPES) - 1)]
        shapes[core] = shape
        trace = generate_trace_shape(shape, rng, l1_sets, l1_assoc,
                                     l2_sets, name=f"t{core}")
        trace = Trace(trace.name, trace.lines + (core << 20),
                      ipm=trace.ipm, cpi_base=trace.cpi_base)
        traces[core] = trace
        budgets = list(per_thread or [budget] * num_cores)
        if shape == "freeze_in_gap":
            budgets[core] = _freeze_in_gap_budget(rng, trace)
        else:
            # From a fraction of a pass (freeze, then park) to several
            # (park, then freeze on a hit far ahead).
            budgets[core] = max(1, int(len(trace) * trace.ipm
                                       * 6 * rng.random()))
        per_thread = tuple(budgets)
        budget = max(per_thread)

    return FuzzCase(
        traces=traces,
        l1_sets=l1_sets, l1_assoc=l1_assoc,
        l2_sets=l2_sets, l2_assoc=l2_assoc,
        partitioning=partitioning,
        instructions_per_thread=budget,
        per_thread_instructions=per_thread,
        sim_seed=_int(rng, 0, 1 << 30),
        memory_service_interval=service,
        shape="+".join(shapes),
        origin=f"seed={seed} index={index}",
    )
