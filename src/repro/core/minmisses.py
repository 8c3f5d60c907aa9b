"""MinMisses partition selection (paper §II-B).

"The MinMisses policy assigns ways to the running threads so that it
minimizes the overall number of misses, giving at least one way per thread."

The optimisation is solved *exactly* with a dynamic program over threads and
way budgets — cheap at hardware scales (A ≤ 32, N ≤ 8).  Ties on the miss
count are broken toward the most balanced allocation (smallest sum of
squared deviations from an even split), which keeps the selection
deterministic and sensible when miss curves are flat (e.g. cold SDHs).

:func:`minmisses_partition` runs at every interval boundary, so it works on
plain floats: the curves are read once with ``tolist()``, the squared
deviations come from a per-call table indexed by way count, and the DP
keeps two parallel lists (misses, imbalance) indexed by ways used plus one
list of choices per thread.  Threads are added in id order; for each
budget already reached (ascending) thread ``t`` tries every way count
(ascending) — the last thread only the one that fills all ``assoc`` ways,
the only total read back — and a candidate replaces the stored cost only
if its ``(misses, imbalance)`` is strictly lexicographically smaller — so
on a full tie the first candidate enumerated, the smallest budget of the
threads before ``t``, keeps its place.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def _validate_curves(curves: np.ndarray, assoc: int, min_ways: int) -> np.ndarray:
    curves = np.asarray(curves, dtype=np.float64)
    if curves.ndim != 2:
        raise ValueError(f"curves must be 2-D (threads x ways+1), got {curves.shape}")
    threads, width = curves.shape
    if width != assoc + 1:
        raise ValueError(
            f"curves must have assoc+1={assoc + 1} columns (misses at "
            f"0..{assoc} ways), got {width}"
        )
    if threads == 0:
        raise ValueError("need at least one thread")
    if min_ways < 1:
        raise ValueError("min_ways must be >= 1")
    if threads * min_ways > assoc:
        raise ValueError(
            f"{threads} threads x {min_ways} min ways exceed {assoc} ways"
        )
    return curves


def minmisses_partition(curves: np.ndarray, assoc: int,
                        min_ways: int = 1) -> Tuple[int, ...]:
    """Way counts minimising total predicted misses.

    Parameters
    ----------
    curves:
        ``(threads, assoc + 1)`` array; ``curves[t][w]`` is thread ``t``'s
        predicted miss count when owning ``w`` ways (an SDH miss curve).
    assoc:
        Number of ways to distribute.
    min_ways:
        Minimum ways per thread (paper: 1).

    Returns
    -------
    tuple of int
        Ways per thread, summing to ``assoc``.
    """
    curves = _validate_curves(curves, assoc, min_ways)
    threads = curves.shape[0]
    rows = curves.tolist()
    even = assoc / threads
    penalty = [(w - even) ** 2 for w in range(assoc + 1)]
    inf = float("inf")

    # (misses[u], imbalance[u]) is the best cost of the first t threads
    # using u ways; choice[t][u] is the ways thread t takes in it.
    misses = [inf] * (assoc + 1)
    imbalance = [inf] * (assoc + 1)
    misses[0] = imbalance[0] = 0.0
    choice = []

    for t in range(threads):
        row = rows[t]
        remaining = threads - t - 1
        next_misses = [inf] * (assoc + 1)
        next_imbalance = [inf] * (assoc + 1)
        picks = [-1] * (assoc + 1)
        max_total = assoc - remaining * min_ways
        for used in range(t * min_ways, max_total + 1 - min_ways):
            base = misses[used]
            if base == inf:
                continue
            base_imbalance = imbalance[used]
            # Thread t may take w ways; leave enough for the rest.  The
            # last thread's only target that is ever read is ``assoc``.
            w_lo = max_total - used if remaining == 0 else min_ways
            for w in range(w_lo, max_total - used + 1):
                m = base + row[w]
                target = used + w
                best = next_misses[target]
                if m < best or (m == best and base_imbalance + penalty[w]
                                < next_imbalance[target]):
                    next_misses[target] = m
                    next_imbalance[target] = base_imbalance + penalty[w]
                    picks[target] = w
        misses, imbalance = next_misses, next_imbalance
        choice.append(picks)

    if misses[assoc] == inf:  # pragma: no cover - guarded by validation
        raise RuntimeError("MinMisses DP found no feasible allocation")

    counts = [0] * threads
    used = assoc
    for t in range(threads - 1, -1, -1):
        w = choice[t][used]
        counts[t] = w
        used -= w
    assert used == 0
    return tuple(counts)


def total_misses(curves: np.ndarray, counts: Sequence[int]) -> float:
    """Predicted total misses of an allocation under the given curves."""
    curves = np.asarray(curves, dtype=np.float64)
    return float(sum(curves[t][w] for t, w in enumerate(counts)))


def minmisses_partition_bounded(curves: np.ndarray, assoc: int,
                                mins: Sequence[int]) -> Tuple[int, ...]:
    """MinMisses with a *per-thread* minimum way count.

    The generalisation the QoS extension needs: thread ``t`` is guaranteed
    at least ``mins[t]`` ways (its QoS reservation) and the DP distributes
    the remaining ways to minimise total predicted misses.  Ties break
    toward the most balanced allocation, as in :func:`minmisses_partition`.
    """
    curves = np.asarray(curves, dtype=np.float64)
    threads = curves.shape[0] if curves.ndim == 2 else 0
    if len(mins) != threads:
        raise ValueError(f"mins has {len(mins)} entries for {threads} threads")
    mins = [int(m) for m in mins]
    if any(m < 1 for m in mins):
        raise ValueError("every thread needs at least one way")
    if sum(mins) > assoc:
        raise ValueError(
            f"reservations {mins} exceed the {assoc} available ways"
        )
    curves = _validate_curves(curves, assoc, 1)
    even = assoc / threads
    inf = float("inf")

    dp = [(inf, inf)] * (assoc + 1)
    dp[0] = (0.0, 0.0)
    choice = np.full((threads, assoc + 1), -1, dtype=np.int64)
    # suffix_min[t] = ways that threads t.. still require.
    suffix_min = [0] * (threads + 1)
    for t in range(threads - 1, -1, -1):
        suffix_min[t] = suffix_min[t + 1] + mins[t]

    for t in range(threads):
        ndp = [(inf, inf)] * (assoc + 1)
        max_total = assoc - suffix_min[t + 1]
        for used in range(assoc + 1):
            cost = dp[used]
            if cost[0] == inf:
                continue
            for w in range(mins[t], max_total - used + 1):
                cand = (cost[0] + curves[t][w],
                        cost[1] + (w - even) ** 2)
                target = used + w
                if cand < ndp[target]:
                    ndp[target] = cand
                    choice[t][target] = w
        dp = ndp

    if dp[assoc][0] == inf:  # pragma: no cover - guarded by validation
        raise RuntimeError("bounded MinMisses DP found no feasible allocation")

    counts = [0] * threads
    used = assoc
    for t in range(threads - 1, -1, -1):
        w = int(choice[t][used])
        counts[t] = w
        used -= w
    assert used == 0
    return tuple(counts)


def brute_force_partition(curves: np.ndarray, assoc: int,
                          min_ways: int = 1) -> Tuple[int, ...]:
    """Exhaustive MinMisses reference (tests only; exponential)."""
    curves = _validate_curves(curves, assoc, min_ways)
    threads = curves.shape[0]
    even = assoc / threads
    best = None
    best_cost = (float("inf"), float("inf"))

    def recurse(t: int, remaining: int, acc, cost, imb):
        nonlocal best, best_cost
        if t == threads - 1:
            w = remaining
            if w < min_ways:
                return
            cand = (cost + float(curves[t][w]), imb + (w - even) ** 2)
            if cand < best_cost:
                best_cost = cand
                best = tuple(acc + [w])
            return
        hi = remaining - (threads - t - 1) * min_ways
        for w in range(min_ways, hi + 1):
            recurse(t + 1, remaining - w, acc + [w],
                    cost + float(curves[t][w]), imb + (w - even) ** 2)

    recurse(0, assoc, [], 0.0, 0.0)
    assert best is not None
    return best
