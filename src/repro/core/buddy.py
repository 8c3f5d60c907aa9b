"""MinMisses restricted to BT-enforceable partitions (subcube DP).

The BT enforcement hardware (per-core global ``up``/``down`` vectors, one
bit per tree level — paper Figure 5) can only confine a core to a
*subtree-aligned, power-of-two sized* group of ways: a
:class:`~repro.cache.partition.allocation.Subcube`.  Partition selection for
``M-BT`` must therefore optimise over assignments of disjoint subcubes to
threads.

This module solves that exactly with a dynamic program over
``(subtree level, thread subset)`` states: a subtree of ``2**L`` ways either
belongs wholly to one thread (a leaf state), or is split between two
complementary nonempty subsets of its thread set, one per child subtree.

Which states and splits exist depends only on the thread count and the
number of tree levels, so :func:`_plan` lists them once per
``(threads, levels)``: for each level, the states reachable from the root
``(levels, all threads)`` whose subset fits in ``2**L`` ways, and for each
non-leaf state its feasible splits (both halves fit in ``2**(L-1)`` ways).
A boundary then only fills the levels bottom-up — level 0 first, the root
last — with float adds over the plan's indices, and rebuilds the cubes
from the chosen splits.

Ties are exact: a state keeps the first split, in enumeration order, whose
``(misses, imbalance)`` is strictly lexicographically smaller than the best
so far, where imbalance is the sum of squared deviations of the
subcube sizes from an even split.  The enumeration fixes the subset's
lowest thread in the first half (removing the mirror symmetry) and counts
the rest of the first half down from all remaining threads with
``sub = (sub - 1) & rest``.

This restriction is the structural reason the paper's M-BT loses more than
M-NRU at high core counts: e.g. 2 threads on a 16-way cache can only ever
get the static 8/8 split, while 8 threads are forced to 2-way subcubes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cache.partition.allocation import Subcube, SubcubeAllocation
from repro.core.minmisses import _validate_curves
from repro.util.bitops import ilog2, is_power_of_two

class _Level(NamedTuple):
    """The states of one plan level ``L`` (subtrees of ``2**L`` ways)."""

    #: Each state's thread, or ``-1`` for a state of several threads.
    owners: Tuple[int, ...]
    #: ``(state, thread)`` for every single-thread state.
    leaves: Tuple[Tuple[int, int], ...]
    #: ``(state, splits)`` for every other state; a split is the
    #: ``(first, second)`` pair of state indices on level ``L - 1``.
    nodes: Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]
    #: A leaf's imbalance, ``(2**L - even) ** 2``.
    leaf_imbalance: float


def _splits(subset: int, half: int):
    """``(first, second)`` splits of ``subset`` with both halves at most
    ``half`` threads, in the DP's tie-breaking enumeration order."""
    lowest = subset & -subset
    rest = subset ^ lowest
    sub = rest
    while True:
        first = lowest | sub
        second = subset ^ first
        if second and first.bit_count() <= half and second.bit_count() <= half:
            yield first, second
        if sub == 0:
            return
        sub = (sub - 1) & rest


@lru_cache(maxsize=None)
def _plan(threads: int, levels: int) -> Tuple[_Level, ...]:
    """The subcube DP's states and splits for ``threads`` on ``2**levels``
    ways, one :class:`_Level` per level ``0 .. levels`` (the root's level
    holds only ``all threads``)."""
    reachable: List[set] = [set() for _ in range(levels + 1)]
    reachable[levels].add((1 << threads) - 1)
    for level in range(levels, 0, -1):
        for subset in reachable[level]:
            if subset.bit_count() > 1:
                for first, second in _splits(subset, 1 << (level - 1)):
                    reachable[level - 1].update((first, second))
    even = (1 << levels) / threads
    plan: List[_Level] = []
    below: dict = {}
    for level in range(levels + 1):
        subsets = tuple(sorted(reachable[level]))
        owners = tuple(s.bit_length() - 1 if s.bit_count() == 1 else -1
                       for s in subsets)
        leaves = tuple((i, t) for i, t in enumerate(owners) if t >= 0)
        nodes = tuple(
            (i, tuple((below[first], below[second]) for first, second
                      in _splits(s, 1 << (level - 1))))
            for i, s in enumerate(subsets) if owners[i] < 0
        )
        plan.append(_Level(owners, leaves, nodes, ((1 << level) - even) ** 2))
        below = {s: i for i, s in enumerate(subsets)}
    return tuple(plan)


def best_subcube_allocation(curves: np.ndarray, assoc: int) -> SubcubeAllocation:
    """Miss-minimising assignment of disjoint subcubes to threads.

    Parameters
    ----------
    curves:
        ``(threads, assoc + 1)`` miss curves, as for
        :func:`~repro.core.minmisses.minmisses_partition`.
    assoc:
        Power-of-two associativity.

    Returns
    -------
    SubcubeAllocation
        One subcube per thread (ordered by thread id), disjoint, covering
        every way.  Ties on the miss total are broken toward the most
        balanced split, then toward the first split enumerated.
    """
    if not is_power_of_two(assoc):
        raise ValueError(f"assoc must be a power of two, got {assoc}")
    curves = _validate_curves(curves, assoc, 1)
    threads = curves.shape[0]
    levels = ilog2(assoc)
    plan = _plan(threads, levels)
    rows = curves.tolist()
    inf = float("inf")

    # Bottom-up: each level's (misses, imbalance, chosen split) per state,
    # read by the level above through the plan's indices.
    misses: List[float] = []
    imbalance: List[float] = []
    chosen: List[list] = []
    for level, (owners, leaves, nodes, leaf_imbalance) in enumerate(plan):
        size = 1 << level
        level_misses = [0.0] * len(owners)
        level_imbalance = [leaf_imbalance] * len(owners)
        level_chosen = [None] * len(owners)
        for i, t in leaves:
            level_misses[i] = rows[t][size]
        for i, splits in nodes:
            best_m = best_i = inf
            best = None
            for a, b in splits:
                m = misses[a] + misses[b]
                if m < best_m:
                    best_m = m
                    best_i = imbalance[a] + imbalance[b]
                    best = (a, b)
                elif m == best_m:
                    imb = imbalance[a] + imbalance[b]
                    if imb < best_i:
                        best_i = imb
                        best = (a, b)
            level_misses[i] = best_m
            level_imbalance[i] = best_i
            level_chosen[i] = best
        misses, imbalance = level_misses, level_imbalance
        chosen.append(level_chosen)

    if misses[0] == inf:
        raise RuntimeError("subcube DP found no feasible allocation")
    cubes: List[Optional[Subcube]] = [None] * threads
    stack = [(levels, 0, 0)]
    while stack:
        level, i, prefix = stack.pop()
        t = plan[level].owners[i]
        if t >= 0:
            cubes[t] = Subcube(prefix, levels - level, levels)
            continue
        a, b = chosen[level][i]
        stack.append((level - 1, a, prefix << 1))
        stack.append((level - 1, b, (prefix << 1) | 1))
    return SubcubeAllocation(tuple(cubes))


def subcube_misses(curves: np.ndarray, allocation: SubcubeAllocation) -> float:
    """Predicted total misses of a subcube allocation."""
    curves = np.asarray(curves, dtype=np.float64)
    return float(sum(curves[t][cube.size]
                     for t, cube in enumerate(allocation.cubes)))


def brute_force_subcube(curves: np.ndarray, assoc: int) -> float:
    """Exhaustive best subcube-partition miss total (tests only).

    Enumerates every assignment of threads to subtree leaves recursively —
    usable for small thread counts; returns only the optimal cost.
    """
    if not is_power_of_two(assoc):
        raise ValueError(f"assoc must be a power of two, got {assoc}")
    curves = _validate_curves(curves, assoc, 1)
    threads = curves.shape[0]
    levels = ilog2(assoc)

    def best(size_log: int, subset: Tuple[int, ...]) -> float:
        if len(subset) == 1:
            return float(curves[subset[0]][1 << size_log])
        if len(subset) > (1 << size_log):
            return float("inf")
        lowest, rest = subset[0], subset[1:]
        best_cost = float("inf")
        for pick in range(1 << len(rest)):
            first = [lowest] + [t for i, t in enumerate(rest) if pick >> i & 1]
            second = [t for i, t in enumerate(rest) if not pick >> i & 1]
            if not second:
                continue
            cost = best(size_log - 1, tuple(first)) + best(size_log - 1, tuple(second))
            best_cost = min(best_cost, cost)
        return best_cost

    return best(levels, tuple(range(threads)))
