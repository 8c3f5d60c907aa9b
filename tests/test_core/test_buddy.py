"""Unit and property tests for the BT subcube DP."""

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import selector_curves
from repro.cache.partition.allocation import Subcube, SubcubeAllocation
from repro.core.buddy import (
    best_subcube_allocation,
    brute_force_subcube,
    subcube_misses,
)
from repro.core.minmisses import _validate_curves
from repro.util.bitops import ilog2


def curve_from_knee(knee: int, assoc: int, height: float = 100.0):
    return np.array([height if w < knee else 1.0 for w in range(assoc + 1)])


def reference_subcube_allocation(curves, assoc: int) -> SubcubeAllocation:
    """Oracle: the memoised top-down subcube DP the plan tables replaced.

    Every state is solved on demand (``solve(size_log, subset)``), splits
    are enumerated in the same order (lowest thread in the first half,
    ``sub = (sub - 1) & rest``) and compared as ``(misses, imbalance)``
    tuples with a strict ``<``; infeasible halves cost ``inf``.
    """
    curves = _validate_curves(curves, assoc, 1)
    threads = curves.shape[0]
    levels = ilog2(assoc)
    even = assoc / threads
    all_threads = (1 << threads) - 1

    @lru_cache(maxsize=None)
    def solve(size_log: int, subset: int) -> Tuple[float, float, int]:
        members = subset.bit_count()
        size = 1 << size_log
        if members > size:
            return (float("inf"), float("inf"), 0)
        if members == 1:
            t = subset.bit_length() - 1
            return (float(curves[t][size]), (size - even) ** 2, 0)
        best = (float("inf"), float("inf"), 0)
        lowest = subset & -subset
        rest = subset ^ lowest
        sub = rest
        while True:
            first = lowest | sub
            second = subset ^ first
            if second:
                a = solve(size_log - 1, first)
                b = solve(size_log - 1, second)
                cand = (a[0] + b[0], a[1] + b[1], first)
                if cand[:2] < best[:2]:
                    best = cand
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return best

    cubes: Dict[int, Subcube] = {}

    def reconstruct(size_log: int, subset: int, prefix: int, depth: int) -> None:
        if subset.bit_count() == 1:
            cubes[subset.bit_length() - 1] = Subcube(prefix, depth, levels)
            return
        _, _, first = solve(size_log, subset)
        reconstruct(size_log - 1, first, prefix << 1, depth + 1)
        reconstruct(size_log - 1, subset ^ first, (prefix << 1) | 1, depth + 1)

    assert solve(levels, all_threads)[0] != float("inf")
    reconstruct(levels, all_threads, 0, 0)
    return SubcubeAllocation(tuple(cubes[t] for t in range(threads)))


def cube_list(allocation: SubcubeAllocation):
    return [(cube.prefix, cube.depth) for cube in allocation.cubes]


@st.composite
def subcube_cases(draw):
    """(curves, assoc): 1-8 threads on 2-32 ways."""
    assoc = draw(st.sampled_from([2, 4, 8, 16, 32]))
    threads = draw(st.integers(1, min(8, assoc)))
    return draw(selector_curves.curves(threads, assoc)), assoc


class TestStructure:
    def test_returns_valid_allocation(self):
        curves = np.zeros((3, 9))
        alloc = best_subcube_allocation(curves, 8)
        assert isinstance(alloc, SubcubeAllocation)
        assert sum(alloc.counts) == 8

    def test_two_threads_always_even(self):
        """With 2 threads, subcubes force the static half/half split —
        the structural root of BT's 2-core inflexibility (DESIGN.md)."""
        curves = np.stack([curve_from_knee(12, 16), curve_from_knee(1, 16)])
        alloc = best_subcube_allocation(curves, 16)
        assert alloc.counts == (8, 8)

    def test_counts_are_powers_of_two(self):
        rng = np.random.default_rng(0)
        curves = np.sort(rng.integers(0, 100, (5, 17)), axis=1)[:, ::-1]
        alloc = best_subcube_allocation(curves.astype(float), 16)
        for count in alloc.counts:
            assert count & (count - 1) == 0

    def test_respects_knees_where_possible(self):
        # Thread 0 needs 4 ways, threads 1-2 need little: give 0 a half.
        curves = np.stack([
            curve_from_knee(4, 8),
            curve_from_knee(1, 8),
            curve_from_knee(1, 8),
        ])
        alloc = best_subcube_allocation(curves, 8)
        assert alloc.counts[0] == 4

    def test_eight_threads_sixteen_ways(self):
        curves = np.zeros((8, 17))
        alloc = best_subcube_allocation(curves, 16)
        assert sorted(alloc.counts) == [2] * 8

    def test_six_threads_expressible(self):
        # 6 threads (the case with no single-cube even split) still solves.
        curves = np.zeros((6, 17))
        alloc = best_subcube_allocation(curves, 16)
        assert sum(alloc.counts) == 16

    def test_rejects_non_power_assoc(self):
        with pytest.raises(ValueError):
            best_subcube_allocation(np.zeros((2, 13)), 12)

    def test_rejects_too_many_threads(self):
        with pytest.raises(ValueError):
            best_subcube_allocation(np.zeros((5, 5)), 4)


class TestOptimality:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6),
           st.sampled_from([4, 8, 16]))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_cost(self, seed, threads, assoc):
        if threads > assoc:
            return
        rng = np.random.default_rng(seed)
        curves = np.sort(rng.integers(0, 1000, (threads, assoc + 1)),
                         axis=1)[:, ::-1].astype(float)
        alloc = best_subcube_allocation(curves, assoc)
        cost = subcube_misses(curves, alloc)
        assert cost == pytest.approx(brute_force_subcube(curves, assoc))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_paper_scale(self, seed):
        rng = np.random.default_rng(seed)
        threads = int(rng.integers(2, 9))
        curves = np.sort(rng.integers(0, 10**6, (threads, 17)),
                         axis=1)[:, ::-1].astype(float)
        alloc = best_subcube_allocation(curves, 16)
        assert sum(alloc.counts) == 16
        assert len(alloc.counts) == threads


class TestExactAllocation:
    """Cube for cube against the top-down oracle, ties included."""

    @given(subcube_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_top_down_oracle(self, case):
        curves, assoc = case
        assert cube_list(best_subcube_allocation(curves, assoc)) == cube_list(
            reference_subcube_allocation(curves, assoc))

    def test_enumeration_order_breaks_exact_ties(self):
        """3 threads on 4 ways with flat curves: the three root splits
        ({0,2}|{1}, {0,1}|{2}, {0}|{1,2}) tie on misses and on imbalance,
        so the first one enumerated must win, not the last."""
        alloc = best_subcube_allocation(np.zeros((3, 5)), 4)
        assert cube_list(alloc) == [(0b00, 2), (0b1, 1), (0b01, 2)]
        assert cube_list(alloc) == cube_list(
            reference_subcube_allocation(np.zeros((3, 5)), 4))

    def test_all_thread_counts_at_paper_scale(self):
        rng = np.random.default_rng(11)
        for threads in range(1, 9):
            curves = np.sort(rng.integers(0, 10**6, (threads, 17)),
                             axis=1)[:, ::-1].astype(float)
            assert cube_list(best_subcube_allocation(curves, 16)) == cube_list(
                reference_subcube_allocation(curves, 16))
