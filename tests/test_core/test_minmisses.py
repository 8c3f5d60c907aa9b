"""Unit and property tests for the MinMisses DP (paper §II-B)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import selector_curves
from repro.core.minmisses import (
    _validate_curves,
    brute_force_partition,
    minmisses_partition,
    total_misses,
)


def curve_from_knee(knee: int, assoc: int, height: float = 100.0):
    """A miss curve that drops to ~0 once `knee` ways are owned."""
    return np.array([height if w < knee else 1.0 for w in range(assoc + 1)])


def reference_minmisses(curves, assoc: int, min_ways: int = 1):
    """Oracle: the MinMisses DP over ``(misses, imbalance)`` tuples and a
    numpy choice table that the float-list DP replaced (same loop bounds,
    same order, strict tuple ``<``)."""
    curves = _validate_curves(curves, assoc, min_ways)
    threads = curves.shape[0]
    even = assoc / threads
    inf = float("inf")
    dp = [(inf, inf)] * (assoc + 1)
    dp[0] = (0.0, 0.0)
    choice = np.full((threads, assoc + 1), -1, dtype=np.int64)
    for t in range(threads):
        remaining = threads - t - 1
        ndp = [(inf, inf)] * (assoc + 1)
        max_total = assoc - remaining * min_ways
        for used in range(t * min_ways, max_total + 1 - min_ways):
            cost = dp[used]
            if cost[0] == inf:
                continue
            for w in range(min_ways, max_total - used + 1):
                cand = (cost[0] + curves[t][w], cost[1] + (w - even) ** 2)
                if cand < ndp[used + w]:
                    ndp[used + w] = cand
                    choice[t][used + w] = w
        dp = ndp
    counts = [0] * threads
    used = assoc
    for t in range(threads - 1, -1, -1):
        counts[t] = int(choice[t][used])
        used -= counts[t]
    return tuple(counts)


@st.composite
def minmisses_cases(draw):
    """(curves, assoc, min_ways): 1-8 threads on 2-32 ways."""
    min_ways = draw(st.integers(1, 2))
    assoc = draw(st.integers(2, 32))
    threads = draw(st.integers(1, min(8, assoc // min_ways)))
    return draw(selector_curves.curves(threads, assoc)), assoc, min_ways


class TestBasics:
    def test_sums_to_assoc(self):
        curves = np.stack([curve_from_knee(2, 8), curve_from_knee(5, 8)])
        counts = minmisses_partition(curves, 8)
        assert sum(counts) == 8

    def test_min_ways_respected(self):
        curves = np.zeros((4, 17))
        counts = minmisses_partition(curves, 16, min_ways=2)
        assert all(c >= 2 for c in counts)

    def test_knees_get_their_ways(self):
        curves = np.stack([curve_from_knee(2, 8), curve_from_knee(6, 8)])
        counts = minmisses_partition(curves, 8)
        assert counts[0] >= 2
        assert counts[1] >= 6

    def test_streaming_thread_gets_minimum(self):
        # A flat curve (always misses) earns nothing from extra ways.
        flat = np.full(9, 500.0)
        curves = np.stack([flat, curve_from_knee(7, 8)])
        counts = minmisses_partition(curves, 8)
        assert counts == (1, 7)

    def test_flat_curves_give_even_split(self):
        # Tie-break prefers balance.
        curves = np.zeros((2, 17))
        assert minmisses_partition(curves, 16) == (8, 8)
        curves = np.zeros((4, 17))
        assert minmisses_partition(curves, 16) == (4, 4, 4, 4)

    def test_single_thread_takes_all(self):
        curves = np.zeros((1, 9))
        assert minmisses_partition(curves, 8) == (8,)

    def test_validation(self):
        with pytest.raises(ValueError):
            minmisses_partition(np.zeros((2, 8)), 8)     # wrong width
        with pytest.raises(ValueError):
            minmisses_partition(np.zeros((9, 9)), 8)     # too many threads
        with pytest.raises(ValueError):
            minmisses_partition(np.zeros((2, 9)), 8, min_ways=0)


class TestOptimality:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(4, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed, threads, assoc):
        if threads > assoc:
            return
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 1000, size=(threads, assoc + 1))
        # Make curves non-increasing (true of any SDH-derived curve).
        curves = np.sort(raw, axis=1)[:, ::-1].astype(float)
        counts = minmisses_partition(curves, assoc)
        reference = brute_force_partition(curves, assoc)
        assert total_misses(curves, counts) == pytest.approx(
            total_misses(curves, reference))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_paper_scale_feasibility(self, seed):
        rng = np.random.default_rng(seed)
        curves = np.sort(rng.integers(0, 10**6, (8, 17)), axis=1)[:, ::-1]
        counts = minmisses_partition(curves.astype(float), 16)
        assert sum(counts) == 16
        assert all(c >= 1 for c in counts)


class TestExactAllocation:
    """Tuple for tuple against the tuple-DP oracle, ties included."""

    @given(minmisses_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_tuple_dp_oracle(self, case):
        curves, assoc, min_ways = case
        assert minmisses_partition(curves, assoc, min_ways) == (
            reference_minmisses(curves, assoc, min_ways))

    def test_enumeration_order_breaks_exact_ties(self):
        """2 threads on 3 ways with flat curves: (1, 2) and (2, 1) tie on
        misses and on imbalance (0.25 + 0.25 both ways); the candidate
        enumerated first (thread 0 at the smaller budget) must win."""
        curves = np.zeros((2, 4))
        assert minmisses_partition(curves, 3) == (1, 2)
        assert reference_minmisses(curves, 3) == (1, 2)
