"""Unit tests for the LRU/NRU/BT stack-distance profilers."""

import pytest

from repro.cache.replacement.bt import BTPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.nru import NRUPolicy
from repro.profiling.profilers import (
    BTDistanceProfiler,
    LRUDistanceProfiler,
    NRUDistanceProfiler,
    make_profiler,
)
from repro.profiling.sdh import SDH


class TestLRUProfiler:
    def test_exact_distance(self):
        policy = LRUPolicy(1, 4)
        sdh = SDH(4)
        for w in (0, 1, 2, 3):
            policy.touch(0, w, 0)
        LRUDistanceProfiler().on_hit(policy, 0, 3, sdh)  # MRU -> distance 1
        LRUDistanceProfiler().on_hit(policy, 0, 0, sdh)  # LRU -> distance 4
        assert sdh.register(1) == 1
        assert sdh.register(4) == 1


class TestNRUProfiler:
    def test_paper_example_u2(self):
        # Figure 3(a): CDD — on the second D access U = 2, estimate 2.
        policy = NRUPolicy(1, 4)
        sdh = SDH(4)
        policy.touch(0, 2, 0)  # C
        policy.touch(0, 3, 0)  # D
        NRUDistanceProfiler(scaling=1.0).on_hit(policy, 0, 3, sdh)
        assert sdh.register(2) == 1

    def test_used_bit_zero_not_recorded(self):
        # Figure 3(b): ABC — C's used bit is 0; no SDH update.
        policy = NRUPolicy(1, 4)
        sdh = SDH(4)
        policy.touch(0, 0, 0)
        policy.touch(0, 1, 0)
        NRUDistanceProfiler(scaling=1.0).on_hit(policy, 0, 2, sdh)
        assert sdh.total == 0

    def test_paper_scaling_example(self):
        # §III-A: S = 0.5 and U = 8 -> distance 4.
        policy = NRUPolicy(1, 16)
        sdh = SDH(16)
        for w in range(8):
            policy.touch(0, w, 0)
        NRUDistanceProfiler(scaling=0.5).on_hit(policy, 0, 0, sdh)
        assert sdh.register(4) == 1

    def test_paper_ceil_example(self):
        # §III-A: S = 0.5 and U = 7 -> 3.5 rounds up to 4.
        policy = NRUPolicy(1, 16)
        sdh = SDH(16)
        for w in range(7):
            policy.touch(0, w, 0)
        NRUDistanceProfiler(scaling=0.5).on_hit(policy, 0, 0, sdh)
        assert sdh.register(4) == 1

    def test_spread_update(self):
        policy = NRUPolicy(1, 4)
        sdh = SDH(4)
        policy.touch(0, 0, 0)
        policy.touch(0, 1, 0)
        NRUDistanceProfiler(scaling=1.0, spread_update=True).on_hit(
            policy, 0, 1, sdh)
        assert list(sdh.registers) == [1, 1, 0, 0, 0]

    def test_scaling_validated(self):
        with pytest.raises(ValueError):
            NRUDistanceProfiler(scaling=0.0)

    def test_estimate_at_least_one(self):
        policy = NRUPolicy(1, 4)
        sdh = SDH(4)
        policy.touch(0, 0, 0)
        NRUDistanceProfiler(scaling=0.1).on_hit(policy, 0, 0, sdh)
        assert sdh.register(1) == 1


    @pytest.mark.parametrize("assoc", [2, 8, 16])
    @pytest.mark.parametrize("scaling", [1.0, 0.75, 0.5, 1 / 3, 0.1])
    def test_distance_table_is_on_hit_for_every_used_count(self, scaling,
                                                           assoc):
        """What the compiled observe kernels index against the oracle
        side, ``U = 0 .. A``: the entry for ``U`` is the register
        ``on_hit`` bumps when ``U`` used bits are set."""
        profiler = NRUDistanceProfiler(scaling=scaling)
        table = profiler.distance_table(assoc)
        assert len(table) == assoc + 1 and table[0] == 1
        assert all(type(entry) is int for entry in table)
        policy = NRUPolicy(1, assoc)
        for used in range(1, assoc + 1):
            policy._used[0] = (1 << used) - 1
            sdh = SDH(assoc)
            profiler.on_hit(policy, 0, 0, sdh)
            assert sdh.register(table[used]) == 1 == sdh.total, used


class TestBTProfiler:
    def test_paper_figure4b(self):
        # ID(D) = 11, path = 10 -> estimate 3.
        policy = BTPolicy(1, 4)
        sdh = SDH(4)
        policy.touch(0, 3, 0)
        policy.touch(0, 0, 0)
        BTDistanceProfiler().on_hit(policy, 0, 3, sdh)
        assert sdh.register(3) == 1

    def test_mru_estimates_one(self):
        policy = BTPolicy(1, 8)
        sdh = SDH(8)
        policy.touch(0, 5, 0)
        BTDistanceProfiler().on_hit(policy, 0, 5, sdh)
        assert sdh.register(1) == 1

    def test_victim_estimates_a(self):
        policy = BTPolicy(1, 8)
        sdh = SDH(8)
        for w in (3, 6, 1):
            policy.touch(0, w, 0)
        victim = policy.victim(0, 0, 0xFF)
        BTDistanceProfiler().on_hit(policy, 0, victim, sdh)
        assert sdh.register(8) == 1


class TestFactory:
    def test_lru(self):
        assert isinstance(make_profiler("lru"), LRUDistanceProfiler)

    def test_nru_carries_options(self):
        p = make_profiler("nru", scaling=0.75, spread_update=True)
        assert isinstance(p, NRUDistanceProfiler)
        assert p.scaling == 0.75
        assert p.spread_update

    def test_bt(self):
        assert isinstance(make_profiler("bt"), BTDistanceProfiler)

    def test_random_rejected(self):
        with pytest.raises(ValueError):
            make_profiler("random")
