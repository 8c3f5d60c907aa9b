"""Unit tests for the sampled Auxiliary Tag Directory."""

from array import array

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.profiling.atd import ATD
from repro.profiling.profilers import make_profiler


def make_atd(num_sets=32, assoc=4, sampling=4, policy="lru", kernels=True,
             **profiler_kw):
    geometry = CacheGeometry(num_sets * assoc * 128, assoc, 128)
    return ATD(geometry, sampling, policy,
               make_profiler(policy, **profiler_kw),
               rng=np.random.default_rng(0), kernels=kernels)


def atd_state(atd):
    return (atd.sampled_accesses, atd.skipped_accesses,
            list(atd.state.lines), list(atd.sdh._r))


class TestSampling:
    def test_only_sampled_sets_observed(self):
        atd = make_atd(sampling=4)
        assert atd.observe(0)        # set 0: sampled
        assert not atd.observe(1)    # set 1: skipped
        assert atd.observe(4)        # set 4: sampled
        assert atd.sampled_accesses == 2
        assert atd.skipped_accesses == 1

    def test_sampling_one_observes_all(self):
        atd = make_atd(sampling=1)
        assert atd.observe(3)

    def test_sampling_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            make_atd(sampling=3)

    def test_sampling_must_divide_sets(self):
        with pytest.raises(ValueError):
            make_atd(num_sets=4, sampling=8)

    def test_directory_is_smaller(self):
        atd = make_atd(num_sets=32, sampling=4)
        assert atd.num_sets == 8

    @pytest.mark.parametrize("sampling", [1, 2, 8, 32])
    @pytest.mark.parametrize("policy", ["lru", "nru", "bt"])
    def test_sampled_positions_is_the_observe_filter(self, policy, sampling):
        """The positions ``observe`` samples are those whose low index
        bits are zero, and the batch kernel applies that filter itself:
        handing it every line in slices — as ``int64`` columns and as
        ``array('q')``\\ s, what the batched engine hands its drains —
        equals feeding them one by one, both counters included.
        ``observe`` answers and counts per access exactly like the
        generic object-protocol path."""
        lines = np.random.default_rng(5).integers(0, 4096, size=3000)
        full = make_atd(num_sets=64, sampling=sampling, policy=policy)
        generic = make_atd(num_sets=64, sampling=sampling, policy=policy,
                           kernels=False)
        assert "observe_many" in full.__dict__
        assert "observe" not in generic.__dict__
        sampled = []
        for i, line in enumerate(lines.tolist()):
            answer = full.observe(line)
            assert answer is generic.observe(line)
            if answer:
                sampled.append(i)
        assert atd_state(full) == atd_state(generic)
        assert sampled == np.flatnonzero(lines % sampling == 0).tolist()
        sliced = make_atd(num_sets=64, sampling=sampling, policy=policy)
        for k, (lo, hi) in enumerate(((0, 7), (7, 1200), (1200, 1200),
                                      (1200, 3000))):
            batch = lines[lo:hi]
            sliced.observe_many(batch if k % 2
                                else array("q", batch.tolist()))
        assert atd_state(sliced) == atd_state(full)

    def test_spread_update_keeps_the_generic_pair(self):
        """The literal-reading NRU ablation has no batch kernel: both
        entry points stay generic, ``observe_many`` looping ``observe``."""
        lines = np.random.default_rng(5).integers(0, 4096, size=3000)
        one = make_atd(num_sets=64, sampling=8, policy="nru",
                       spread_update=True)
        many = make_atd(num_sets=64, sampling=8, policy="nru",
                        spread_update=True)
        assert not {"observe", "observe_many"} & set(one.__dict__)
        answers = [one.observe(line) for line in lines.tolist()]
        assert answers == [not line & 7 for line in lines.tolist()]
        many.observe_many(array("q", lines.tolist()))
        assert atd_state(many) == atd_state(one)
        stock = make_atd(num_sets=64, sampling=8, policy="nru")
        stock.observe_many(array("q", lines.tolist()))
        assert stock.sdh._r != one.sdh._r      # the ablation is in effect


class TestProfilingFlow:
    def test_miss_records_a_plus_one(self):
        atd = make_atd()
        atd.observe(0)
        assert atd.sdh.register(atd.assoc + 1) == 1

    def test_hit_records_distance(self):
        atd = make_atd()
        atd.observe(0)
        atd.observe(0)     # immediate re-access: distance 1
        assert atd.sdh.register(1) == 1

    def test_capacity_behaviour(self):
        # 4-way ATD set: 5 distinct lines in one sampled set -> the 5th
        # access evicts the LRU; re-access of the evicted line misses.
        atd = make_atd(num_sets=32, assoc=4, sampling=4)
        lines = [i * 32 for i in range(5)]  # all map to (sampled) L2 set 0
        for line in lines:
            atd.observe(line)
        assert not atd.contains_line(lines[0])
        atd.observe(lines[0])
        assert atd.sdh.register(atd.assoc + 1) == 6

    def test_profiler_policy_mismatch(self):
        geometry = CacheGeometry(32 * 4 * 128, 4, 128)
        with pytest.raises(ValueError):
            ATD(geometry, 4, "nru", make_profiler("lru"))

    def test_reset(self):
        atd = make_atd()
        atd.observe(0)
        atd.reset()
        assert atd.sdh.total == 0
        assert atd.sampled_accesses == 0
        assert not atd.contains_line(0)


class TestStorage:
    def test_paper_size_quote(self):
        """§III: 1-in-32 sampling of a 2MB/16-way L2 -> 3.25 KB per core
        (47 tag bits + 1 valid bit per entry + per-set LRU state)."""
        geometry = CacheGeometry(2 * 1024 * 1024, 16, 128)
        atd = ATD(geometry, 32, "lru", make_profiler("lru"))
        assert atd.storage_bits() == int(3.25 * 1024 * 8)


class TestFillSemantics:
    """ATD fills must use ``touch_fill`` like the L2 it shadows (regression:
    ``touch`` diverges for insertion-controlled policies)."""

    class _StubProfiler:
        """Minimal profiler so the ATD can host any policy under test."""

        def __init__(self, policy_name):
            self.policy_name = policy_name

        def on_hit(self, policy, set_index, way, sdh):
            pass

    @pytest.mark.parametrize("policy", ["lru", "nru", "bt", "fifo"])
    def test_atd_shadows_cache_contents(self, policy):
        from repro.cache.cache import SetAssociativeCache

        geometry = CacheGeometry(8 * 4 * 128, 4, 128)
        atd = ATD(geometry, 1, policy, self._StubProfiler(policy),
                  rng=np.random.default_rng(0))
        cache = SetAssociativeCache(geometry, policy,
                                    rng=np.random.default_rng(0))
        rng = np.random.default_rng(3)
        for line in rng.integers(0, 128, size=5000):
            line = int(line)
            # An unsampled single-core ATD is an exact tag shadow of the
            # cache: residency must agree before every access.
            assert atd.contains_line(line) == cache.contains_line(line)
            atd.observe(line)
            cache.access_line_hit(line)
