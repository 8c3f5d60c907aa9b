"""Unit tests for SetAssociativeCache: hits, fills, eviction, partitioning."""

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.partition.allocation import WayAllocation
from repro.cache.partition.masks import MasksPartition
from repro.cache.partition.owner_counters import OwnerCountersPartition
from repro.cache.replacement.lru import LRUPolicy


def make_cache(num_sets=4, assoc=4, policy="lru", partition=None, num_cores=1):
    geometry = CacheGeometry(num_sets * assoc * 128, assoc, 128)
    return SetAssociativeCache(geometry, policy, partition=partition,
                               num_cores=num_cores,
                               rng=np.random.default_rng(0))


class TestBasics:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert not cache.access_line(100).hit
        assert cache.access_line(100).hit

    def test_byte_address_api(self):
        cache = make_cache()
        cache.access(100 * 128)
        assert cache.access_line(100).hit

    def test_distinct_sets(self):
        cache = make_cache(num_sets=4)
        cache.access_line(0)
        assert not cache.access_line(1).hit

    def test_fills_use_invalid_ways_first(self):
        cache = make_cache(num_sets=1, assoc=4)
        for i in range(4):
            result = cache.access_line(i)
            assert result.evicted_line is None
        assert cache.occupancy() == 4

    def test_eviction_after_full(self):
        cache = make_cache(num_sets=1, assoc=4)
        for i in range(4):
            cache.access_line(i)
        result = cache.access_line(4)
        assert not result.hit
        assert result.evicted_line == 0  # LRU
        assert not cache.contains_line(0)

    def test_lru_order_respected(self):
        cache = make_cache(num_sets=1, assoc=4)
        for i in range(4):
            cache.access_line(i)
        cache.access_line(0)          # promote 0
        result = cache.access_line(5)
        assert result.evicted_line == 1

    def test_stats(self):
        cache = make_cache()
        cache.access_line(0)
        cache.access_line(0)
        cache.access_line(4)
        assert cache.stats.total_accesses == 3
        assert cache.stats.total_hits == 1
        assert cache.stats.total_misses == 2
        assert cache.stats.miss_ratio() == pytest.approx(2 / 3)

    def test_per_core_stats(self):
        cache = make_cache(num_cores=2)
        cache.access_line(0, core=0)
        cache.access_line(0, core=1)
        assert cache.stats.accesses == [1, 1]
        assert list(cache.stats.misses) == [1, 0]

    def test_policy_geometry_mismatch(self):
        geometry = CacheGeometry(4 * 4 * 128, 4, 128)
        with pytest.raises(ValueError):
            SetAssociativeCache(geometry, LRUPolicy(2, 4))

    def test_flush(self):
        cache = make_cache()
        cache.access_line(0)
        cache.flush()
        assert cache.occupancy() == 0
        assert not cache.contains_line(0)


class TestInvalidate:
    def test_invalidate_removes(self):
        cache = make_cache()
        cache.access_line(0)
        assert cache.invalidate_line(0)
        assert not cache.contains_line(0)

    def test_invalidate_absent(self):
        cache = make_cache()
        assert not cache.invalidate_line(0)

    def test_invalidated_way_reused(self):
        cache = make_cache(num_sets=1, assoc=2)
        cache.access_line(0)
        cache.access_line(1)
        cache.invalidate_line(0)
        result = cache.access_line(2)
        assert result.evicted_line is None  # reused the invalid way


class TestFastPathEquivalence:
    """access_line_hit must be behaviourally identical to access_line."""

    @pytest.mark.parametrize("policy", ["lru", "nru", "bt"])
    def test_same_hit_sequence(self, policy, rng):
        ref = make_cache(num_sets=4, assoc=4, policy=policy)
        fast = make_cache(num_sets=4, assoc=4, policy=policy)
        stream = [int(x) for x in rng.integers(0, 64, size=2000)]
        for line in stream:
            assert ref.access_line(line).hit == fast.access_line_hit(line)
        assert ref.stats.total_hits == fast.stats.total_hits
        assert ref.stats.total_misses == fast.stats.total_misses

    def test_same_content_with_partition(self, rng):
        def build():
            scheme = MasksPartition(2, 4, 4)
            scheme.apply(WayAllocation.from_counts([1, 3], 4))
            return make_cache(num_sets=4, assoc=4, partition=scheme,
                              num_cores=2)
        ref, fast = build(), build()
        stream = [(int(x), int(c)) for x, c in
                  zip(rng.integers(0, 64, 2000), rng.integers(0, 2, 2000))]
        for line, core in stream:
            assert (ref.access_line(line, core).hit
                    == fast.access_line_hit(line, core))
        for s in range(4):
            assert sorted(ref.resident_lines(s)) == sorted(fast.resident_lines(s))


class TestPartitionedCache:
    def test_fills_stay_in_mask(self, rng):
        scheme = MasksPartition(2, 4, 4)
        scheme.apply(WayAllocation.from_counts([1, 3], 4))
        cache = make_cache(num_sets=4, assoc=4, partition=scheme, num_cores=2)
        for line, core in zip(rng.integers(0, 256, 3000),
                              rng.integers(0, 2, 3000)):
            result = cache.access_line(int(line), int(core))
            if not result.hit:
                assert (scheme.candidate_mask(result.set_index, int(core))
                        >> result.way) & 1

    def test_hits_allowed_anywhere(self):
        scheme = MasksPartition(2, 1, 4)
        scheme.apply(WayAllocation.from_counts([2, 2], 4))
        cache = make_cache(num_sets=1, assoc=4, partition=scheme, num_cores=2)
        cache.access_line(10, core=0)   # fills in core 0's ways
        assert cache.access_line(10, core=1).hit  # core 1 may hit there

    def test_counters_converge_to_quota(self, rng):
        scheme = OwnerCountersPartition(2, 2, 4)
        scheme.apply(WayAllocation.from_counts([1, 3], 4))
        cache = make_cache(num_sets=2, assoc=4, partition=scheme, num_cores=2)
        # Both cores hammer the same sets with disjoint large footprints.
        for i in range(2000):
            cache.access_line(int(rng.integers(0, 64)), 0)
            cache.access_line(1024 + int(rng.integers(0, 64)), 1)
        for s in range(2):
            assert scheme.owned_count(s, 0) <= 1 + 0  # quota 1
            assert scheme.owned_count(s, 1) >= 3      # quota 3

    def test_masks_occupancy_converges(self, rng):
        scheme = MasksPartition(2, 2, 8)
        scheme.apply(WayAllocation.from_counts([2, 6], 8))
        cache = make_cache(num_sets=2, assoc=8, partition=scheme, num_cores=2)
        for i in range(4000):
            cache.access_line(int(rng.integers(0, 128)), 0)
            cache.access_line(4096 + int(rng.integers(0, 128)), 1)
        # Core 0's lines can only live in its 2 ways per set eventually.
        for s in range(2):
            core0_lines = [line for line in cache.resident_lines(s)
                           if line < 4096]
            assert len(core0_lines) <= 2
