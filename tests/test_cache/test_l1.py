"""SmallLRUCache: unit tests + equivalence with the generic LRU cache."""

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import SmallLRUCache


def geometry(num_sets=4, assoc=2):
    return CacheGeometry(num_sets * assoc * 128, assoc, 128)


class TestSmallLRU:
    def test_cold_miss_then_hit(self):
        l1 = SmallLRUCache(geometry())
        assert not l1.access_line_hit(5)
        assert l1.access_line_hit(5)

    def test_lru_eviction(self):
        l1 = SmallLRUCache(geometry(num_sets=1, assoc=2))
        l1.access_line_hit(0)
        l1.access_line_hit(1)
        l1.access_line_hit(0)       # 1 becomes LRU
        l1.access_line_hit(2)       # evicts 1
        assert l1.contains_line(0)
        assert not l1.contains_line(1)

    def test_mru_first_order(self):
        l1 = SmallLRUCache(geometry(num_sets=1, assoc=2))
        l1.access_line_hit(0)
        l1.access_line_hit(1)
        assert l1.stack_of(0) == [1, 0]

    def test_stats(self):
        l1 = SmallLRUCache(geometry())
        l1.access_line_hit(0)
        l1.access_line_hit(0)
        assert l1.stats.accesses[0] == 2
        assert l1.stats.hits[0] == 1
        assert l1.stats.misses[0] == 1

    def test_flush(self):
        l1 = SmallLRUCache(geometry())
        l1.access_line_hit(0)
        l1.flush()
        assert l1.occupancy() == 0

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_equivalent_to_generic_lru(self, assoc, rng):
        """Same hits and same content as SetAssociativeCache('lru')."""
        g = geometry(num_sets=4, assoc=assoc)
        fast = SmallLRUCache(g)
        ref = SetAssociativeCache(g, "lru", rng=np.random.default_rng(0))
        for line in rng.integers(0, 10 * assoc, size=3000):
            line = int(line)
            assert fast.access_line_hit(line) == ref.access_line(line).hit
        for s in range(4):
            assert sorted(fast.stack_of(s)) == sorted(ref.resident_lines(s))


class TestBulkAccess:
    """access_lines_hit / access_lines_rw must be exactly per-element."""

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_bulk_matches_sequential(self, assoc, rng):
        g = geometry(num_sets=4, assoc=assoc)
        seq = SmallLRUCache(g)
        bulk = SmallLRUCache(g)
        lines = rng.integers(0, 12 * assoc, size=4000)
        expected = np.array([seq.access_line_hit(int(x)) for x in lines])
        got = bulk.access_lines_hit(lines)
        assert np.array_equal(expected, got)
        for field in ("accesses", "hits", "misses", "evictions"):
            assert getattr(seq.stats, field) == getattr(bulk.stats, field)
        for s in range(4):
            assert seq.stack_of(s) == bulk.stack_of(s)

    def test_bulk_state_carries_across_chunks(self, rng):
        g = geometry(num_sets=4, assoc=2)
        seq = SmallLRUCache(g)
        chunked = SmallLRUCache(g)
        lines = rng.integers(0, 24, size=5000)
        expected = np.array([seq.access_line_hit(int(x)) for x in lines])
        parts = [chunked.access_lines_hit(lines[i:i + 700])
                 for i in range(0, 5000, 700)]
        assert np.array_equal(expected, np.concatenate(parts))
        for s in range(4):
            assert seq.stack_of(s) == chunked.stack_of(s)

    def test_bulk_empty(self):
        l1 = SmallLRUCache(geometry())
        assert len(l1.access_lines_hit(np.empty(0, dtype=np.int64))) == 0
        assert l1.stats.accesses[0] == 0

    def test_bulk_rw_matches_sequential(self, rng):
        g = geometry(num_sets=4, assoc=2)
        seq = SmallLRUCache(g)
        bulk = SmallLRUCache(g)
        lines = rng.integers(0, 24, size=4000)
        writes = rng.random(4000) < 0.4
        exp_flags = []
        exp_victims = []
        for line, write in zip(lines, writes):
            hit, victim = seq.access_line_rw(int(line), bool(write))
            exp_flags.append(hit)
            exp_victims.append(-1 if victim is None else victim)
        flags, victims = bulk.access_lines_rw(lines, writes)
        assert np.array_equal(np.array(exp_flags), flags)
        assert np.array_equal(np.array(exp_victims), victims)
        for field in ("accesses", "hits", "misses", "evictions",
                      "write_accesses", "writebacks"):
            assert getattr(seq.stats, field) == getattr(bulk.stats, field)

    def test_bulk_rw_read_only_fast_path(self, rng):
        """writes=None over a clean cache takes the vectorised path."""
        g = geometry(num_sets=4, assoc=2)
        seq = SmallLRUCache(g)
        bulk = SmallLRUCache(g)
        lines = rng.integers(0, 24, size=3000)
        expected = np.array([seq.access_line_hit(int(x)) for x in lines])
        flags, victims = bulk.access_lines_rw(lines, None)
        assert np.array_equal(expected, flags)
        assert np.all(victims == -1)

    def test_bulk_after_writes_stays_exact(self, rng):
        """Once dirty lines exist, the read-only bulk path must not take the
        vectorised shortcut (it cannot track dirty evictions)."""
        g = geometry(num_sets=2, assoc=2)
        seq = SmallLRUCache(g)
        bulk = SmallLRUCache(g)
        for cache in (seq, bulk):
            cache.access_line_rw(0, True)
            cache.access_line_rw(2, True)
        lines = rng.integers(0, 12, size=1000)
        expected = np.array([seq.access_line_hit(int(x)) for x in lines])
        got = bulk.access_lines_hit(lines)
        assert np.array_equal(expected, got)


class TestDerivedEvictionStats:
    """hits/evictions are derived (accesses-misses / misses-fills_invalid);
    the hit and rw paths must account invalid fills identically."""

    def test_rw_path_counts_cold_fills_like_hit_path(self, rng):
        g = geometry(num_sets=2, assoc=2)
        ro = SmallLRUCache(g)
        rw = SmallLRUCache(g)
        lines = [0, 4, 8, 0, 12]   # one set: 2 cold fills, 3 evictions
        for line in lines:
            ro.access_line_hit(line)
            rw.access_line_rw(line, False)
        assert ro.stats.fills_invalid == rw.stats.fills_invalid
        assert ro.stats.evictions == rw.stats.evictions
        assert ro.stats.fills_invalid[0] == 2
        assert ro.stats.evictions[0] == 3
        more = rng.integers(0, 16, size=800)
        for line in more.tolist():
            ro.access_line_hit(int(line))
            rw.access_line_rw(int(line), bool(line & 1))
        assert ro.stats.evictions == rw.stats.evictions
        assert ro.stats.hits == rw.stats.hits


class TestSnapshotRestore:
    """The state image the engines' window cache keys on and restores."""

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_restored_cache_behaves_like_the_original(self, rng, assoc):
        g = geometry(num_sets=4, assoc=assoc)
        original = SmallLRUCache(g)
        lines = rng.integers(0, 40, size=600)
        writes = rng.random(600) < 0.3
        original.access_lines_rw(lines[:300], writes[:300])
        image = original.snapshot()
        hash(image)
        clone = SmallLRUCache(g)
        clone.access_lines_hit(rng.integers(100, 140, size=50))   # junk
        stacks = clone._sets
        clone.restore(image)
        assert clone._sets is stacks          # in place
        assert clone.snapshot() == image
        assert [clone.stack_of(s) for s in range(4)] == \
            [original.stack_of(s) for s in range(4)]
        f1, v1 = original.access_lines_rw(lines[300:], writes[300:])
        f2, v2 = clone.access_lines_rw(lines[300:], writes[300:])
        assert np.array_equal(f1, f2) and np.array_equal(v1, v2)
        assert clone.snapshot() == original.snapshot()

    def test_image_is_a_copy_and_excludes_statistics(self):
        l1 = SmallLRUCache(geometry())
        l1.access_line_rw(5, True)
        image = l1.snapshot()
        l1.access_line_hit(9)
        l1.access_line_hit(13)
        assert l1.snapshot() != image
        accesses = l1.stats.accesses[0]
        l1.restore(image)
        assert l1.snapshot() == image and l1.is_dirty(5)
        assert l1.stats.accesses[0] == accesses

    def test_geometry_mismatch_rejected(self):
        image = SmallLRUCache(geometry(num_sets=2)).snapshot()
        with pytest.raises(ValueError, match="sets"):
            SmallLRUCache(geometry(num_sets=4)).restore(image)
