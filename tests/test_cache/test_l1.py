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


def hit_flags(stream, width):
    """Per-access hit flags of a window from its miss stream."""
    flags = np.ones(width, dtype=bool)
    flags[np.arange(len(stream.gaps)) + np.cumsum(stream.gaps)] = False
    return flags


class TestBulkAccess:
    """access_lines_hit must be exactly per-element."""

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_bulk_matches_sequential(self, assoc, rng):
        g = geometry(num_sets=4, assoc=assoc)
        seq = SmallLRUCache(g)
        bulk = SmallLRUCache(g)
        lines = rng.integers(0, 12 * assoc, size=4000)
        expected = np.array([seq.access_line_hit(int(x)) for x in lines])
        stream = bulk.access_lines_hit(lines)
        assert np.array_equal(expected, hit_flags(stream, len(lines)))
        assert stream.lines.tolist() == lines[~expected].tolist()
        assert stream._fields == ("gaps", "lines", "tail")
        assert stream.tail == len(lines) - 1 - np.flatnonzero(~expected)[-1]
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
        parts = [hit_flags(chunked.access_lines_hit(lines[i:i + 700]),
                           len(lines[i:i + 700]))
                 for i in range(0, 5000, 700)]
        assert np.array_equal(expected, np.concatenate(parts))
        for s in range(4):
            assert seq.stack_of(s) == chunked.stack_of(s)

    def test_bulk_empty(self):
        l1 = SmallLRUCache(geometry())
        stream = l1.access_lines_hit(np.empty(0, dtype=np.int64))
        assert len(stream.gaps) == len(stream.lines) == stream.tail == 0
        assert l1.stats.accesses[0] == 0

    def test_bulk_after_writes_stays_exact(self, rng):
        """Only the per-access path writes back: over dirty lines the bulk
        path refuses a window and changes nothing; once reads stepped
        per access have evicted them (write-backs counted), it walks the
        rest exactly as the per-access path does."""
        g = geometry(num_sets=2, assoc=2)
        seq = SmallLRUCache(g)
        bulk = SmallLRUCache(g)
        for cache in (seq, bulk):
            cache.access_line_rw(0, True)
            cache.access_line_rw(2, True)
        lines = rng.integers(0, 12, size=1000)
        with pytest.raises(ValueError, match="holds a dirty line"):
            bulk.access_lines_hit(lines)
        assert bulk._slots == seq._slots and bulk._dirty == seq._dirty
        assert bulk.stats.accesses == seq.stats.accesses == [2]
        expected = [seq.access_line_hit(int(x)) for x in lines]
        stepped = 0
        while 1 in bulk._dirty:
            assert bulk.access_line_hit(int(lines[stepped])) \
                == expected[stepped]
            stepped += 1
        got = hit_flags(bulk.access_lines_hit(lines[stepped:]),
                        len(lines) - stepped)
        assert np.array_equal(np.array(expected[stepped:]), got)
        assert bulk.stats.writebacks == seq.stats.writebacks == [2]
        assert bulk._slots == seq._slots


class TestWritebacks:
    def test_read_eviction_of_a_dirty_line_writes_it_back_once(self):
        """A read that evicts a dirty line counts its writeback, and the
        line's dirty flag leaves with it: refilled clean and evicted
        again, it is not written back a second time.  (Once the read
        path dropped the writeback and left the line marked dirty.)"""
        l1 = SmallLRUCache(geometry(num_sets=2, assoc=1))
        assert l1.access_line_rw(0, True) == (False, None)
        assert not l1.access_line_hit(2)            # evicts dirty 0
        assert l1.stats.writebacks[0] == 1
        assert l1.access_line_rw(0, False) == (False, None)
        assert not l1.is_dirty(0)
        assert l1.access_line_rw(2, False) == (False, None)
        assert l1.stats.writebacks[0] == 1

    def test_a_one_way_l1_shifts_nothing_while_pinned(self):
        """At associativity 1 a miss has no slot to shift: the walk skips
        the empty slice move CPython refuses on an array with a buffer
        export — which the compiled ``prefilter`` holds while it lives."""
        l1 = SmallLRUCache(geometry(num_sets=2, assoc=1))
        with memoryview(l1._slots), memoryview(l1._dirty):
            assert l1.access_line_rw(0, True) == (False, None)
            assert l1.access_line_rw(2, False) == (False, 0)
        assert list(l1._slots) == [2, -1] and list(l1._dirty) == [0, 0]
        assert l1.stats.writebacks[0] == 1


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
