"""Tests for the write-back / writeback-traffic extension.

The paper's methodology is read-only; these tests pin (a) that the write
path is behaviourally identical to the read path for hits/misses, (b) the
dirty-bit and writeback bookkeeping at each level, and (c) that read-only
runs are byte-identical with the extension present.
"""

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy, HierarchyAccess
from repro.cache.l1 import SmallLRUCache
from repro.workloads.trace import Trace
from repro.workloads.writes import overlay_workload_writes, overlay_writes


def tiny_geometry(num_sets=4, assoc=4):
    return CacheGeometry(num_sets * assoc * 128, assoc, 128)


class TestCacheDirtyBits:
    def test_write_hit_marks_dirty(self):
        cache = SetAssociativeCache(tiny_geometry(), "lru")
        cache.access_line_rw(5, write=False)
        assert not cache.is_dirty(5)
        cache.access_line_rw(5, write=True)
        assert cache.is_dirty(5)

    def test_write_fill_marks_dirty(self):
        cache = SetAssociativeCache(tiny_geometry(), "lru")
        cache.access_line_rw(5, write=True)
        assert cache.is_dirty(5)

    def test_read_fill_clears_stale_dirty(self):
        """A way whose previous occupant was dirty must not leak the bit."""
        geometry = tiny_geometry(num_sets=1, assoc=2)
        cache = SetAssociativeCache(geometry, "lru")
        cache.access_line_rw(0, write=True)
        cache.access_line_rw(1, write=True)
        cache.access_line_rw(2, write=False)   # evicts dirty line 0
        assert cache.stats.total_writebacks == 1
        assert not cache.is_dirty(2)

    @pytest.mark.parametrize("entry", ["access_line_hit", "access_line"])
    @pytest.mark.parametrize("kernels", [True, False])
    def test_every_entry_point_shares_the_miss_path(self, entry, kernels):
        """A read through the read-only entry points that evicts a dirty
        line installs the new one clean and counts the writeback — the
        one miss path, whichever method evicts."""
        geometry = tiny_geometry(num_sets=1, assoc=2)
        cache = SetAssociativeCache(geometry, "lru", kernels=kernels)
        cache.access_line_rw(0, write=True)
        getattr(cache, entry)(1)
        getattr(cache, entry)(2)               # evicts dirty line 0
        assert not cache.contains_line(0)
        assert not cache.is_dirty(2)
        assert cache.dirty_lines() == 0
        assert cache.stats.total_writebacks == 1

    def test_dirty_eviction_counts_writeback(self):
        geometry = tiny_geometry(num_sets=1, assoc=2)
        cache = SetAssociativeCache(geometry, "lru")
        cache.access_line_rw(0, write=True)
        cache.access_line_rw(1, write=False)
        cache.access_line_rw(2, write=False)   # evicts dirty 0
        cache.access_line_rw(3, write=False)   # evicts clean 1
        assert cache.stats.total_writebacks == 1

    def test_write_back_line_marks_resident_dirty(self):
        cache = SetAssociativeCache(tiny_geometry(), "lru")
        cache.access_line_rw(9, write=False)
        assert cache.write_back_line(9)
        assert cache.is_dirty(9)

    def test_write_back_line_absent_returns_false(self):
        cache = SetAssociativeCache(tiny_geometry(), "lru")
        assert not cache.write_back_line(9)

    def test_invalidate_clears_dirty(self):
        cache = SetAssociativeCache(tiny_geometry(), "lru")
        cache.access_line_rw(9, write=True)
        cache.invalidate_line(9)
        cache.access_line_rw(9, write=False)
        assert not cache.is_dirty(9)

    def test_flush_clears_dirty(self):
        cache = SetAssociativeCache(tiny_geometry(), "lru")
        cache.access_line_rw(9, write=True)
        cache.flush()
        assert cache.dirty_lines() == 0

    def test_write_access_counter(self):
        cache = SetAssociativeCache(tiny_geometry(), "lru")
        cache.access_line_rw(1, write=True)
        cache.access_line_rw(1, write=False)
        cache.access_line_rw(1, write=True)
        assert cache.stats.write_accesses[0] == 2

    def test_rw_equivalent_to_read_path(self):
        """With write=False everywhere, access_line_rw must transition the
        cache exactly like access_line_hit."""
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 64, size=2000).tolist()
        a = SetAssociativeCache(tiny_geometry(), "lru")
        b = SetAssociativeCache(tiny_geometry(), "lru")
        for line in stream:
            assert a.access_line_hit(line) == b.access_line_rw(line, write=False)
        assert a.stats.total_misses == b.stats.total_misses

    def test_writes_do_not_change_hit_rate(self):
        """The write overlay only adds dirty bits, never different victims."""
        rng = np.random.default_rng(4)
        stream = rng.integers(0, 64, size=2000).tolist()
        flags = rng.random(2000) < 0.5
        a = SetAssociativeCache(tiny_geometry(), "lru")
        b = SetAssociativeCache(tiny_geometry(), "lru")
        for line, flag in zip(stream, flags):
            assert (a.access_line_rw(line, write=False)
                    == b.access_line_rw(line, write=bool(flag)))


class TestL1WriteBack:
    def test_dirty_victim_reported(self):
        geometry = tiny_geometry(num_sets=1, assoc=2)
        l1 = SmallLRUCache(geometry)
        l1.access_line_rw(0, write=True)
        l1.access_line_rw(1, write=False)
        hit, victim = l1.access_line_rw(2, write=False)
        assert not hit
        assert victim == 0
        assert l1.stats.writebacks[0] == 1

    def test_clean_victim_not_reported(self):
        geometry = tiny_geometry(num_sets=1, assoc=2)
        l1 = SmallLRUCache(geometry)
        l1.access_line_rw(0, write=False)
        l1.access_line_rw(1, write=False)
        hit, victim = l1.access_line_rw(2, write=False)
        assert victim is None

    def test_write_hit_marks_dirty(self):
        l1 = SmallLRUCache(tiny_geometry())
        l1.access_line_rw(3, write=False)
        l1.access_line_rw(3, write=True)
        assert l1.is_dirty(3)

    def test_flush_drops_dirty(self):
        l1 = SmallLRUCache(tiny_geometry())
        l1.access_line_rw(3, write=True)
        l1.flush()
        assert not l1.is_dirty(3)

    def test_rw_equivalent_to_read_path(self):
        rng = np.random.default_rng(5)
        stream = rng.integers(0, 32, size=1500).tolist()
        a = SmallLRUCache(tiny_geometry())
        b = SmallLRUCache(tiny_geometry())
        for line in stream:
            hit_b, _ = b.access_line_rw(line, write=False)
            assert a.access_line_hit(line) == hit_b


class TestHierarchyWriteBack:
    def make(self, num_cores=1):
        l1 = tiny_geometry(num_sets=2, assoc=2)
        l2 = tiny_geometry(num_sets=4, assoc=4)
        return CacheHierarchy(num_cores, l1, l2, l2_policy="lru")

    def test_l1_victim_drains_to_l2(self):
        h = self.make()
        # Lines 0, 2, 4 share L1 set 0 (2 sets); all fit in the 16-line L2.
        h.access_line_rw(0, 0, write=True)
        h.access_line_rw(0, 2, write=False)
        h.access_line_rw(0, 4, write=False)   # L1 evicts dirty line 0
        assert h.writebacks_l1_to_l2 == 1
        assert h.l2.is_dirty(0)

    def test_writeback_bypasses_when_l2_lost_line(self):
        h = self.make()
        h.access_line_rw(0, 0, write=True)
        h.l2.invalidate_line(0)               # non-inclusive L2 dropped it
        h.access_line_rw(0, 2, write=False)
        h.access_line_rw(0, 4, write=False)   # dirty L1 victim, L2 miss
        assert h.writebacks_l1_to_mem == 1
        assert h.l2_writebacks_to_memory == 1

    def test_read_only_traffic_matches_plain_path(self):
        rng = np.random.default_rng(6)
        stream = rng.integers(0, 64, size=3000).tolist()
        a, b = self.make(), self.make()
        for line in stream:
            assert a.access_line(0, line) == b.access_line_rw(0, line, False)
        assert a.l2.stats.total_misses == b.l2.stats.total_misses
        assert b.writebacks_l1_to_l2 == 0
        assert b.l2_writebacks_to_memory == 0

    def test_levels_returned(self):
        h = self.make()
        assert h.access_line_rw(0, 0, write=True) == HierarchyAccess.MEM
        assert h.access_line_rw(0, 0, write=True) == HierarchyAccess.L1
        h.l1[0].flush()
        assert h.access_line_rw(0, 0, write=False) == HierarchyAccess.L2


class TestWriteOverlay:
    def make_trace(self):
        return Trace(name="t", lines=np.arange(100), ipm=4.0, cpi_base=1.0)

    def test_fraction_zero_is_read_only(self):
        t = overlay_writes(self.make_trace(), 0.0)
        assert t.writes is None
        assert t.write_fraction == 0.0

    def test_fraction_applied(self):
        t = overlay_writes(self.make_trace(), 1.0)
        assert t.write_fraction == 1.0

    def test_deterministic(self):
        a = overlay_writes(self.make_trace(), 0.3, seed=7)
        b = overlay_writes(self.make_trace(), 0.3, seed=7)
        assert np.array_equal(a.writes, b.writes)

    def test_addresses_untouched(self):
        base = self.make_trace()
        t = overlay_writes(base, 0.5)
        assert np.array_equal(t.lines, base.lines)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            overlay_writes(self.make_trace(), 1.5)

    def test_workload_overlay_distinct_streams(self):
        traces = [self.make_trace(), self.make_trace()]
        out = overlay_workload_writes(traces, 0.5, seed=1)
        assert not np.array_equal(out[0].writes, out[1].writes)

    def test_trace_save_load_roundtrip_with_writes(self, tmp_path):
        t = overlay_writes(self.make_trace(), 0.4, seed=2)
        path = str(tmp_path / "t.npz")
        t.save(path)
        loaded = Trace.load(path)
        assert np.array_equal(loaded.writes, t.writes)
        assert loaded.write_fraction == t.write_fraction

    def test_trace_rejects_mismatched_writes(self):
        with pytest.raises(ValueError):
            Trace(name="x", lines=np.arange(10), ipm=1.0, cpi_base=1.0,
                  writes=np.zeros(5, dtype=bool))
