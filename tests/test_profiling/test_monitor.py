"""Unit tests for ThreadMonitor and ProfilingSystem."""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.profiling.monitor import ProfilingSystem, ThreadMonitor


def geometry(num_sets=32, assoc=4):
    return CacheGeometry(num_sets * assoc * 128, assoc, 128)


class TestThreadMonitor:
    def test_miss_curve_shape(self):
        monitor = ThreadMonitor(geometry(), "lru", sampling=4)
        for line in range(0, 128, 4):  # sampled sets only
            monitor.observe(line)
        curve = monitor.miss_curve()
        assert len(curve) == 5
        assert curve[0] >= curve[-1]

    def test_halve(self):
        monitor = ThreadMonitor(geometry(), "lru", sampling=4)
        monitor.observe(0)       # miss
        for _ in range(4):
            monitor.observe(0)   # distance-1 hits
        monitor.halve()
        assert monitor.sdh.register(1) == 2   # 4 >> 1
        assert monitor.sdh.register(5) == 0   # 1 >> 1

    def test_nru_options_forwarded(self):
        monitor = ThreadMonitor(geometry(), "nru", sampling=4,
                                nru_scaling=0.75, nru_spread_update=True)
        assert monitor.atd.profiler.scaling == 0.75
        assert monitor.atd.profiler.spread_update


class TestProfilingSystem:
    def test_per_core_isolation(self):
        system = ProfilingSystem(2, geometry(), "lru", sampling=4)
        system.observe(0, 0)
        system.observe(0, 0)
        system.observe(1, 4)
        assert system[0].sdh.total == 2
        assert system[1].sdh.total == 1

    def test_skip_filter_counts(self):
        system = ProfilingSystem(1, geometry(), "lru", sampling=4)
        system.observe(0, 1)  # unsampled set
        assert system[0].atd.skipped_accesses == 1
        assert system[0].sdh.total == 0

    def test_miss_curves_matrix(self):
        system = ProfilingSystem(3, geometry(), "lru", sampling=4)
        curves = system.miss_curves()
        assert curves.shape == (3, 5)

    def test_miss_curves_stack_each_monitor(self):
        """One array op over every register file == each monitor's curve."""
        system = ProfilingSystem(3, geometry(), "nru", sampling=4, seed=5)
        rng = np.random.default_rng(5)
        for core in range(3):
            for line in rng.integers(0, 64, 400 * (core + 1)) * 4:
                system.observe(core, int(line))
        system.halve_all()
        curves = system.miss_curves()
        expected = np.stack([m.miss_curve() for m in system.monitors])
        assert curves.dtype == np.int64 and curves.flags.c_contiguous
        assert np.array_equal(curves, expected)
        assert curves[:, 0].tolist() == [m.sdh.total for m in system.monitors]

    def test_halve_all(self):
        system = ProfilingSystem(2, geometry(), "lru", sampling=4)
        system.observe(0, 0)       # miss
        for _ in range(4):
            system.observe(0, 0)   # distance-1 hits
        system.halve_all()
        assert system[0].sdh.register(1) == 2

    def test_storage_bits_scales_with_cores(self):
        one = ProfilingSystem(1, geometry(), "lru", sampling=4)
        four = ProfilingSystem(4, geometry(), "lru", sampling=4)
        assert four.storage_bits() == 4 * one.storage_bits()

    def test_len_and_getitem(self):
        system = ProfilingSystem(2, geometry(), "bt", sampling=4)
        assert len(system) == 2
        assert system[1].policy_name == "bt"
