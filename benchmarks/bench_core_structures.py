"""Micro-benchmarks of the core data structures.

These measure raw operation rates of the building blocks (per-access
cache accesses and ATD observations — the policy, scheme and profiler
classes the reference engine steps — the partition selectors and the
trace generator), independent of any figure, and carry no floor: report
jobs run the batch kernels (``benchmarks/record.py engine``).

``TestTagStateRepresentation`` holds the microbenches behind the array
core's representation choices (``repro.cache.state.TagStore``): one
process-wide open-addressed dict vs a dict per set for the tag lookup, and
Python-list vs numpy scalar element access for the flat state arrays.
"""

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import SmallLRUCache
from repro.core.buddy import best_subcube_allocation
from repro.core.lookahead import lookahead_partition
from repro.core.minmisses import minmisses_partition
from repro.profiling.atd import ATD
from repro.profiling.monitor import ProfilingSystem
from repro.profiling.profilers import make_profiler
from repro.workloads.generator import generate_trace

GEOMETRY = CacheGeometry(128 * 16 * 128, 16, 128)  # 128 sets x 16 ways
STREAM = [int(x) for x in
          np.random.default_rng(0).integers(0, 4096, size=20_000)]

#: Every line lands in a sampled ATD set (multiples of the sampling ratio):
#: measures the directory/profiler machinery, not the sampling filter.
SAMPLED_STREAM = [int(x) * 8 for x in
                  np.random.default_rng(7).integers(0, 512, size=20_000)]


# The three paper policies plus one extension policy (fifo).
@pytest.mark.parametrize("policy", ["lru", "nru", "bt", "fifo"])
def test_cache_access_rate(benchmark, policy):
    cache = SetAssociativeCache(GEOMETRY, policy,
                                rng=np.random.default_rng(1))

    def run():
        access = cache.access_line_hit
        for line in STREAM:
            access(line)

    benchmark(run)
    assert cache.stats.total_accesses >= len(STREAM)


def test_l1_access_rate(benchmark):
    l1 = SmallLRUCache(CacheGeometry(32 * 2 * 128, 2, 128))

    def run():
        access = l1.access_line_hit
        for line in STREAM:
            access(line)

    benchmark(run)


def test_l1_bulk_access_rate(benchmark):
    """The batched engine's prefilter path (the L1's ``prefilter`` kernel)."""
    l1 = SmallLRUCache(CacheGeometry(32 * 2 * 128, 2, 128))
    stream = np.asarray(STREAM, dtype=np.int64)

    def run():
        l1.access_lines_hit(stream)

    benchmark(run)
    assert l1.stats.total_accesses >= len(STREAM)


@pytest.mark.parametrize("policy", ["lru", "nru", "bt"])
def test_atd_observe_rate(benchmark, policy):
    """Fully-sampled stream: the ATD directory + profiler machinery."""
    atd = ATD(GEOMETRY, 8, policy, make_profiler(policy),
              rng=np.random.default_rng(2))

    def run():
        observe = atd.observe
        for line in SAMPLED_STREAM:
            observe(line)

    benchmark(run)
    assert atd.sampled_accesses > 0
    assert atd.skipped_accesses == 0


@pytest.mark.parametrize("policy", ["lru", "nru", "bt"])
def test_atd_observe_mixed_rate(benchmark, policy):
    """Natural 1-in-8 stream: 7/8 of the calls only hit the skip filter."""
    atd = ATD(GEOMETRY, 8, policy, make_profiler(policy),
              rng=np.random.default_rng(2))

    def run():
        observe = atd.observe
        for line in STREAM:
            observe(line)

    benchmark(run)
    assert atd.sampled_accesses > 0


class TestTagStateRepresentation:
    """The benchmarks behind the TagStore representation choices.

    Each case performs the per-access lookup + reindex work of the tag
    path in isolation so the representations compare head-to-head; the
    winners (single open-addressed dict, Python-list scalar state) are
    what ``repro.cache.state`` implements.
    """

    SETS, ASSOC = 128, 16

    def test_lookup_single_dict(self, benchmark):
        table = {line: line & 15 for line in range(0, 4096, 2)}

        def run():
            get = table.get
            for line in STREAM:
                get(line)

        benchmark(run)

    def test_lookup_dict_per_set(self, benchmark):
        maps = [dict() for _ in range(self.SETS)]
        for line in range(0, 4096, 2):
            maps[line & (self.SETS - 1)][line] = line & 15
        mask = self.SETS - 1

        def run():
            for line in STREAM:
                maps[line & mask].get(line)

        benchmark(run)

    def test_scalar_state_python_list(self, benchmark):
        state = [0] * (self.SETS * self.ASSOC)
        mask = self.SETS - 1

        def run():
            for line in STREAM:
                i = (line & mask) * 16 + (line & 15)
                state[i] = state[i] + 1

        benchmark(run)

    def test_scalar_state_numpy_array(self, benchmark):
        state = np.zeros(self.SETS * self.ASSOC, dtype=np.int64)
        mask = self.SETS - 1

        def run():
            for line in STREAM:
                i = (line & mask) * 16 + (line & 15)
                state[i] = state[i] + 1

        benchmark(run)


#: Thread counts of the selector rates: the reports' boundaries are mostly
#: 2- and 4-thread, the paper's largest mixes 8-thread.
SELECTOR_THREADS = [2, 4, 8]


@pytest.mark.parametrize("threads", SELECTOR_THREADS)
def test_minmisses_dp_rate(benchmark, threads):
    rng = np.random.default_rng(3)
    curves = np.sort(rng.integers(0, 10**6, (threads, 17)), axis=1)[:, ::-1]
    counts = benchmark(minmisses_partition, curves.astype(float), 16)
    assert sum(counts) == 16


def test_lookahead_rate(benchmark):
    rng = np.random.default_rng(4)
    curves = np.sort(rng.integers(0, 10**6, (8, 17)), axis=1)[:, ::-1]
    counts = benchmark(lookahead_partition, curves.astype(float), 16)
    assert sum(counts) == 16


@pytest.mark.parametrize("threads", SELECTOR_THREADS)
def test_subcube_dp_rate(benchmark, threads):
    rng = np.random.default_rng(5)
    curves = np.sort(rng.integers(0, 10**6, (threads, 17)), axis=1)[:, ::-1]
    alloc = benchmark(best_subcube_allocation, curves.astype(float), 16)
    assert sum(alloc.counts) == 16


def test_miss_curves_rate(benchmark):
    """One boundary's curve read: 8 threads' SDH registers, 16 ways."""
    system = ProfilingSystem(8, GEOMETRY, "lru", sampling=8, seed=6)
    for core in range(8):
        for line in SAMPLED_STREAM[core * 2_000:(core + 1) * 2_000]:
            system.observe(core, line)
    curves = benchmark(system.miss_curves)
    assert curves.shape == (8, 17)


def test_trace_generation_rate(benchmark):
    trace = benchmark(generate_trace, "mcf", 100_000, 2048, 7)
    assert len(trace) == 100_000
