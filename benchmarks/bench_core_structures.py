"""Micro-benchmarks of the core data structures.

These measure raw operation rates of the building blocks (cache accesses
under each replacement policy, ATD observation, the partition selectors and
the trace generator), independent of any figure.
``benchmarks/record.py core`` runs the same setups without the
pytest-benchmark harness and records them to ``BENCH_core.json``.

``TestTagStateRepresentation`` holds the microbenches behind the array
core's representation choices (``repro.cache.state.TagStore``): one
process-wide open-addressed dict vs a dict per set for the tag lookup, and
Python-list vs numpy scalar element access for the flat state arrays.
``TestLRUOrderRepresentation`` is the same for ``LRUPolicy``'s recency
order: flat per-set segments vs one short list per set.
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
from repro.profiling.profilers import make_profiler
from repro.workloads.generator import generate_trace

GEOMETRY = CacheGeometry(128 * 16 * 128, 16, 128)  # 128 sets x 16 ways
STREAM = [int(x) for x in
          np.random.default_rng(0).integers(0, 4096, size=20_000)]

#: Every line lands in a sampled ATD set (multiples of the sampling ratio):
#: measures the directory/profiler machinery, not the sampling filter.
SAMPLED_STREAM = [int(x) * 8 for x in
                  np.random.default_rng(7).integers(0, 512, size=20_000)]


# The three kernelised policies plus one generic-path row (fifo).
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
    """The batched engine's prefilter path (vectorised 2-way LRU)."""
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


class TestLRUOrderRepresentation:
    """The pair behind ``LRUPolicy``'s recency-order layout.

    Each case performs the move-to-front of an LRU hit in isolation (every
    access hits way ``(line >> 7) & 15`` of set ``line & mask``, so the
    hit depth is uniform — the worst case for both).  The winner —
    one short MRU-first list per set, ``remove`` + ``insert`` — is what
    ``repro.cache.replacement.lru`` and the ``lru`` fragments of
    ``repro.cache.transitions`` implement; the flat ``set * assoc + slot``
    segments are what they replaced.
    """

    SETS, ASSOC = 128, 16

    def test_promote_flat_segments(self, benchmark):
        assoc, mask = self.ASSOC, self.SETS - 1
        order = list(range(assoc)) * self.SETS
        order_index = order.index

        def run():
            for line in STREAM:
                way = (line >> 7) & 15
                row = (line & mask) * assoc
                pos = order_index(way, row, row + assoc)
                if pos != row:
                    order[row + 1:pos + 1] = order[row:pos]
                    order[row] = way

        benchmark(run)

    def test_promote_list_per_set(self, benchmark):
        mask = self.SETS - 1
        orders = [list(range(self.ASSOC)) for _ in range(self.SETS)]

        def run():
            for line in STREAM:
                way = (line >> 7) & 15
                o = orders[line & mask]
                if o[0] != way:
                    o.remove(way)
                    o.insert(0, way)

        benchmark(run)


def test_minmisses_dp_rate(benchmark):
    rng = np.random.default_rng(3)
    curves = np.sort(rng.integers(0, 10**6, (8, 17)), axis=1)[:, ::-1]
    counts = benchmark(minmisses_partition, curves.astype(float), 16)
    assert sum(counts) == 16


def test_lookahead_rate(benchmark):
    rng = np.random.default_rng(4)
    curves = np.sort(rng.integers(0, 10**6, (8, 17)), axis=1)[:, ::-1]
    counts = benchmark(lookahead_partition, curves.astype(float), 16)
    assert sum(counts) == 16


def test_subcube_dp_rate(benchmark):
    rng = np.random.default_rng(5)
    curves = np.sort(rng.integers(0, 10**6, (8, 17)), axis=1)[:, ::-1]
    alloc = benchmark(best_subcube_allocation, curves.astype(float), 16)
    assert sum(alloc.counts) == 16


def test_trace_generation_rate(benchmark):
    trace = benchmark(generate_trace, "mcf", 100_000, 2048, 7)
    assert len(trace) == 100_000
