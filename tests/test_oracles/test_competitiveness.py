"""Pseudo-LRU life-span bounds, checked on the policy classes.

The relative-competitiveness results for tree-PLRU and NRU (Monniaux &
Touzeau, arXiv:1811.01740; Kahlen & Reineke, arXiv:2503.16588) bound a
pseudo-LRU cache by LRU caches of fewer ways:

* an LRU cache of ``k`` ways per set hits exactly where the line's stack
  depth is at most ``k``;
* NRU keeps the two most recent distinct lines of a set: every hit of
  LRU(2) is an NRU(k) hit, ``k >= 2``;
* tree-PLRU keeps ``log2(k) + 1``: every hit of LRU(log2 k + 1) is a
  BT(k) hit;
* nothing misses less than Belady's MIN of the same ways.

The judges are :mod:`oracle_models`, which share no code with the
simulator.  Streams go through :class:`SetAssociativeCache`, one access
at a time, so these pin the classes the reference engine steps; the
whole-simulator counterparts are in ``test_partition_isolation.py``.
"""

from __future__ import annotations

from typing import List, Sequence

from hypothesis import given, settings, strategies as st

from oracle_models import opt_misses, stack_distances
from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.partition.allocation import (
    WayAllocation,
    even_subcube_allocation,
)
from repro.cache.partition.btvectors import BTVectorPartition
from repro.cache.partition.masks import MasksPartition
from repro.cache.replacement.base import POLICY_REGISTRY, make_policy
from repro.cache.replacement.bt import BTPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.nru import NRUPolicy
from repro.util.rng import make_rng

LINE_BYTES = 64


def geometry(num_sets: int, assoc: int) -> CacheGeometry:
    return CacheGeometry(num_sets * assoc * LINE_BYTES, assoc, LINE_BYTES)


def hit_flags(policy, num_sets: int, assoc: int,
              stream: Sequence[int]) -> List[bool]:
    """Per access, whether a fresh cache of ``policy`` hits."""
    cache = SetAssociativeCache(geometry(num_sets, assoc), policy)
    return [cache.access_line_hit(line) for line in stream]


def lifespan_violations(flags: Sequence[bool], depths: Sequence[float],
                        span: int) -> List[int]:
    """Accesses an LRU cache of ``span`` ways hits but the policy missed."""
    return [i for i, (hit, d) in enumerate(zip(flags, depths))
            if d <= span and not hit]


def log2(k: int) -> int:
    return k.bit_length() - 1


@st.composite
def set_streams(draw, sets=(1, 2, 4)):
    """``(num_sets, assoc, stream)``: a reference stream over a footprint
    of up to three times the cache, so every stack depth occurs."""
    num_sets = draw(st.sampled_from(sets))
    assoc = draw(st.sampled_from((2, 4, 8)))
    footprint = draw(st.integers(1, 3 * num_sets * assoc))
    stream = draw(st.lists(st.integers(0, footprint - 1),
                           min_size=1, max_size=200))
    return num_sets, assoc, stream


class TestUnpartitioned:
    @given(case=set_streams())
    @settings(max_examples=60, deadline=None)
    def test_lru_hits_are_the_stack_models(self, case):
        num_sets, assoc, stream = case
        depths = stack_distances(stream, num_sets)
        assert hit_flags("lru", num_sets, assoc, stream) == \
            [d <= assoc for d in depths]

    @given(case=set_streams())
    @settings(max_examples=60, deadline=None)
    def test_every_lru2_hit_is_an_nru_hit(self, case):
        num_sets, assoc, stream = case
        flags = hit_flags("nru", num_sets, assoc, stream)
        depths = stack_distances(stream, num_sets)
        assert lifespan_violations(flags, depths, 2) == []

    @given(case=set_streams())
    @settings(max_examples=60, deadline=None)
    def test_every_lru_log2k_plus_1_hit_is_a_bt_hit(self, case):
        num_sets, assoc, stream = case
        flags = hit_flags("bt", num_sets, assoc, stream)
        depths = stack_distances(stream, num_sets)
        assert lifespan_violations(flags, depths, log2(assoc) + 1) == []

    # DIP's set dueling needs two sets.
    @given(case=set_streams(sets=(2, 4)))
    @settings(max_examples=25, deadline=None)
    def test_no_policy_misses_less_than_opt(self, case):
        num_sets, assoc, stream = case
        floor = opt_misses(stream, num_sets, assoc)
        for name in sorted(POLICY_REGISTRY):
            policy = make_policy(name, num_sets, assoc,
                                 rng=make_rng(0, "oracle"))
            flags = hit_flags(policy, num_sets, assoc, stream)
            assert flags.count(False) >= floor, name


@st.composite
def partitioned_streams(draw):
    """``(policy, num_sets, ways per core, stream of (core, line))``:
    cores with disjoint lines, interleaved at random, under the policy's
    paper enforcement — masks for LRU and NRU, even BT subcubes for BT."""
    policy = draw(st.sampled_from(("lru", "nru", "bt")))
    num_sets = draw(st.sampled_from((1, 2, 4)))
    assoc = 8
    if policy == "bt":
        cores = draw(st.sampled_from((2, 4)))
        counts = [assoc // cores] * cores
    else:
        cores = draw(st.integers(2, 4))
        cuts = sorted(draw(st.lists(st.integers(1, assoc - 1), unique=True,
                                    min_size=cores - 1,
                                    max_size=cores - 1)))
        counts = [b - a for a, b in zip([0] + cuts, cuts + [assoc])]
    footprint = draw(st.integers(1, 3 * num_sets * assoc))
    stream = draw(st.lists(st.tuples(st.integers(0, cores - 1),
                                     st.integers(0, footprint - 1)),
                           min_size=1, max_size=300))
    return policy, num_sets, counts, stream


def partitioned_run(policy_name: str, num_sets: int, counts: Sequence[int],
                    stream) -> List[List[bool]]:
    """Per core, the hit flags of its own accesses in a shared cache."""
    assoc = sum(counts)
    cores = len(counts)
    policy = make_policy(policy_name, num_sets, assoc)
    if policy_name == "bt":
        scheme = BTVectorPartition(cores, num_sets, assoc, policy)
        scheme.apply(even_subcube_allocation(cores, assoc))
    else:
        scheme = MasksPartition(cores, num_sets, assoc)
        scheme.apply(WayAllocation.from_counts(counts, assoc))
    cache = SetAssociativeCache(geometry(num_sets, assoc), policy,
                                partition=scheme, num_cores=cores)
    flags: List[List[bool]] = [[] for _ in range(cores)]
    for core, line in stream:
        # Bits above the set index keep the cores' lines apart.
        flags[core].append(cache.access_line_hit(line + (core << 20), core))
    return flags


class TestPartitioned:
    @given(case=partitioned_streams())
    @settings(max_examples=60, deadline=None)
    def test_each_core_sees_a_private_cache_of_its_ways(self, case):
        """Under its enforcement a core's hits obey the bounds of a
        private cache of its ways, whatever the others do: LRU equals
        the stack model, NRU and BT keep their life spans, and none
        beats MIN."""
        policy, num_sets, counts, stream = case
        flags = partitioned_run(policy, num_sets, counts, stream)
        for core, ways in enumerate(counts):
            own = [line for c, line in stream if c == core]
            depths = stack_distances(own, num_sets)
            if policy == "lru":
                assert flags[core] == [d <= ways for d in depths], core
                continue
            span = min(2, ways) if policy == "nru" else log2(ways) + 1
            assert lifespan_violations(flags[core], depths, span) == [], core
            assert flags[core].count(False) >= \
                opt_misses(own, num_sets, ways), core


class SkipLeafBT(BTPolicy):
    """A BT whose promote leaves the leaf level's node as it was."""

    def touch(self, set_index, way, core, reset_domain=None):
        # Heap node n is bit n - 1; the leaf-level node above ``way`` is
        # node 2**(levels - 1) + way // 2.
        leaf = 1 << ((1 << (self.levels - 1)) + (way >> 1) - 1)
        self._tree[set_index] = ((self._tree[set_index]
                                  & (self._touch_keep[way] | leaf))
                                 | (self._touch_set[way] & ~leaf))


class ResetAllNRU(NRUPolicy):
    """An NRU whose reset also clears the line just accessed."""

    def touch(self, set_index, way, core, reset_domain=None):
        super().touch(set_index, way, core, reset_domain)
        if self._used[set_index] == 1 << way:
            self._used[set_index] = 0


class NoPromoteLRU(LRUPolicy):
    """An LRU that leaves the order alone on a hit: FIFO in disguise."""

    def touch(self, set_index, way, core, reset_domain=None):
        pass

    def touch_fill(self, set_index, way, core, reset_domain=None):
        LRUPolicy.touch(self, set_index, way, core, reset_domain)


class TestInjectedDefects:
    """The properties above fail on policies with a planted bug."""

    STREAMS = [[int(x) for x in make_rng(seed, "defects").integers(0, 30, 200)]
               for seed in range(20)]

    def violations(self, cls, span) -> int:
        found = 0
        for stream in self.STREAMS:
            flags = hit_flags(cls(2, 8), 2, 8, stream)
            depths = stack_distances(stream, 2)
            found += len(lifespan_violations(flags, depths, span))
        return found

    def test_bt_promote_that_skips_a_level_breaks_the_life_span(self):
        assert self.violations(BTPolicy, 4) == 0
        assert self.violations(SkipLeafBT, 4) > 0

    def test_nru_reset_that_clears_the_accessed_line_breaks_the_life_span(self):
        assert self.violations(NRUPolicy, 2) == 0
        assert self.violations(ResetAllNRU, 2) > 0

    def test_lru_without_promote_leaves_the_stack_model(self):
        stream = self.STREAMS[0]
        depths = stack_distances(stream, 2)
        model = [d <= 8 for d in depths]
        assert hit_flags(LRUPolicy(2, 8), 2, 8, stream) == model
        assert hit_flags(NoPromoteLRU(2, 8), 2, 8, stream) != model
