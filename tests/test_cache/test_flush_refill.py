"""Flush / invalidate consistency under the flat array core (regressions).

A ``flush()`` must leave tag store, replacement-policy state and partition
state mutually consistent: the tag store empty, the policy cold, per-line
ownership mirrors cleared, while the *enforced allocation* (quotas, masks,
BT force vectors) survives.  For deterministic policies that means a
post-flush access stream must take exactly the decisions a freshly built
cache (same allocation) takes.  ``invalidate_line`` must keep the same
invariants line by line.

These pin the satellite fix of the array-core refactor: previously each
policy hand-rolled its own reset and the tag store its own, with nothing
asserting they stay in lock-step.
"""

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.partition.allocation import (
    WayAllocation,
    even_subcube_allocation,
)
from repro.cache.partition.base import make_partition
from repro.cache.partition.btvectors import BTVectorPartition
from repro.cache.replacement.base import POLICY_REGISTRY, make_policy

ALL_POLICIES = sorted(POLICY_REGISTRY)

#: Policies whose decisions are a pure function of the access stream
#: (no RNG draws on any path exercised here).
DETERMINISTIC = ["lru", "fifo", "nru", "bt", "srrip", "lip"]

NUM_SETS, ASSOC, CORES = 8, 8, 2
GEOMETRY = CacheGeometry(NUM_SETS * ASSOC * 128, ASSOC, 128)
SCHEMES = ("none", "masks", "counters", "btvectors")


def build(policy_name, scheme, rng_seed=3):
    policy = make_policy(policy_name, NUM_SETS, ASSOC,
                         rng=np.random.default_rng(rng_seed))
    if scheme == "none":
        partition = None
    elif scheme == "btvectors":
        partition = BTVectorPartition(CORES, NUM_SETS, ASSOC, policy)
    else:
        partition = make_partition(scheme, CORES, NUM_SETS, ASSOC)
    cache = SetAssociativeCache(GEOMETRY, policy, partition=partition,
                                num_cores=CORES)
    if scheme in ("masks", "counters"):
        partition.apply(WayAllocation.from_counts((5, 3), ASSOC))
    elif scheme == "btvectors":
        partition.apply(even_subcube_allocation(CORES, ASSOC))
    return cache


def run_stream(cache, seed, count=3000):
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 40 * NUM_SETS, size=count).tolist()
    cores = rng.integers(0, CORES, size=count).tolist()
    return [cache.access_line_hit(line, core)
            for line, core in zip(lines, cores)]


def check_invariants(cache):
    """Tag store, policy and partition state agree line by line."""
    state = cache.state
    for s in range(NUM_SETS):
        base = s * ASSOC
        for w in range(ASSOC):
            line = state.lines[base + w]
            invalid = bool((state.invalid[s] >> w) & 1)
            assert invalid == (line < 0), (s, w)
            if line >= 0:
                # A line sits in its own set's row, in one way of it.
                assert line & (NUM_SETS - 1) == s, (s, w)
                assert state.way_of(s, line) == w, (s, w)
        # Order-family policies: valid <=> tracked by the policy.
        policy = cache.policy
        if hasattr(policy, "_present"):
            tracked = policy._present[s] | getattr(
                policy, "_below_mask", [0] * NUM_SETS)[s]
            assert tracked | state.invalid[s] == state.full_mask
            assert tracked & state.invalid[s] == 0
        # Owner counters mirror residency exactly.
        part = cache.partition
        if part is not None and part.name == "counters":
            for w in range(ASSOC):
                owner = part.owner_of(s, w)
                if (state.invalid[s] >> w) & 1:
                    assert owner == -1, (s, w)
    assert state.occupancy() == NUM_SETS * ASSOC - sum(
        mask.bit_count() for mask in state.invalid)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("policy_name", DETERMINISTIC)
def test_flush_then_refill_equals_fresh_cache(policy_name, scheme):
    """Post-flush decisions == a freshly built cache's decisions."""
    if scheme == "btvectors" and policy_name != "bt":
        pytest.skip("btvectors requires the BT policy")
    cache = build(policy_name, scheme)
    run_stream(cache, seed=11)
    cache.flush()
    assert cache.occupancy() == 0
    check_invariants(cache)

    fresh = build(policy_name, scheme)
    flushed_outcomes = run_stream(cache, seed=77)
    fresh_outcomes = run_stream(fresh, seed=77)
    assert flushed_outcomes == fresh_outcomes
    for s in range(NUM_SETS):
        assert cache.resident_lines(s) == fresh.resident_lines(s)
    check_invariants(cache)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("policy_name", ALL_POLICIES)
def test_flush_keeps_state_consistent(policy_name, scheme):
    """All policies (incl. stochastic): flush + refill keeps invariants."""
    if scheme == "btvectors" and policy_name != "bt":
        pytest.skip("btvectors requires the BT policy")
    cache = build(policy_name, scheme)
    run_stream(cache, seed=5)
    cache.flush()
    check_invariants(cache)
    assert cache.occupancy() == 0
    # Allocation survives the flush.
    if cache.partition is not None:
        assert cache.partition.allocation is not None
    run_stream(cache, seed=6, count=2000)
    check_invariants(cache)
    assert cache.occupancy() <= NUM_SETS * ASSOC


def test_flush_preserves_bt_force_vectors():
    """policy.reset() wipes forces; BTVectorPartition.on_flush re-installs."""
    cache = build("bt", "btvectors")
    policy = cache.policy
    assert policy.get_force(0) is not None
    cache.flush()
    assert policy.get_force(0) is not None
    assert policy.get_force(1) is not None
    # And the re-installed vectors still confine victims to the subcube.
    run_stream(cache, seed=9)
    mask0 = cache.partition.candidate_mask(0, 0)
    for s in range(NUM_SETS):
        way = policy.victim(s, 0, mask0)
        assert (mask0 >> way) & 1


def test_flush_clears_owner_counters():
    cache = build("lru", "counters")
    run_stream(cache, seed=4)
    part = cache.partition
    assert any(part.owned_count(s, c)
               for s in range(NUM_SETS) for c in range(CORES))
    cache.flush()
    for s in range(NUM_SETS):
        for c in range(CORES):
            assert part.owned_count(s, c) == 0
        for w in range(ASSOC):
            assert part.owner_of(s, w) == -1
    # Quotas survive.
    assert part.quota(0) == 5 and part.quota(1) == 3


@pytest.mark.parametrize("policy_name", ALL_POLICIES)
def test_invalidate_interleavings_keep_invariants(policy_name):
    """Random invalidate/access interleavings: state stays consistent."""
    cache = build(policy_name, "counters" if policy_name != "bt" else "none")
    rng = np.random.default_rng(8)
    lines = rng.integers(0, 30 * NUM_SETS, size=4000).tolist()
    ops = rng.integers(0, 10, size=4000).tolist()
    for line, op in zip(lines, ops):
        if op < 8:
            cache.access_line_hit(line, line % CORES)
        else:
            cache.invalidate_line(line)
    check_invariants(cache)
    # Invalidated ways are refillable: a fresh stream still works.
    run_stream(cache, seed=2, count=1000)
    check_invariants(cache)


def test_stats_survive_flush_but_not_reset():
    cache = build("lru", "none")
    run_stream(cache, seed=1, count=500)
    accesses = cache.stats.total_accesses
    cache.flush()
    assert cache.stats.total_accesses == accesses   # flush keeps stats
    cache.stats.reset()
    assert cache.stats.total_accesses == 0
    assert cache.stats.hits == [0] * CORES
    assert cache.stats.evictions == [0] * CORES
