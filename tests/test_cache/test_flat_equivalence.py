"""Differential pins: flat-array policies vs the frozen seed per-object
implementations (``tests/seed_reference.py``).

The array-core refactor's contract is *bit-identical decision sequences*:
for any interleaving of ``touch`` / ``touch_fill`` / ``victim`` /
``invalidate`` / ``reset`` calls — including arbitrary victim masks and
BT force vectors — the flat policies must return exactly the victims the
seed timestamp/list implementations returned, and every observable state
probe (stack positions, used bits, path bits, RRPVs) must agree.  The
cache- and ATD-level tests drive whole randomized access/invalidate/flush
streams through both stacks and compare outcomes, statistics and resident
lines access by access.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import seed_reference as sr  # noqa: E402

from repro.cache.cache import SetAssociativeCache  # noqa: E402
from repro.cache.geometry import CacheGeometry  # noqa: E402
from repro.cache.partition.allocation import (  # noqa: E402
    WayAllocation,
    even_subcube_allocation,
)
from repro.cache.partition.base import make_partition  # noqa: E402
from repro.cache.partition.btvectors import BTVectorPartition  # noqa: E402
from repro.cache.replacement.base import (  # noqa: E402
    POLICY_REGISTRY,
    make_policy,
)
from repro.profiling.atd import ATD  # noqa: E402
from repro.profiling.profilers import make_profiler  # noqa: E402

ALL_POLICIES = sorted(POLICY_REGISTRY)

NUM_SETS, ASSOC = 8, 8
FULL = (1 << ASSOC) - 1


def make_pair(name, num_sets=NUM_SETS, assoc=ASSOC, seed=0):
    """(seed_policy, flat_policy) with identically-seeded RNG streams."""
    old = sr.make_seed_policy(name, num_sets, assoc,
                              rng=np.random.default_rng(seed))
    new = make_policy(name, num_sets, assoc,
                      rng=np.random.default_rng(seed))
    return old, new


def probe(policy, name, set_index):
    """Observable state snapshot of one set (policy-family specific)."""
    out = {}
    if name in ("lru", "lip", "bip", "dip"):
        out["stack_order"] = policy.stack_order(set_index)
        out["positions"] = [policy.stack_position(set_index, w)
                            for w in range(policy.assoc)]
    elif name == "fifo":
        out["fill_order"] = policy.fill_order(set_index)
    elif name == "nru":
        out["used"] = policy.used_mask(set_index)
        out["pointer"] = policy.pointer
    elif name == "bt":
        out["paths"] = [policy.path_bits(set_index, w)
                        for w in range(policy.assoc)]
    elif name in ("srrip", "brrip"):
        out["rrpv"] = [policy.rrpv_value(set_index, w)
                       for w in range(policy.assoc)]
    if name == "dip":
        out["psel"] = policy.psel
    return out


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_randomized_op_sequences_match_seed(name):
    """Random touch/fill/victim/invalidate/reset interleavings agree."""
    old, new = make_pair(name, seed=11)
    rng = np.random.default_rng(42)
    ops = rng.integers(0, 100, size=4000).tolist()
    sets = rng.integers(0, NUM_SETS, size=4000).tolist()
    ways = rng.integers(0, ASSOC, size=4000).tolist()
    masks = rng.integers(1, FULL + 1, size=4000).tolist()
    for i, (op, s, w, mask) in enumerate(zip(ops, sets, ways, masks)):
        if op < 40:
            old.touch(s, w, 0)
            new.touch(s, w, 0)
        elif op < 65:
            old.touch_fill(s, w, 0)
            new.touch_fill(s, w, 0)
        elif op < 90:
            assert old.victim(s, 0, mask) == new.victim(s, 0, mask), \
                f"victim diverged at op {i} (set {s}, mask {mask:#x})"
        elif op < 97:
            old.invalidate(s, w)
            new.invalidate(s, w)
        else:
            old.reset()
            new.reset()
        if i % 97 == 0:
            assert probe(old, name, s) == probe(new, name, s), \
                f"state probe diverged at op {i}"


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_decision_sequence_10k_accesses(name):
    """Cache-shaped call pattern over >=10k accesses: identical victims.

    Emulates what the cache does — victims only when no invalid way in the
    mask, fills promote via ``touch_fill``, hits via ``touch`` — with the
    mask alternating between full and per-core halves.
    """
    old, new = make_pair(name, seed=5)
    rng = np.random.default_rng(7)
    lines = rng.integers(0, 40 * NUM_SETS, size=10_000).tolist()
    half = FULL >> (ASSOC // 2)
    core_masks = [half, FULL & ~half]
    resident = {}
    invalid = {s: FULL for s in range(NUM_SETS)}
    for i, line in enumerate(lines):
        s = line % NUM_SETS
        core = line % 2
        mask = FULL if name == "bt" else core_masks[core]
        if line in resident:
            w = resident[line]
            old.touch(s, w, 0)
            new.touch(s, w, 0)
            continue
        inv = invalid[s] & mask
        if inv:
            w = (inv & -inv).bit_length() - 1
            invalid[s] &= ~(1 << w)
        else:
            w_old = old.victim(s, 0, mask)
            w_new = new.victim(s, 0, mask)
            assert w_old == w_new, f"victim diverged at access {i}"
            w = w_old
            for known, kw in list(resident.items()):
                if known % NUM_SETS == s and kw == w:
                    del resident[known]
        resident[line] = w
        old.touch_fill(s, w, 0)
        new.touch_fill(s, w, 0)
        if name == "nru":
            old.fill_done()
            new.fill_done()
    assert probe(old, name, 0) == probe(new, name, 0)


class TestBTForceVectors:
    def test_forced_traversals_match_seed(self):
        old, new = make_pair("bt", seed=3)
        rng = np.random.default_rng(9)
        for i in range(3000):
            op = int(rng.integers(0, 10))
            s = int(rng.integers(0, NUM_SETS))
            w = int(rng.integers(0, ASSOC))
            core = int(rng.integers(0, 2))
            if op < 4:
                old.touch(s, w, core)
                new.touch(s, w, core)
            elif op < 8:
                assert (old.victim(s, core, FULL)
                        == new.victim(s, core, FULL))
            elif op < 9:
                # Install a random prefix force (a subcube, like the
                # paper's up/down vectors always encode).
                depth = int(rng.integers(0, old.levels + 1))
                force = tuple(
                    int(rng.integers(0, 2)) if lvl < depth else None
                    for lvl in range(old.levels))
                old.set_force(core, force)
                new.set_force(core, force)
            else:
                old.set_force(core, None)
                new.set_force(core, None)
        for s in range(NUM_SETS):
            assert probe(old, "bt", s) == probe(new, "bt", s)


class _SeedBTVectorPartition(BTVectorPartition):
    """BT-vector enforcement accepting the duck-typed seed BT policy."""

    def __init__(self, num_cores, num_sets, assoc, policy):
        # Skip only the isinstance(BTPolicy) gate; the vector logic is
        # unchanged by the refactor and drives set_force/get_force.
        from repro.cache.partition.base import PartitionScheme
        PartitionScheme.__init__(self, num_cores, num_sets, assoc)
        self._policy = policy
        self._masks = [self.full_mask] * num_cores


def scheme_pair(scheme, policy_name, num_cores, num_sets, assoc, policies):
    """Partition instances for (seed cache, flat cache); None for 'none'."""
    if scheme == "none":
        return None, None
    if scheme == "btvectors":
        return (_SeedBTVectorPartition(num_cores, num_sets, assoc,
                                       policies[0]),
                BTVectorPartition(num_cores, num_sets, assoc, policies[1]))
    return (make_partition(scheme, num_cores, num_sets, assoc),
            make_partition(scheme, num_cores, num_sets, assoc))


CACHE_CASES = [(p, s) for p in ALL_POLICIES for s in ("none", "masks")] + [
    ("lru", "counters"), ("nru", "counters"), ("dip", "counters"),
    ("bt", "btvectors"),
]


@pytest.mark.parametrize("policy_name,scheme", CACHE_CASES,
                         ids=lambda v: str(v))
def test_cache_streams_match_seed(policy_name, scheme):
    """Whole-cache differential: random access/invalidate/flush streams."""
    num_sets, assoc, cores = 8, 8, 2
    geometry = CacheGeometry(num_sets * assoc * 128, assoc, 128)
    if scheme == "btvectors" and policy_name != "bt":
        pytest.skip("btvectors requires the BT policy")
    seed_policy = sr.make_seed_policy(policy_name, num_sets, assoc,
                                      rng=np.random.default_rng(21))
    flat_policy = make_policy(policy_name, num_sets, assoc,
                              rng=np.random.default_rng(21))
    part_old, part_new = scheme_pair(scheme, policy_name, cores, num_sets,
                                     assoc, (seed_policy, flat_policy))
    old = sr.SeedSetAssociativeCache(geometry, seed_policy,
                                     partition=part_old, num_cores=cores)
    new = SetAssociativeCache(geometry, flat_policy, partition=part_new,
                              num_cores=cores)
    if scheme == "masks":
        for part in (part_old, part_new):
            part.apply(WayAllocation.from_counts((5, 3), assoc))
    elif scheme == "counters":
        for part in (part_old, part_new):
            part.apply(WayAllocation.from_counts((6, 2), assoc))
    elif scheme == "btvectors":
        for part in (part_old, part_new):
            part.apply(even_subcube_allocation(cores, assoc))

    rng = np.random.default_rng(17)
    lines = rng.integers(0, 40 * num_sets, size=8000).tolist()
    ops = rng.integers(0, 1000, size=8000).tolist()
    cores_seq = rng.integers(0, cores, size=8000).tolist()
    for i, (line, op, core) in enumerate(zip(lines, ops, cores_seq)):
        if op < 960:
            assert (old.access_line_hit(line, core)
                    == new.access_line_hit(line, core)), f"access {i}"
        elif op < 990:
            assert (old.invalidate_line(line)
                    == new.invalidate_line(line)), f"invalidate {i}"
        else:
            old.flush()
            new.flush()
        if i % 241 == 0:
            for s in range(num_sets):
                assert (old.resident_lines(s)
                        == new.resident_lines(s)), f"set {s} at op {i}"
    assert old.stats.accesses == new.stats.accesses
    assert list(old.stats.misses) == list(new.stats.misses)
    assert old.stats.hits == new.stats.hits
    assert old.stats.evictions == new.stats.evictions
    assert old.occupancy() == new.occupancy()


@pytest.mark.parametrize("policy_name", ["lru", "nru", "bt"])
def test_atd_streams_match_seed(policy_name):
    """Whole-ATD differential: sampled stream, SDH registers, residency."""
    geometry = CacheGeometry(32 * 8 * 128, 8, 128)
    old = sr.SeedATD(geometry, 4, policy_name, make_profiler(policy_name),
                     rng=np.random.default_rng(31))
    new = ATD(geometry, 4, policy_name, make_profiler(policy_name),
              rng=np.random.default_rng(31))
    rng = np.random.default_rng(13)
    lines = rng.integers(0, 4000, size=12_000).tolist()
    for i, line in enumerate(lines):
        assert old.observe(line) == new.observe(line), f"observe {i}"
        if i % 509 == 0:
            assert list(old.sdh.registers) == list(new.sdh.registers)
    assert old.sampled_accesses == new.sampled_accesses
    assert old.skipped_accesses == new.skipped_accesses
    assert list(old.sdh.registers) == list(new.sdh.registers)
    assert list(old.sdh.miss_curve()) == list(new.sdh.miss_curve())
    for line in lines[:500]:
        assert old.contains_line(line) == new.contains_line(line)


@pytest.mark.parametrize("policy_name", ["nru"])
def test_atd_nru_scaled_profiler_matches_seed(policy_name):
    """The non-unit eSDH scaling factor goes through the same kernel."""
    geometry = CacheGeometry(32 * 8 * 128, 8, 128)
    old = sr.SeedATD(geometry, 4, "nru",
                     make_profiler("nru", scaling=0.75))
    new = ATD(geometry, 4, "nru", make_profiler("nru", scaling=0.75))
    rng = np.random.default_rng(3)
    for line in rng.integers(0, 2000, size=6000).tolist():
        assert old.observe(line) == new.observe(line)
    assert list(old.sdh.registers) == list(new.sdh.registers)
