"""Partition isolation, end to end, judged by models outside the simulator.

Threads touching disjoint lines under a partition that never changes
(``interval_cycles=10**12``: no boundary is ever reached) each see a
private L2 of their own ways.  Each thread's L2 stream is what its
private LRU L1 misses, computed with the stack model
(:func:`oracle_models.lru_miss_stream`), so every thread's frozen
``l2_misses`` — one pass over its trace — has a closed-form judge:

* LRU, masks, a ``static`` allocation: exactly the stack model's misses
  at the thread's ``w`` ways;
* NRU, masks, ``static``: between Belady's MIN at ``w`` ways and LRU at
  ``min(2, w)`` ways;
* BT, up/down vectors, the ``even`` subcube split: between MIN at ``w``
  and LRU at ``log2(w) + 1`` ways.

Both engines are checked, at 2, 4 and 8 threads, so the compiled ``loop``
kernels answer to the same judge as the classes.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pytest

from oracle_models import lru_miss_stream, lru_misses, opt_misses
from repro.cache.geometry import CacheGeometry
from repro.cmp.simulator import CMPSimulator
from repro.config import (
    ProcessorConfig,
    SimulationConfig,
    config_M_BT,
    config_M_L,
    config_M_N,
)
from repro.workloads.trace import Trace

L1 = CacheGeometry(4 * 2 * 64, 2, 64)
L2 = CacheGeometry(16 * 16 * 64, 16, 64)
ACCESSES = 1500

#: ``static`` way counts per thread count (LRU and NRU under masks).
STATIC_COUNTS = {2: (5, 11), 4: (1, 3, 5, 7), 8: (1, 1, 2, 2, 2, 2, 3, 3)}


#: Lines per L2 set each thread draws from, by ``t % 4``: more than its
#: ways in every case but BT's 2-thread thread 0, so the bounds bind.
FOOTPRINTS = (6, 16, 10, 24)


def traces(threads: int) -> List[Trace]:
    """Threads with disjoint lines, uniform over their footprints."""
    out = []
    for t in range(threads):
        rng = np.random.default_rng(40 + t)
        footprint = L2.num_sets * FOOTPRINTS[t % 4]
        # Bits above every set index keep the threads' lines apart.
        lines = rng.integers(0, footprint, ACCESSES) + ((t + 1) << 24)
        out.append(Trace(f"t{t}", lines, ipm=1.0, cpi_base=1.0))
    return out


def partitioning(policy: str, threads: int):
    knobs = dict(interval_cycles=10 ** 12, atd_sampling=4)
    if policy == "lru":
        return config_M_L(selector="static",
                          static_counts=STATIC_COUNTS[threads], **knobs)
    if policy == "nru":
        return config_M_N(1.0, selector="static",
                          static_counts=STATIC_COUNTS[threads], **knobs)
    return config_M_BT(selector="even", **knobs)


def simulator(policy: str, threads: int, engine: str) -> CMPSimulator:
    processor = ProcessorConfig(num_cores=threads, l1i=L1, l1d=L1, l2=L2)
    simulation = SimulationConfig(instructions_per_thread=ACCESSES,
                                  engine=engine)
    return CMPSimulator(processor, partitioning(policy, threads),
                        traces(threads), simulation)


def isolation_violations(policy: str, sim: CMPSimulator,
                         ways: Sequence[int]) -> List[str]:
    """Run ``sim``; name every thread whose L2 misses leave its bound."""
    result = sim.run()
    out = []
    for t, (trace, w) in enumerate(zip(sim.traces, ways)):
        stream = lru_miss_stream(trace.lines.tolist(), L1.num_sets, L1.assoc)
        misses = result.threads[t].l2_misses
        if policy == "lru":
            low = high = lru_misses(stream, L2.num_sets, w)
        else:
            # BT's w is a power of two: log2(w) + 1 is its bit length.
            span = min(2, w) if policy == "nru" else w.bit_length()
            low = opt_misses(stream, L2.num_sets, w)
            high = lru_misses(stream, L2.num_sets, span)
        if not low <= misses <= high:
            out.append(f"t{t} at {w} ways: {misses} misses "
                       f"outside [{low}, {high}]")
    return out


@pytest.mark.parametrize("engine", ["reference", "batched"])
@pytest.mark.parametrize("policy", ["lru", "nru", "bt"])
def test_each_thread_misses_like_a_private_cache_of_its_ways(policy, engine):
    for threads in (2, 4, 8):
        sim = simulator(policy, threads, engine)
        ways = sim.controller.current_counts
        if policy != "bt":
            assert ways == STATIC_COUNTS[threads]
        assert isolation_violations(policy, sim, ways) == [], threads


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_a_mask_that_lets_a_core_evict_outside_its_ways_is_flagged(engine):
    sim = simulator("lru", 2, engine)
    ways = sim.controller.current_counts
    # Core 0 may now evict from core 1's ways as well.
    sim.scheme._masks[0] = sim.scheme.full_mask
    assert isolation_violations("lru", sim, ways) != []
