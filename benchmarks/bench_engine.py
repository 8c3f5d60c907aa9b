"""Execution-engine benchmarks: batched vs reference hot loop.

pytest-benchmark entry points measure each engine's simulation rate on a
4-core Table-II-style mix; ``test_batched_speedup`` is the regression guard
for the batching win.  Run the file directly for the acceptance-scale
measurement (4 cores x 1M references)::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke    # ~30 s CI

The smoke mode doubles as the per-PR perf canary in CI: it prints the
measured speedup and fails loudly if it regresses below
:data:`SMOKE_FLOOR`.  It also runs the **six configs, one mix** composite
(:func:`run_six_configs`) — how a figure sweep drives the engine — and
prints the window-cache hit ratio next to its rate; ``record.py engine``
floors that ratio in CI.
"""

import os
import sys
import time

import numpy as np
import pytest

from repro.config import (
    ProcessorConfig,
    SimulationConfig,
    config_M_N,
    config_unpartitioned,
    paper_figure7_configs,
)
from repro.cmp.engine.common import clear_window_cache, window_cache_stats
from repro.cmp.simulator import CMPSimulator
from repro.workloads.generator import generate_trace
from repro.workloads.trace import Trace

#: The 4-core mix: two cache-friendly threads, one graded, one streamer —
#: a representative spread of L2 behaviours.
MIX = ("crafty", "mesa", "twolf", "mcf")

#: Fraction of references hitting a small per-thread hot region.  The
#: catalog traces model *L2-level* locality only (their raw L1 hit rates
#: are 10-40 %); a real 32 KB L1D filters 85-95 % of the load/store stream
#: thanks to stack/local reuse the region-mixture generator leaves out.
#: Blending in an L1-resident hot set restores a realistic L1 filter rate
#: without touching the L2-visible stream's character.  Hot references come
#: in bursts (:data:`HOT_RUN`) the way loop-local reuse does.
HOT_FRACTION = 0.9
HOT_LINES = 64
HOT_RUN = 16

#: Minimum batched-over-reference speedup of the short runs (the pytest
#: guard at :data:`BENCH_ACCESSES`, ``--smoke`` at 120 k references per
#: thread) and of the full 1 M run.  The miss-stream loop measures 6.9-8.7x
#: and 11.3x; the hit-streak loop it replaced 3.8-4.1x and 4.8x, so the
#: floors sit between the two: a revert fails them, timing noise does not.
SMOKE_FLOOR = 5.0
FULL_FLOOR = 6.0

BENCH_ACCESSES = int(os.environ.get("REPRO_ENGINE_ACCESSES", "60000"))


def make_mix(num_accesses, hot_fraction=HOT_FRACTION):
    processor = ProcessorConfig(num_cores=4)
    l2_lines = processor.l2.num_lines
    traces = []
    for core, name in enumerate(MIX):
        trace = generate_trace(name, num_accesses, l2_lines,
                               seed=7, core_id=core)
        if hot_fraction > 0.0:
            rng = np.random.default_rng(1000 + core)
            blocks = -(-num_accesses // HOT_RUN)
            hot = np.repeat(rng.random(blocks) < hot_fraction,
                            HOT_RUN)[:num_accesses]
            hot_base = (core + 9) << 50   # thread-private, off L2 regions
            lines = trace.lines.copy()
            lines[hot] = hot_base + rng.integers(
                0, HOT_LINES, size=int(hot.sum()))
            trace = Trace(trace.name, lines, ipm=trace.ipm,
                          cpi_base=trace.cpi_base)
        traces.append(trace)
    return processor, traces


def run_once(engine, num_accesses, partitioned=True):
    """One *cold* run of the mix under one configuration: repeats must
    not replay the previous repeat's L1-miss windows, or the best-of rate
    would stop measuring the prefilter at all."""
    processor, traces = make_mix(num_accesses)
    clear_window_cache()
    config = (config_M_N(0.75) if partitioned
              else config_unpartitioned("lru"))
    sim = CMPSimulator(processor, config, traces,
                       SimulationConfig(seed=7, engine=engine))
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, result


def run_six_configs(num_accesses):
    """The mix under the six Figure 7 configurations, one process, cold
    window cache at the start: ``(seconds, references, cache stats)``.

    Everything in front of the L2 is configuration-independent, so five
    of the six runs should prefilter nothing: a change that makes the
    cache key depend on the job shows here as a collapsed hit ratio.
    """
    processor, traces = make_mix(num_accesses)
    clear_window_cache()
    references = 0
    start = time.perf_counter()
    for config in paper_figure7_configs():
        sim = CMPSimulator(processor, config, traces,
                           SimulationConfig(seed=7, engine="batched"))
        references += sim.run().events.l1_accesses
    return time.perf_counter() - start, references, window_cache_stats()


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_engine_rate(benchmark, engine):
    processor, traces = make_mix(BENCH_ACCESSES)

    def run():
        clear_window_cache()
        sim = CMPSimulator(processor, config_M_N(0.75), traces,
                           SimulationConfig(seed=7, engine=engine))
        return sim.run()

    result = benchmark(run)
    assert len(result.threads) == 4


def test_batched_speedup():
    """Regression guard: batching must stay well ahead of the reference."""
    ref_time, ref = run_once("reference", BENCH_ACCESSES)
    bat_time, bat = run_once("batched", BENCH_ACCESSES)
    assert ref.ipcs == bat.ipcs           # exact, not just fast
    speedup = ref_time / bat_time
    print(f"\nengine speedup at {BENCH_ACCESSES} refs/thread: "
          f"{speedup:.2f}x (reference {ref_time:.2f}s, batched {bat_time:.2f}s)")
    assert speedup >= SMOKE_FLOOR


def main(argv):
    smoke = "--smoke" in argv
    accesses = 120_000 if smoke else 1_000_000
    ref_time, ref = run_once("reference", accesses)
    bat_time, bat = run_once("batched", accesses)
    if ref.ipcs != bat.ipcs:
        print("FAIL: engines disagree on thread IPCs")
        return 1
    speedup = ref_time / bat_time
    print(f"4-core mix {MIX}, {accesses} references/thread")
    print(f"  reference: {ref_time:6.2f} s")
    print(f"  batched:   {bat_time:6.2f} s")
    print(f"  speedup:   {speedup:6.2f} x")
    six_time, six_refs, cache = run_six_configs(accesses)
    print(f"  six configs, one mix (batched): {six_time:6.2f} s, "
          f"{six_refs / six_time / 1e6:.2f} M refs/s, window cache "
          f"{cache['hits']}/{cache['lookups']} hits "
          f"({cache['hits'] / cache['lookups']:.0%}), "
          f"{cache['bytes'] / 2 ** 20:.1f} MB in {cache['entries']} entries, "
          f"{cache['evictions']} evicted")
    floor = SMOKE_FLOOR if smoke else FULL_FLOOR
    if speedup < floor:
        print(f"FAIL: speedup below the {floor}x floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
