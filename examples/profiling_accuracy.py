#!/usr/bin/env python
"""Profiling accuracy: true LRU SDH vs the NRU/BT estimated SDHs.

The paper's key insight is that pseudo-LRU policies lack the stack
property, so their SDHs must be *estimated* (§III).  This example feeds the
same SPEC-like access stream through a true-LRU ATD and through NRU/BT
ATDs (with the paper's eSDH logics) and prints the resulting miss curves
side by side — including the effect of the NRU scaling factor, where the
paper found 0.75 the sweet spot between the over-estimating 1.0 and the
under-estimating 0.5.

Run:  python examples/profiling_accuracy.py
"""

from repro.util import example_scale

#: Laptop-scale divisor for CI smoke runs: REPRO_EXAMPLE_SCALE=N divides
#: every trace length and instruction budget by N (default 1 = full size).
EXAMPLE_SCALE = example_scale()

import numpy as np

from repro import CacheGeometry, generate_trace
from repro.profiling.atd import ATD
from repro.profiling.profilers import make_profiler


def build_atd(geometry, policy, scaling=1.0):
    return ATD(geometry, sampling=1, policy_name=policy,
               profiler=make_profiler(policy, scaling=scaling))


def main() -> None:
    geometry = CacheGeometry(64 * 16 * 128, 16, 128)  # 64 sets x 16 ways
    trace = generate_trace("twolf", 150_000 // EXAMPLE_SCALE, geometry.num_lines, seed=11)

    atds = {
        "LRU (exact)": build_atd(geometry, "lru"),
        "NRU S=1.0": build_atd(geometry, "nru", 1.0),
        "NRU S=0.75": build_atd(geometry, "nru", 0.75),
        "NRU S=0.5": build_atd(geometry, "nru", 0.5),
        "BT": build_atd(geometry, "bt"),
    }
    for line in trace.lines.tolist():
        for atd in atds.values():
            atd.observe(line)

    curves = {label: atd.sdh.miss_curve() for label, atd in atds.items()}
    ways_shown = (1, 2, 4, 8, 12, 16)

    print(f"Benchmark: {trace.name}, {len(trace):,} accesses, "
          f"L2 {geometry}\n")
    print("Predicted misses by allocation (ways):")
    header = f"{'profiler':12s}" + "".join(f"{w:>9d}" for w in ways_shown)
    print(header)
    print("-" * len(header))
    for label, curve in curves.items():
        row = f"{label:12s}" + "".join(f"{int(curve[w]):>9d}" for w in ways_shown)
        print(row)

    exact = curves["LRU (exact)"].astype(float)
    print("\nMean relative estimation error vs the exact LRU SDH:")
    for label, curve in curves.items():
        if label.startswith("LRU"):
            continue
        denom = np.maximum(exact[1:], 1.0)
        err = np.abs(curve[1:] - exact[1:]) / denom
        print(f"  {label:12s} {err.mean() * 100:6.1f}%")

    print(
        "\nReading: scaling trades error directions, exactly the paper's\n"
        "§V-B argument — S=1.0 over-estimates stack distances (inflating\n"
        "miss predictions at mid allocations), smaller S compresses them.\n"
        "Note that pointwise curve error is NOT what the partitioning\n"
        "system pays for: MinMisses reads the *knee position*, which\n"
        "compression shifts left (under-allocation).  The eSDH-scaling\n"
        "ablation bench (benchmarks/bench_ablation_scaling.py) measures\n"
        "where our substrate's optimum lands vs the paper's 0.75."
    )


if __name__ == "__main__":
    main()
