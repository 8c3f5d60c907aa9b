#!/usr/bin/env python
"""Reuse-distance anatomy of the synthetic SPEC-2000 workloads.

Uses the exact offline Mattson analyzer (:mod:`repro.profiling.stackdist`)
to show what the paper's profiling hardware is estimating:

* the exact per-benchmark miss curve (misses as a function of allocated
  ways — Figure 2(c) of the paper, computed without any estimation);
* where each benchmark's working-set knee sits — the first allocation
  within 1 % of its full-cache miss floor, exactly the information
  MinMisses trades on;
* the quality of the NRU estimated SDH against that ground truth, for the
  three scaling factors the paper evaluates (1.0 / 0.75 / 0.5): the knee
  each estimate implies and its mean error on the normalised curve.

Run:  python examples/reuse_distance_analysis.py
"""

from repro.util import example_scale

#: Laptop-scale divisor for CI smoke runs: REPRO_EXAMPLE_SCALE=N divides
#: every trace length and instruction budget by N (default 1 = full size).
EXAMPLE_SCALE = example_scale()

import numpy as np

from repro import ProcessorConfig, generate_trace
from repro.cache.geometry import CacheGeometry
from repro.profiling import ATD, NRUDistanceProfiler, exact_miss_curve

BENCHMARKS = ("crafty", "twolf", "parser", "mcf")
ACCESSES = 60_000 // EXAMPLE_SCALE
SCALINGS = (1.0, 0.75, 0.5)


def esdh_curve(trace, geometry, scaling):
    """Miss curve estimated by the paper's NRU profiling logic."""
    atd = ATD(geometry, sampling=1, policy_name="nru",
              profiler=NRUDistanceProfiler(scaling=scaling))
    for line in trace.lines.tolist():
        atd.observe(line)
    return atd.sdh.miss_curve()


def knee(curve) -> int:
    """First allocation whose misses are within 1 % of the floor (the
    misses with every way)."""
    curve = np.asarray(curve, dtype=np.float64)
    return int(np.argmax(curve <= 1.01 * curve[-1]))


def normalised(curve) -> np.ndarray:
    """Curve over its 0-way misses (all zeros for a curve that never
    misses)."""
    curve = np.asarray(curve, dtype=np.float64)
    return curve / curve[0] if curve[0] > 0 else np.zeros_like(curve)


def main() -> None:
    processor = ProcessorConfig(num_cores=1).scaled(8)
    l2 = processor.l2
    geometry = CacheGeometry(l2.size_bytes, l2.assoc, l2.line_bytes)
    print(f"L2: {l2} ({l2.assoc} ways)\n")

    estimates = "".join(f"{'S=' + format(s, 'g'):>8s} {'knee':>4s} {'err':>5s}"
                        for s in SCALINGS)
    print(f"{'benchmark':9s} {'lines':>6s} {'m(0)':>7s} {'floor':>7s} "
          f"{'knee':>4s}{estimates}")
    for name in BENCHMARKS:
        trace = generate_trace(name, ACCESSES, l2.num_lines, seed=21)
        exact = exact_miss_curve(trace.lines, l2.num_sets, l2.assoc)
        row = (f"{name:9s} {trace.footprint_lines:6d} {exact[0]:7.0f} "
               f"{exact[-1]:7.0f} {knee(exact):4d}")
        for scaling in SCALINGS:
            est = esdh_curve(trace, geometry, scaling)
            error = float(np.abs(normalised(est) - normalised(exact)).mean())
            row += f"{'':8s} {knee(est):4d} {error:5.3f}"
        print(row)

    print("\nm(0): misses with no way; floor: misses with all "
          f"{l2.assoc}; knee: first way count within 1 % of the floor;"
          "\nerr: mean |error| of the eSDH curve, each curve over its "
          "0-way misses."
          "\nReading: MinMisses gives threads ways up to their knee; "
          "streamers (flat curves)\nget the minimum and stop polluting "
          "partition-sensitive neighbours.")


if __name__ == "__main__":
    main()
