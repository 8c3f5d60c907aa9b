#!/usr/bin/env python
"""QoS: guarantee a victim thread's IPC while a streamer pollutes the L2.

The paper points out (§II-B, §VI) that MinMisses-style partitioning can be
re-targeted at Quality of Service: convert a per-thread IPC target into a
way reservation, then give the leftovers to throughput.  This example runs
the full loop the FlexDCP-style extension enables:

1. run one *profiling epoch* with plain MinMisses partitioning and collect
   the victim's measured miss curve and base cycles;
2. ask :class:`repro.core.qos.QoSPartitioner` for the allocation meeting an
   IPC target for the victim (85 % of its full-cache IPC) against a
   cache-hostile streamer;
3. enforce that allocation *statically* (``selector='static'``) for the
   service epoch and verify the target is met.

Run:  python examples/qos_guarantee.py
"""

from repro.util import example_scale

#: Laptop-scale divisor for CI smoke runs: REPRO_EXAMPLE_SCALE=N divides
#: every trace length and instruction budget by N (default 1 = full size).
EXAMPLE_SCALE = example_scale()

import numpy as np

from repro import (
    PartitioningConfig,
    ProcessorConfig,
    SimulationConfig,
    config_M_L,
    generate_workload_traces,
    run_workload,
)
from repro.cmp.isolation import IsolationRunner
from repro.core.qos import QoSPartitioner
from repro.profiling.stackdist import exact_miss_curve

VICTIM, STREAMER = "parser", "mcf"
TARGET = 0.85  # the victim must keep >= 85 % of its full-cache IPC


def main() -> None:
    processor = ProcessorConfig(num_cores=2).scaled(16)
    assoc = processor.l2.assoc
    traces = generate_workload_traces(
        (VICTIM, STREAMER), 120_000 // EXAMPLE_SCALE, processor.l2.num_lines, seed=11)
    sim = SimulationConfig(instructions_per_thread=400_000 // EXAMPLE_SCALE, seed=11)

    # Reference point: the victim's IPC owning the entire L2.
    iso = IsolationRunner(ProcessorConfig(num_cores=1).scaled(16),
                          SimulationConfig(seed=11))
    victim_solo_ipc = iso.ipc(traces[0], "lru")
    print(f"{VICTIM} full-cache IPC: {victim_solo_ipc:.3f}")
    print(f"QoS target: {TARGET:.0%} of that = "
          f"{TARGET * victim_solo_ipc:.3f}\n")

    # ---- Epoch 1: measure. ------------------------------------------
    # Exact miss curves from the reference streams (a production system
    # would read the SDHs; the offline analyzer shows the same curves
    # without estimation error).
    curves = np.stack([
        exact_miss_curve(t.lines, processor.l2.num_sets, assoc)
        for t in traces
    ])
    # Allocation-independent cycles: core work + L1-hit time; the QoS
    # model only needs it to weigh miss-penalty deltas.
    base_cycles = [
        len(t) * t.ipm * t.cpi_base + 0.1 * len(t) * 11 for t in traces
    ]

    qos = QoSPartitioner([TARGET, None],
                         memory_penalty=processor.memory_penalty)
    decision = qos.select(curves, base_cycles)
    print(f"QoS reservation for {VICTIM}: {decision.reservations[0]} ways")
    print(f"chosen allocation ({VICTIM}, {STREAMER}): {decision.counts}")
    print(f"predicted relative IPC: "
          f"{[f'{r:.3f}' for r in decision.predicted_relative_ipc]}")
    print(f"all targets feasible: {decision.feasible}\n")

    # ---- Epoch 2: enforce statically and verify. ---------------------
    static = PartitioningConfig(
        policy="lru", enforcement="masks",
        selector="static", static_counts=decision.counts,
        atd_sampling=8)
    guarded = run_workload(processor, static, traces, sim)

    minmisses = run_workload(processor, config_M_L(atd_sampling=8),
                             traces, sim)
    shared = run_workload(
        processor,
        PartitioningConfig(policy="lru", enforcement="none"),
        traces, sim)

    print(f"{'configuration':28s} {VICTIM+' IPC':>10s} {'vs solo':>9s} "
          f"{'throughput':>11s}")
    for label, outcome in (("unpartitioned (shared LRU)", shared),
                           ("MinMisses dynamic", minmisses),
                           ("QoS static reservation", guarded)):
        victim_ipc = outcome.ipcs[0]
        print(f"{label:28s} {victim_ipc:10.3f} "
              f"{victim_ipc / victim_solo_ipc:8.1%} "
              f"{outcome.throughput:11.3f}")

    achieved = guarded.ipcs[0] / victim_solo_ipc
    print(f"\nQoS outcome: victim at {achieved:.1%} of solo IPC "
          f"(target {TARGET:.0%}) -> {'MET' if achieved >= TARGET else 'MISSED'}")


if __name__ == "__main__":
    main()
