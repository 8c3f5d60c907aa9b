"""Campaign stage-1 (isolation) wall-clock benchmark: vector vs solo vs batched.

Stage 1 of every campaign executes the deduplicated union of the outcome
jobs' isolation dependencies — single-thread unpartitioned runs whose IPCs
define the cycle-matched budgets and the weighted-speedup / harmonic-mean
denominators.  This file measures that stage end to end with a selectable
engine, which is exactly the workload the solo engine exists for.

Run directly for the acceptance measurement (the Figure 7 isolation stage
over the default 2T + 4T mixes)::

    PYTHONPATH=src python benchmarks/bench_isolation.py            # full
    PYTHONPATH=src python benchmarks/bench_isolation.py --smoke    # ~15 s

Both modes print the trace-generation time once and the per-engine
simulation wall clock, and fail loudly when the shipped single-thread
path — the vector engine on its rendered window kernel, what
``engine="auto"`` runs — drops below its floor over the solo engine.
``record.py engine`` imports :func:`run_stage_once` to record the
``isolation_stage_*`` rates the CI perf gate floors.
"""

import sys
import time
from typing import Dict, List, Tuple

import pytest

from repro.campaign.jobs import Job, isolation_deps, outcome_job
from repro.cmp.isolation import IsolationRunner
from repro.config import SimulationConfig, paper_figure7_configs
from repro.experiments.common import ExperimentScale
from repro.workloads.generator import generate_trace
from repro.workloads.trace import Trace

try:
    from repro.cmp.engine.common import clear_window_cache
except ImportError:   # a worktree that predates the window cache
    def clear_window_cache() -> None:
        pass

#: The solo-vs-batched ratio of one run is printed for information only:
#: its denominator is the *current* batched engine, which multi-core work
#: legitimately speeds up (the miss-stream loop took the ratio from ~1.75x
#: to ~1.2x without touching solo).  Solo's gate is the CI perf-smoke
#: job's cross-recording comparison (``record.py engine --baseline``
#: against a pre-solo-worktree recording, >= 1.5x).

#: The shipped path (vector engine, rendered window kernel) must keep
#: this ratio to the *current* solo engine on the stage, every job of
#: both rows cold: 0.75 x the lowest of five recordings of the ratio
#: (1.29, 1.43, 1.36, 1.26, 1.29x on the 2-vCPU recording host, whose
#: speed drifts by tens of percent within one run).  The same value is ``record.py engine``'s
#: ``isolation_stage_vector/.isolation_stage_solo`` floor key, checked
#: by the CI perf-smoke job.
VECTOR_SPEEDUP_FLOOR = 0.94


def stage_jobs(scale: ExperimentScale) -> List[Job]:
    """The deduplicated isolation stage of a Figure-7-style campaign."""
    jobs: Dict[Tuple[str, int, str], Job] = {}
    for mixes in (scale.mixes_2t, scale.mixes_4t):
        for mix in mixes:
            for config in paper_figure7_configs():
                outcome = outcome_job(scale, mix, config)
                for dep in isolation_deps(outcome):
                    jobs[(dep.benchmark, dep.core_id, dep.policy)] = dep
    return list(jobs.values())


def stage_traces(scale: ExperimentScale,
                 jobs: List[Job]) -> Dict[Tuple[str, int], Trace]:
    """Generate each job's trace once (shared across its policies)."""
    traces: Dict[Tuple[str, int], Trace] = {}
    for job in jobs:
        key = (job.benchmark, job.core_id)
        if key not in traces:
            traces[key] = generate_trace(
                job.benchmark, scale.accesses, scale.baseline_l2_lines,
                seed=scale.seed, core_id=job.core_id)
    return traces


def run_stage_once(engine: str, scale: ExperimentScale,
                   jobs: List[Job],
                   traces: Dict[Tuple[str, int], Trace]) -> Tuple[float, int]:
    """Execute the whole isolation stage serially with one engine.

    Returns ``(seconds, accesses)`` where ``accesses`` is the total number
    of simulated memory references (for rate reporting).  Trace generation
    is *not* included — pass pregenerated ``traces`` so the measurement
    compares engines, not the generator.

    Every job starts with a cold window cache — the one prefilter cache
    all three engines share — so every row times the engine's own L1
    prefilter and loop: one job's windows are not replayed for the
    trace's next policy, nor for the next best-of repeat.  (A job still
    hits its own earlier passes.)
    """
    runner = IsolationRunner(
        scale.processor(1),
        SimulationConfig(seed=scale.seed, engine=engine),
    )
    accesses = 0
    start = time.perf_counter()
    for job in jobs:
        clear_window_cache()
        trace = traces[(job.benchmark, job.core_id)]
        result = runner.thread_result(trace, job.policy)
        accesses += result.l1_accesses
    return time.perf_counter() - start, accesses


def bench_scale(smoke: bool = False) -> ExperimentScale:
    """Measurement scale: the default harness scale, shorter when smoking."""
    scale = ExperimentScale()
    if smoke:
        scale = ExperimentScale(accesses=20_000)
    return scale


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["batched", "solo", "vector"])
def test_isolation_stage_rate(benchmark, engine):
    scale = ExperimentScale(accesses=8_000)   # keep the tier-1 run quick
    jobs = stage_jobs(scale)
    traces = stage_traces(scale, jobs)
    benchmark(lambda: run_stage_once(engine, scale, jobs, traces))


def test_vector_stage_speedup():
    """Regression guard: the shipped single-thread path (vector engine,
    rendered window kernel) must stay ahead of the solo engine on the
    isolation stage (its target shape)."""
    scale = bench_scale(smoke=True)
    jobs = stage_jobs(scale)
    traces = stage_traces(scale, jobs)
    best = {}
    for engine in ("solo", "vector"):
        best[engine] = min(
            run_stage_once(engine, scale, jobs, traces)[0] for _ in range(3))
    speedup = best["solo"] / best["vector"]
    print(f"\nisolation-stage vector speedup: {speedup:.2f}x "
          f"(solo {best['solo']:.2f}s, vector {best['vector']:.2f}s)")
    assert speedup >= VECTOR_SPEEDUP_FLOOR


def main(argv) -> int:
    smoke = "--smoke" in argv
    scale = bench_scale(smoke)
    t0 = time.perf_counter()
    jobs = stage_jobs(scale)
    traces = stage_traces(scale, jobs)
    gen_time = time.perf_counter() - t0
    print(f"isolation stage: {len(jobs)} jobs over {len(traces)} traces "
          f"({scale.accesses} accesses each; generation {gen_time:.2f} s)")
    seconds = {}
    for engine in ("batched", "solo", "vector"):
        best, accesses = None, 0
        for _ in range(2 if smoke else 3):
            elapsed, accesses = run_stage_once(engine, scale, jobs, traces)
            best = elapsed if best is None else min(best, elapsed)
        seconds[engine] = best
        print(f"  {engine:8s} {best:6.2f} s "
              f"({accesses / best / 1e6:.2f} M refs/s)")
    speedup = seconds["batched"] / seconds["solo"]
    vector_speedup = seconds["solo"] / seconds["vector"]
    print(f"  solo speedup    {speedup:6.2f} x (vs batched, informational)")
    print(f"  vector speedup  {vector_speedup:6.2f} x (vs solo)")
    if vector_speedup < VECTOR_SPEEDUP_FLOOR:
        print(f"FAIL: vector speedup below the {VECTOR_SPEEDUP_FLOOR}x floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
