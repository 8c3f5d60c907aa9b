"""Campaign-layer benchmark: worker-pool sweep vs the serial path.

Measures the three walls the campaign layer is built to knock down, on a
real figure matrix:

1. **serial** — the figure module's own loop (one process, in-memory
   caching only), the pre-campaign status quo;
2. **pool (cold)** — the same matrix through ``Campaign`` on N workers
   with an empty store: isolation stage first (deduplicated shared
   sub-results), then the embarrassingly parallel outcome stage;
3. **pool (warm)** — the same invocation again: every job a store hit,
   zero simulations executed.

The sweep should speed up roughly by the core count (minus the isolation
stage's smaller width), and the warm run should be near-instant.  Results
are checked bit-identical between the serial and pool paths, so the bench
doubles as an end-to-end equivalence test at benchmark scale.

A second comparison, ``--pool-modes``, races the *pool implementations*
against each other on one matrix: serial, the persistent process pool
(one set of workers for the whole campaign, locality-routed) and a
remote pool on loopback, with the modes' result digests cross-checked.
``record.py campaign`` records the comparison (the committed
``BENCH_campaign.json`` is its last recording with the removed per-stage
mode, 1.78x slower than the persistent pool).

Run directly::

    PYTHONPATH=src python benchmarks/bench_campaign.py                # fig6
    PYTHONPATH=src python benchmarks/bench_campaign.py --target fig7 -j 8
    PYTHONPATH=src python benchmarks/bench_campaign.py --smoke        # ~30 s
    PYTHONPATH=src python benchmarks/bench_campaign.py --pool-modes

``REPRO_*`` environment knobs control the scale as everywhere else.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import replace

from repro.campaign.jobs import outcome_job
from repro.campaign.pool import RemotePool, run_remote_worker
from repro.campaign.runner import Campaign, plan_jobs, run_serial
from repro.campaign.store import ResultStore
from repro.config import config_unpartitioned
from repro.experiments import fig6, fig7, fig8
from repro.experiments.common import ExperimentScale, WorkloadRunner

MATRICES = {"fig6": fig6.matrix, "fig7": fig7.matrix, "fig8": fig8.matrix}

#: Bench default: a lighter trace length than the figure benches so the
#: serial baseline stays in interactive territory on a laptop.
BENCH_ACCESSES = int(os.environ.get("REPRO_CAMPAIGN_ACCESSES", "20000"))

SMOKE_SCALE = ExperimentScale(
    scale=16, accesses=2_000, target_cycles=200_000.0,
    atd_sampling=4, interval_cycles=50_000, seed=7,
    mixes_2t=("2T_05",), mixes_4t=("4T_03",), mixes_8t=("8T_11",),
    mixes_fig8=("2T_05",), benchmarks_1t=("crafty",),
)


def bench(scale: ExperimentScale, target: str, jobs: int) -> int:
    matrix = MATRICES[target](scale)
    plan = plan_jobs(matrix)
    print(f"{target}: {len(plan.outcome)} outcome + {len(plan.isolation)} "
          f"isolation job(s), {jobs} worker(s), "
          f"accesses={scale.accesses}, scale=1/{scale.scale}")

    t0 = time.perf_counter()
    serial_results = run_serial(matrix, WorkloadRunner(scale))
    t_serial = time.perf_counter() - t0
    print(f"  serial        {t_serial:8.2f} s")

    store_root = tempfile.mkdtemp(prefix="repro-campaign-bench-")
    try:
        store = ResultStore(store_root)
        t0 = time.perf_counter()
        pool_results, cold = Campaign(store, workers=jobs).run(matrix)
        t_cold = time.perf_counter() - t0
        speedup = t_serial / t_cold if t_cold else float("inf")
        print(f"  pool (cold)   {t_cold:8.2f} s   speedup {speedup:5.2f}x  "
              f"(executed={cold.executed})")

        t0 = time.perf_counter()
        _, warm = Campaign(store, workers=jobs).run(matrix)
        t_warm = time.perf_counter() - t0
        print(f"  pool (warm)   {t_warm:8.2f} s   "
              f"(executed={warm.executed}, cached={warm.cached})")
    finally:
        shutil.rmtree(store_root, ignore_errors=True)

    mismatches = sum(
        1 for job, expected in serial_results.items()
        if job.kind == "outcome"
        and pool_results[job].result.threads != expected.result.threads
    )
    ok = mismatches == 0 and warm.executed == 0
    print(f"  identity: {'OK' if mismatches == 0 else 'MISMATCH'}   "
          f"warm cache-hit: {'OK' if warm.executed == 0 else 'FAILED'}")
    return 0 if ok else 1


#: Scale of the pool-mode comparison: 1-core points over the default
#: 1-thread benchmark set, two policies each.  Two jobs per trace keeps
#: the per-trace fixed costs (generation, L1 window memo) a large slice
#: of every job — exactly the work a persistent pool amortises.
POOL_BENCH_SCALE = ExperimentScale(
    scale=16, accesses=12_000, target_cycles=600_000.0,
    atd_sampling=4, interval_cycles=50_000, seed=11,
)


def pool_bench_matrix(scale: ExperimentScale):
    """1-core outcome jobs: every ``benchmarks_1t`` entry x {LRU, NRU}."""
    jobs = []
    for benchmark in scale.benchmarks_1t:
        for policy in ("lru", "nru"):
            jobs.append(outcome_job(scale, benchmark,
                                    config_unpartitioned(policy),
                                    benchmarks=(benchmark,)))
    return jobs


def _run_mode(mode: str, scale: ExperimentScale, matrix, jobs: int):
    """One cold campaign run of ``matrix`` under one pool mode.

    Returns ``(seconds, report)``; every mode starts from an empty store
    so the same simulations execute — only the execution strategy varies.
    """
    store_root = tempfile.mkdtemp(prefix=f"repro-poolbench-{mode}-")
    try:
        store = ResultStore(store_root)
        if mode == "serial":
            campaign = Campaign(store, workers=1)
        elif mode == "persistent":
            campaign = Campaign(store, workers=jobs)
        elif mode == "remote":
            pool = RemotePool("127.0.0.1", 0)
            campaign = Campaign(store, workers=jobs, pool=pool)
            for _ in range(jobs):
                threading.Thread(
                    target=run_remote_worker,
                    args=(pool.address, ResultStore(store_root)),
                    daemon=True).start()
        else:
            raise ValueError(f"unknown pool mode {mode!r}")
        t0 = time.perf_counter()
        results, report = campaign.run(matrix)
        elapsed = time.perf_counter() - t0
        if report.failed:
            raise RuntimeError(f"{mode}: {len(report.failed)} job(s) failed")
        return elapsed, report, results
    finally:
        shutil.rmtree(store_root, ignore_errors=True)


POOL_MODES = ("serial", "persistent", "remote")


def _mode_child(mode: str, scale: ExperimentScale, jobs: int, conn) -> None:
    """Run one mode in a pristine child; ship back timing + result digest."""
    import hashlib

    from repro.campaign.hashing import job_key
    from repro.campaign.store import canonical_dumps

    try:
        matrix = pool_bench_matrix(scale)
        elapsed, report, results = _run_mode(mode, scale, matrix, jobs)
        snapshot = [(job_key(job), results[job].result.threads)
                    for job in matrix]
        digest = hashlib.sha256(canonical_dumps(snapshot)).hexdigest()
        conn.send((elapsed, report.executed, digest))
    except BaseException as exc:  # noqa: BLE001 - surface in the parent
        conn.send(("error", str(exc), ""))
    finally:
        conn.close()


def bench_pool_modes(scale: ExperimentScale = POOL_BENCH_SCALE,
                     jobs: int = 2, repeats: int = 1, echo=print):
    """Race the pool implementations; returns ``mode -> best seconds``.

    Every measurement runs in its own **spawned** subprocess: a fork-based
    pool in a shared bench process would inherit trace caches warmed by an
    earlier mode (serial and the remote bench workers execute in-process)
    and erase exactly the reuse being measured.  The modes' result digests
    are cross-checked — the tri-modal bit-identity requirement at
    benchmark scale.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    matrix = pool_bench_matrix(scale)
    plan = plan_jobs(matrix)
    echo(f"pool modes: {len(plan.outcome)} outcome + {len(plan.isolation)} "
         f"isolation job(s), {jobs} worker(s), accesses={scale.accesses}")
    seconds = {}
    digests = {}
    for mode in POOL_MODES:
        best = float("inf")
        executed = None
        for _ in range(repeats):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_mode_child,
                               args=(mode, scale, jobs, child_conn))
            proc.start()
            child_conn.close()
            payload = parent_conn.recv()
            proc.join()
            if payload[0] == "error":
                raise RuntimeError(f"{mode}: {payload[1]}")
            elapsed, executed, digests[mode] = payload
            best = min(best, elapsed)
        seconds[mode] = best
        echo(f"  {mode:<11} {best:8.2f} s   (executed={executed})")
    if len(set(digests.values())) != 1:
        raise RuntimeError(f"pool modes disagree on results: {digests}")
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", choices=sorted(MATRICES), default="fig6")
    parser.add_argument("--jobs", "-j", type=int,
                        default=os.cpu_count() or 1)
    parser.add_argument("--smoke", action="store_true",
                        help="micro matrix (~30 s): CI-friendly sanity run")
    parser.add_argument("--pool-modes", action="store_true",
                        help="race serial / persistent / remote pools on "
                             "the 1-core matrix")
    args = parser.parse_args(argv)
    if args.pool_modes:
        bench_pool_modes(jobs=max(2, min(args.jobs, 4)))
        return 0
    if args.smoke:
        scale = SMOKE_SCALE
        jobs = min(args.jobs, 2)
    else:
        scale = replace(ExperimentScale.from_env(), accesses=BENCH_ACCESSES)
        jobs = args.jobs
    return bench(scale, args.target, jobs)


if __name__ == "__main__":
    sys.exit(main())
