"""Workload registry and the body of one benchmark iteration.

``run.py`` starts this file as a fresh subprocess per iteration (cold
module memos, an ``ru_maxrss`` of its own); the tests call
:func:`run_iteration` in process.  Only public entry points of ``repro``
are driven: ``Campaign.run``, ``outcome_job`` / ``isolation_job``,
``fig6.matrix`` / ``assemble``, ``run_report_campaign`` / ``build_report``,
``write_report`` and ``validate_report_dict``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.kernels import array as array_kernels
from repro.cache.kernels import resolve_kernel_backend
from repro.campaign import (
    Campaign,
    CampaignReport,
    KIND_ISOLATION,
    ResultStore,
    StoreWorkloadRunner,
    isolation_job,
    outcome_job,
)
from repro.cmp.engine import vector as vector_engine
from repro.cmp.isolation import IsolationRunner
from repro.cmp.simulator import CMPSimulator
from repro.config import SimulationConfig, paper_figure7_configs
from repro.experiments import fig6
from repro.experiments.common import ExperimentScale, scale_preset
from repro.reporting.build import build_report, run_report_campaign
from repro.reporting.emit import validate_report_dict, write_report
from repro.reporting.sections import resolve_sections
from repro.workloads.generator import generate_trace

from digest import (
    combined_digest,
    diff_fields,
    load_golden,
    result_digest,
)
from tracing import TIMED, Tracer, layer_totals, spans_as_dicts

FIG7_MIXES = ("2T_05", "4T_01")
FIG6_MIXES = {"mixes_2t": ("2T_05",), "mixes_4t": ("4T_04",),
              "mixes_8t": ("8T_05",)}
#: One streamer, two partition-sensitive mid-size codes, one small one.
ISOLATION_BENCHMARKS = ("mcf", "parser", "crafty", "twolf")
POLICIES = ("lru", "nru", "bt")
REPORT_SEEDS = 5
#: Report sections of the smoke variant: one figure, one static table.
SMOKE_SECTIONS = ("fig7", "table1")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see README.md for the full catalogue)."""

    name: str
    why: str
    #: Named scale preset the workload runs at.
    preset: str
    #: ``scale -> jobs`` of the one cold serial campaign; None selects the
    #: report pipeline instead.
    jobs: Optional[Callable[[ExperimentScale], list]] = None
    #: Mix selection applied to the preset.
    selection: Dict[str, tuple] = field(default_factory=dict)
    #: Figure assembly run on the cold results inside the timed region.
    assemble: Optional[Callable[[ExperimentScale, dict], Any]] = None
    #: Processes that execute jobs; a one-worker workload is pinned to the
    #: CPU of the harness's host-speed probe.
    workers: int = 1


def _fig7_jobs(scale: ExperimentScale) -> list:
    return [outcome_job(scale, mix, config)
            for mix in FIG7_MIXES for config in paper_figure7_configs()]


def _isolation_jobs(scale: ExperimentScale) -> list:
    return [isolation_job(scale, benchmark, 0, policy)
            for benchmark in ISOLATION_BENCHMARKS for policy in POLICIES]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fig7_partitioned",
        "batched engine with ATD drains, controller boundaries and "
        "owner counters / masks / BT vectors: the roadmap's 98 % case",
        "small", jobs=_fig7_jobs),
    Workload(
        "fig6_shared",
        "same engine on unpartitioned shared L2s, no profiling, no "
        "controller, the only 8-thread heap; bypasses the ATD/controller "
        "layers",
        "small", jobs=fig6.matrix,
        selection=FIG6_MIXES,
        assemble=fig6.assemble),
    Workload(
        "isolation_paper",
        "single-thread path at paper scale: trace generation, bulk L1, "
        "vector engine and array kernels do all the work, BatchedEngine "
        "none",
        "paper", jobs=_isolation_jobs),
    Workload(
        "micro_report_pool2",
        "full report pipeline with the least engine work per job: process "
        "pool, scheduler, worker-side store puts, warm replay, report emit",
        "micro", workers=2),
)}


# ----------------------------------------------------------------------
# One iteration
# ----------------------------------------------------------------------
@dataclass
class _Campaign:
    """One cold campaign with the warm re-run that must execute nothing."""

    store: ResultStore
    rerun: Callable[[], Tuple[dict, CampaignReport]]
    cold: Tuple[dict, CampaignReport]
    warm: Optional[Tuple[dict, CampaignReport]] = None
    cold_s: float = 0.0
    children_cpu_s: float = 0.0


def _children_cpu() -> float:
    times = os.times()
    return times.children_user + times.children_system


def _cpu() -> float:
    times = os.times()
    return times.user + times.system + _children_cpu()


def _scale(workload: Workload, seed: int, smoke: bool) -> ExperimentScale:
    base = scale_preset("micro" if smoke else workload.preset)
    return replace(base, seed=base.seed + seed, **workload.selection)


def _run_campaign(workload: Workload, scale: ExperimentScale, jobs: list,
                  store_root: Path, tracer: Tracer) -> List[_Campaign]:
    store = ResultStore(store_root / "store")

    def rerun():
        return Campaign(store, workers=1).run(jobs)

    start = time.perf_counter()
    with tracer.span("campaign.cold_run"):
        cold = rerun()
    campaign = _Campaign(store, rerun, cold,
                         cold_s=time.perf_counter() - start)
    if workload.assemble is not None:
        workload.assemble(scale, cold[0])
    return [campaign]


def _run_report(workload: Workload, seed: int, smoke: bool, sections: list,
                store_root: Path, tracer: Tracer
                ) -> Tuple[List[_Campaign], List[str], int]:
    """The report pipeline per seed; returns the campaigns, the report
    validation problems and the number of graded points emitted."""
    campaigns = []
    failures: List[str] = []
    points = 0
    for index in range(1 if smoke else REPORT_SEEDS):
        scale = _scale(workload, seed + index, smoke)
        store = ResultStore(store_root / f"store-{index}")

        def rerun(scale=scale, store=store):
            return run_report_campaign(scale, store, sections,
                                       workers=workload.workers)

        children0 = _children_cpu()
        start = time.perf_counter()
        with tracer.span("campaign.cold_run"):
            cold = rerun()
        campaign = _Campaign(store, rerun, cold,
                             cold_s=time.perf_counter() - start,
                             children_cpu_s=_children_cpu() - children0)
        with tracer.span("campaign.warm_replay"):
            campaign.warm = rerun()
        with tracer.span("reporting.build"):
            report, _ = build_report(scale, store, sections,
                                     scale_name=workload.preset,
                                     workers=workload.workers)
        with tracer.span("reporting.emit"):
            paths = write_report(report, store_root / f"report-{index}")
        with tracer.span("reporting.check"):
            payload = json.loads(paths["json"].read_text(encoding="utf-8"))
            problems = validate_report_dict(payload)
        failures += [f"report seed {scale.seed}: {p}" for p in problems]
        points += sum(len(s["points"]) for s in payload["sections"])
        campaigns.append(campaign)
    return campaigns, failures, points


def job_id(job) -> str:
    """Benchmark-owned identity of a job inside one workload run."""
    return f"{job.label}#seed{job.scale.seed}"


def _refs(job, value) -> int:
    if job.kind == KIND_ISOLATION:
        return value.l1_accesses
    return value.result.events.l1_accesses


def _oracle_rerun(campaign: _Campaign, job) -> Any:
    """Re-run one job on the per-access reference engine."""
    scale = job.scale
    if job.kind == KIND_ISOLATION:
        trace = generate_trace(job.benchmark, scale.accesses,
                               scale.baseline_l2_lines, seed=scale.seed,
                               core_id=job.core_id)
        runner = IsolationRunner(
            scale.processor(1, job.l2_bytes),
            SimulationConfig(seed=scale.seed, engine="reference"))
        return runner.thread_result(trace, job.policy)
    # Same construction as WorkloadRunner.run, budgets from the stored
    # isolation results, only the engine differs.
    runner = StoreWorkloadRunner(scale, campaign.store)
    bench = job.workload
    simulation = SimulationConfig(
        seed=scale.seed,
        per_thread_instructions=runner.budgets_for(bench, job.l2_bytes),
        memory_service_interval=job.memory_service_interval,
        engine="reference")
    return CMPSimulator(scale.processor(len(bench), job.l2_bytes),
                        job.config, runner.traces_for(bench),
                        simulation).run()


def _oracle_check(campaign: _Campaign) -> List[str]:
    """Field-by-field mismatches of the workload's cheapest job (the
    cheapest multi-core one when there is any) against the oracle."""
    results = campaign.cold[0]
    multi = [job for job in results
             if job.kind != KIND_ISOLATION and len(job.workload) > 1]
    job = min(multi or results,
              key=lambda j: (_refs(j, results[j]), job_id(j)))
    value = results[job]
    got = value if job.kind == KIND_ISOLATION else value.result
    return [f"oracle {job_id(job)}{path}"
            for path in diff_fields(_oracle_rerun(campaign, job), got)]


def _tally(campaigns: Sequence[_Campaign], tracer: Tracer,
           failures: List[str]
           ) -> Tuple[int, Dict[str, str], Dict[str, Any], Dict[int, int]]:
    """Warm-replay every campaign and walk its results.

    Returns the jobs attempted, the per-job result digests, the exact
    simulated counts and the L2 accesses of the multi-core jobs by thread
    count; appends what went wrong to ``failures``.
    """
    attempted = 0
    digests: Dict[str, str] = {}
    counts = {"cmp.engine.refs": 0, "cache.l2.accesses": 0,
              "cache.l2.misses": 0, "core.controller.repartitions": 0,
              "profiling.atd.sampled": 0}
    l2_by_threads: Dict[int, int] = {}
    for campaign in campaigns:
        if campaign.warm is None:
            with tracer.span("campaign.warm_replay"):
                campaign.warm = campaign.rerun()
        results, report = campaign.cold
        warm_results, warm_report = campaign.warm
        attempted += report.total
        failures += [f"{f.label}: {f.error}" for f in report.failed]
        lost = report.total - len(results) - len(report.failed)
        if lost:
            failures.append(f"{lost} job(s) missing from the results")
        if warm_report.executed or warm_report.cached != report.total:
            failures.append(
                f"warm re-run executed {warm_report.executed} job(s), "
                f"recalled {warm_report.cached} of {report.total}")
        for job, value in results.items():
            ident = job_id(job)
            if ident in digests:
                failures.append(f"{ident}: job id is not unique")
            digests[ident] = result_digest(value)
            if (job not in warm_results
                    or result_digest(warm_results[job]) != digests[ident]):
                failures.append(f"{ident}: warm replay differs from cold")
            counts["cmp.engine.refs"] += _refs(job, value)
            if job.kind == KIND_ISOLATION:
                counts["cache.l2.accesses"] += value.l2_accesses
                counts["cache.l2.misses"] += value.l2_misses
                continue
            events = value.result.events
            counts["cache.l2.accesses"] += events.l2_accesses
            counts["cache.l2.misses"] += events.l2_misses
            counts["core.controller.repartitions"] += events.repartitions
            counts["profiling.atd.sampled"] += events.atd_accesses
            threads = len(value.result.threads)
            l2_by_threads[threads] = (l2_by_threads.get(threads, 0)
                                      + events.l2_accesses)
    counts["digest"] = combined_digest(digests)
    return attempted, digests, counts, l2_by_threads


def run_iteration(name: str, seed: int, store_root: Path,
                  traced: bool = False, smoke: bool = False,
                  spawned_at: Optional[float] = None,
                  setup_only: bool = False,
                  use_golden: bool = True) -> dict:
    """Run one cold iteration of a workload; returns its result record.

    ``store_root`` is an empty directory owned (and removed) by the
    caller.  ``spawned_at`` is the epoch time the interpreter was started
    at, which makes ``setup_s`` cover start-up and imports.  Without a
    golden entry for the seed (or with ``use_golden`` off, as when the
    golden file is being regenerated) the oracle spot-check stands in.
    """
    workload = WORKLOADS[name]
    tracer = Tracer(traced)
    golden = None
    if use_golden and not smoke:
        golden = load_golden().get(name, {}).get(str(seed))
    store_root.mkdir(parents=True, exist_ok=True)
    failures: List[str] = []
    points = 0
    if workload.jobs is not None:
        scale = _scale(workload, seed, smoke)
        jobs = workload.jobs(scale)
    else:
        sections = resolve_sections(SMOKE_SECTIONS if smoke else ())
    setup_s = time.time() - spawned_at if spawned_at is not None else 0.0
    if setup_only:
        return {"workload": name, "seed": seed, "setup_s": setup_s}

    tracer.install()
    cpu0 = _cpu()
    start = time.perf_counter()
    try:
        with tracer.span(TIMED):
            if workload.jobs is not None:
                campaigns = _run_campaign(workload, scale, jobs,
                                          store_root, tracer)
            else:
                campaigns, failures, points = _run_report(
                    workload, seed, smoke, sections, store_root, tracer)
    finally:
        wall_s = time.perf_counter() - start
        cpu_s = _cpu() - cpu0
        tracer.uninstall()
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF,
                              resource.RUSAGE_CHILDREN))
    vector_memo = vector_engine.memo_stats()
    array_memo = array_kernels.memo_stats()

    # ---- verification, outside the timed region -----------------------
    attempted, digests, counts, l2_by_threads = _tally(campaigns, tracer,
                                                       failures)
    if golden is not None:
        for ident in sorted(golden.keys() | digests.keys()):
            if golden.get(ident) != digests.get(ident):
                failures.append(f"{ident}: result digest differs from "
                                f"golden.json")
    oracle_checked = 0
    oracle_mismatches: List[str] = []
    if traced or golden is None:
        oracle_checked = 1
        attempted += 1
        oracle_mismatches = _oracle_check(campaigns[0])
        failures += oracle_mismatches

    cold_report = campaigns[0].cold[1]
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "traced": traced, "smoke": smoke,
        "golden": golden is not None,
        "end_to_end": {
            "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
            "refs_per_s": counts["cmp.engine.refs"] / wall_s,
            "peak_rss_mb": peak_kb / 1024.0,
        },
        "jobs_attempted": attempted, "jobs_failed": len(failures),
        "failures": failures[:20], "counts": counts, "digests": digests,
        "pool": {"name": cold_report.pool, "workers": cold_report.workers},
        "kernel_backend": resolve_kernel_backend("auto"),
    }
    if traced:
        layers = _layer_metrics(tracer, campaigns, counts, l2_by_threads,
                                vector_memo, array_memo)
        layers["reporting.points"] = points
        layers["oracle.checked"] = oracle_checked
        layers["oracle.mismatches"] = len(oracle_mismatches)
        layers["bench.traced_wall_s"] = wall_s
        layers["bench.spans"] = len(tracer.spans)
        record["per_layer"] = layers
        record["predictions"] = _predictions(workload, layers, counts,
                                             wall_s)
        record["spans"] = spans_as_dicts(tracer.spans)
    return record


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Layers reported as ``<layer>.calls`` and ``<layer>.s``.
CALLS_AND_SECONDS = (
    "workloads.generate_trace", "cmp.simulator.build",
    "cmp.engine.batched.run", "cmp.engine.vector.run",
    "cmp.engine.solo.run", "cache.l1.prefilter", "profiling.atd.drain",
    "core.controller.boundary", "cmp.isolation.thread_result",
    "hwmodel.power.evaluate", "campaign.hashing.job_key",
    "campaign.store.get", "campaign.store.put",
)
#: Layers reported as ``<layer>.s`` only.
SECONDS_ONLY = (
    "campaign.runner.plan", "campaign.cold_run", "campaign.warm_replay",
    "campaign.pool.start", "campaign.pool.close", "reporting.build",
    "reporting.emit", "reporting.check",
)
SCHEDULER_COUNTERS = ("dispatched", "steals", "locality_hits",
                      "locality_misses", "retries", "worker_deaths",
                      "ready_peak", "max_concurrency")
THREAD_SPLITS = (2, 4, 8)


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _ns_per(seconds: float, accesses: int) -> float:
    return 1e9 * seconds / accesses if accesses else 0.0


def _layer_metrics(tracer: Tracer, campaigns: Sequence[_Campaign],
                   counts: dict, l2_by_threads: Dict[int, int],
                   vector_memo: dict, array_memo: dict) -> Dict[str, float]:
    totals = layer_totals(tracer.spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "n": 0}

    def total(layer: str) -> dict:
        return totals.get(layer, zero)

    m: Dict[str, float] = {}
    for layer in CALLS_AND_SECONDS:
        m[f"{layer}.calls"] = total(layer)["calls"]
        m[f"{layer}.s"] = total(layer)["s"]
    for layer in SECONDS_ONLY:
        m[f"{layer}.s"] = total(layer)["s"]
    m["cache.l1.prefilter.refs"] = total("cache.l1.prefilter")["n"]
    m["profiling.atd.drain.lines"] = total("profiling.atd.drain")["n"]
    m["campaign.store.get.hits"] = total("campaign.store.get")["n"]
    # Bytes on disk after the cold runs: under the process pool the puts
    # happen in the workers, out of the coordinator's sight.
    m["campaign.store.put.bytes"] = sum(
        path.stat().st_size for campaign in campaigns
        for path in Path(campaign.store.root).rglob("*.pkl"))
    for key in ("cmp.engine.refs", "cache.l2.accesses", "cache.l2.misses",
                "profiling.atd.sampled"):
        m[key] = counts[key]

    # Batched run minus its L1 prefilter, ATD drain and controller
    # children: heap traffic + scalar L2 kernel + the Python loop.
    batched = "cmp.engine.batched"
    loop_self = total(f"{batched}.run")["self_s"]
    batched_l2 = sum(l2_by_threads.get(n, 0) for n in THREAD_SPLITS)
    m[f"{batched}.loop_self.s"] = loop_self
    m[f"{batched}.ns_per_l2_access"] = _ns_per(loop_self, batched_l2)
    for n in THREAD_SPLITS:
        split = total(f"{batched}.run.{n}t")["self_s"]
        accesses = l2_by_threads.get(n, 0)
        m[f"{batched}.loop_self.{n}t.s"] = split
        m[f"{batched}.ns_per_l2_access.{n}t"] = _ns_per(split, accesses)

    m["cmp.engine.vector.memo_hit_ratio"] = _ratio(
        vector_memo["l1_hits"], vector_memo["l1_misses"])
    m["cache.kernels.array.memo_hit_ratio"] = _ratio(
        array_memo["cold_hits"], array_memo["cold_misses"])

    jobs = sum(c.cold[1].total for c in campaigns)
    warm_s = m["campaign.warm_replay.s"]
    m["campaign.warm_replay.us_per_job"] = 1e6 * warm_s / jobs
    stage_walls = {"isolation": 0.0, "outcome": 0.0}
    for campaign in campaigns:
        for stage, _executed, _cached, wall in campaign.cold[1].stages:
            stage_walls[stage] += wall
    for stage, wall in stage_walls.items():
        m[f"campaign.stage.{stage}.wall_s"] = wall
    workers = campaigns[0].cold[1].workers
    cold_s = sum(c.cold_s for c in campaigns)
    m["campaign.pool.parallel_eff"] = (
        sum(c.children_cpu_s for c in campaigns) / (workers * cold_s))
    for counter in SCHEDULER_COUNTERS:
        values = [getattr(c.cold[1].scheduler, counter) for c in campaigns]
        peak = counter in ("ready_peak", "max_concurrency")
        m[f"campaign.scheduler.{counter}"] = (max(values) if peak
                                              else sum(values))
    return m


def _predictions(workload: Workload, m: Dict[str, float], counts: dict,
                 wall_s: float) -> List[dict]:
    """The README's layer -> end-to-end predictions, checked on this run.

    A prediction that fails is a finding to report, not a failed run.
    """
    serial = workload.jobs is not None
    store_and_hashing = (m["campaign.store.get.s"] + m["campaign.store.put.s"]
                         + m["campaign.hashing.job_key.s"])
    batched_share = m["cmp.engine.batched.run.s"] / wall_s
    checks = {
        "fig7_partitioned": [
            ("cmp.engine.batched.run.s >= 0.9 wall_s", batched_share >= 0.9),
        ],
        "fig6_shared": [
            ("cmp.engine.batched.run.s >= 0.8 wall_s", batched_share >= 0.8),
            ("profiling.atd.drain.calls == 0",
             m["profiling.atd.drain.calls"] == 0),
            ("core.controller.boundary.calls == 0",
             m["core.controller.boundary.calls"] == 0),
        ],
        "isolation_paper": [
            ("cmp.engine.batched.run.calls == 0",
             m["cmp.engine.batched.run.calls"] == 0),
            ("core.controller.boundary.calls == 0",
             m["core.controller.boundary.calls"] == 0),
        ],
        "micro_report_pool2": [],
    }[workload.name]
    if serial:
        checks += [
            ("campaign.store.* + campaign.hashing.* < 0.01 wall_s",
             store_and_hashing < 0.01 * wall_s),
            ("core.controller.boundary.calls == summed repartitions",
             m["core.controller.boundary.calls"]
             == counts["core.controller.repartitions"]),
        ]
    return [{"prediction": text, "holds": bool(holds)}
            for text, holds in checks]


# ----------------------------------------------------------------------
# Child entry point
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--store", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--setup-only", type=int, default=0)
    parser.add_argument("--golden", type=int, default=1)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None and WORKLOADS[args.workload].workers == 1:
        os.sched_setaffinity(0, {args.cpu})
    record = run_iteration(args.workload, args.seed, args.store,
                           traced=bool(args.traced), smoke=bool(args.smoke),
                           spawned_at=args.spawned_at,
                           setup_only=bool(args.setup_only),
                           use_golden=bool(args.golden))
    args.out.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
