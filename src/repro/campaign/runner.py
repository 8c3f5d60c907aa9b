"""Campaign execution: job graph -> scheduler -> worker pool -> store.

The runner turns a flat list of :class:`Job` specs into a deduplicated
:class:`Plan` (isolation dependencies expanded via
:func:`isolation_deps`), partitions it into *cached* (store hit) and
*pending*, and hands the pending graph to the dependency-aware
:class:`~.scheduler.ReadySetScheduler` running on a
:class:`~.pool.WorkerPool`:

* **SerialPool** (``workers == 1``) executes inline, still through the
  store;
* a persistent **ProcessPool** keeps one set of worker processes — and
  their warm per-scale runners — for the whole campaign;
* a **RemotePool** lets ``repro campaign worker`` processes on other
  machines pull jobs.

There is no stage barrier: an outcome job dispatches the moment its own
isolation dependencies land in the store, and placement routes jobs
sharing traces and geometry to the same warm worker (see
:mod:`.scheduler` for the exactness argument and failure semantics).
Workers write their results into the store themselves (atomic publishes,
see :mod:`.store`), so an interrupted sweep resumes by simply re-running
the campaign: completed jobs are cache hits, only the missing ones
execute.

Determinism: a job's result is a pure function of its spec.  Traces are
generated from ``(scale.seed, benchmark, core_id)`` via the repo's keyed
RNG streams, budgets derive from store-shared isolation IPCs, and the
simulation itself is seeded from the spec — so pool execution, serial
execution, remote execution and any interleaving of them produce
bit-identical metrics (pinned by ``tests/test_campaign/test_figures.py``
and the differential pool tests).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cache import transitions
from repro.campaign.hashing import canonical_spec, job_key
from repro.campaign.jobs import (
    Job,
    KIND_ISOLATION,
    KIND_OUTCOME,
    isolation_deps,
    isolation_job,
)
from repro.campaign.pool import (
    ProcessPool,
    SerialPool,
    WorkerPool,
    kernels_summary,
    resolve_workers,
)
from repro.campaign.scheduler import (
    FailedJob,
    ReadySetScheduler,
    SchedulerStats,
    locality_key,
)
from repro.campaign.store import ResultStore
from repro.cmp.engine import engine_summary
from repro.experiments.common import (
    BASE_L2_BYTES,
    ExperimentScale,
    WorkloadRunner,
)


# ----------------------------------------------------------------------
# Job execution (used identically by workers and the serial path)
# ----------------------------------------------------------------------
def execute_job(job: Job, runner: WorkloadRunner) -> Any:
    """Execute one job on a runner built for the job's scale.

    Returns a :class:`RunOutcome` for outcome jobs and a
    :class:`ThreadResult` for isolation jobs.  The runner must have been
    constructed with ``job.scale`` — the caller owns runner reuse.
    """
    if job.kind == KIND_ISOLATION:
        # The store (or the caller's result dict) memoises isolation jobs:
        # the runner's fingerprint-keyed memo would never hit.
        trace = runner.isolation_trace(job.benchmark, job.core_id)
        return runner.isolation(job.l2_bytes).simulate(trace, job.policy)
    return runner.run(job.mix, job.config, l2_bytes=job.l2_bytes,
                      benchmarks=job.benchmarks,
                      memory_service_interval=job.memory_service_interval)


def run_serial(jobs: Sequence[Job], runner: WorkloadRunner) -> Dict[Job, Any]:
    """Execute jobs in order on one in-process runner (no store).

    The store-less reference path (``figN.assemble(scale,
    run_serial(figN.matrix(scale), runner))``); the campaign path must
    match it bit for bit.
    """
    return {job: execute_job(job, runner) for job in jobs}


class StoreWorkloadRunner(WorkloadRunner):
    """WorkloadRunner whose isolation lookups go through a result store.

    Overrides the :meth:`WorkloadRunner.iso_results` funnel: each per-thread
    isolation result is first looked up in an in-memory memo, then in the
    store, and only computed (and published) on a genuine miss.  This is
    the piece that lets outcome jobs in different worker processes share
    one set of isolation runs — and the safety net that makes scheduling
    order correctness-neutral: a missing dependency is recomputed inline,
    bit-identically.
    """

    def __init__(self, scale: ExperimentScale, store: ResultStore) -> None:
        super().__init__(scale)
        self.store = store
        self._iso_memo: Dict[str, Any] = {}

    def iso_results(self, benchmarks, policy, l2_bytes=BASE_L2_BYTES):
        results = []
        for core_id, benchmark in enumerate(benchmarks):
            job = isolation_job(self.scale, benchmark, core_id, policy,
                                l2_bytes)
            key = job_key(job)
            value = self._iso_memo.get(key)
            if value is None:
                value = self.store.get(key)
            if value is None:
                value = execute_job(job, self)
                self.store.put(key, canonical_spec(job), value)
            self._iso_memo[key] = value
            results.append(value)
        return results


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """Execution accounting of one :meth:`Campaign.run` call."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    #: Resolved worker count (``--jobs 0``/``auto`` resolves to the CPU
    #: count before it lands here).
    workers: int = 1
    #: Pool flavour the run used ("serial", "process", "remote", ...).
    pool: str = "serial"
    #: (stage name, executed, cached, wall seconds) per stage, in
    #: execution order.  Wall is the dispatch-to-last-finish span of the
    #: stage's executed jobs (0.0 when everything was cached).
    stages: List[Tuple[str, int, int, float]] = field(default_factory=list)
    #: Ready-set scheduler counters (see :class:`SchedulerStats`).
    scheduler: SchedulerStats = field(default_factory=SchedulerStats)
    #: Jobs that exhausted their retries (empty on a clean run).
    failed: List[FailedJob] = field(default_factory=list)
    elapsed: float = 0.0

    def summary(self) -> str:
        """One human-readable accounting line (CI asserts cache hits via
        ``--expect-cached`` exit codes, not by parsing this)."""
        return (f"campaign: total={self.total} executed={self.executed} "
                f"cached={self.cached} failed={len(self.failed)} "
                f"workers={self.workers} pool={self.pool} "
                f"elapsed={self.elapsed:.1f}s")

    def stage_lines(self) -> List[str]:
        """Per-stage accounting lines (wall-clock included)."""
        return [f"{name}: executed={executed} cached={cached} "
                f"wall={wall:.2f}s"
                for name, executed, cached, wall in self.stages]


@dataclass
class Plan:
    """Deduplicated two-kind execution plan for a set of jobs."""

    isolation: List[Tuple[str, Job]]
    outcome: List[Tuple[str, Job]]

    @property
    def total(self) -> int:
        """Unique jobs across both kinds."""
        return len(self.isolation) + len(self.outcome)


def plan_jobs(jobs: Sequence[Job]) -> Plan:
    """Expand isolation dependencies and deduplicate by store key.

    Isolation entries are stable-sorted by :func:`locality_key`, so the
    jobs of one trace run back to back and a runner generates it once.
    Each distinct :class:`Job` is hashed once: the configurations of a
    mix share its isolation dependencies.
    """
    keys: Dict[Job, str] = {}
    seen: Set[str] = set()
    isolation: List[Tuple[str, Job]] = []
    outcome: List[Tuple[str, Job]] = []
    for job in jobs:
        entries = [(dep, isolation) for dep in isolation_deps(job)]
        entries.append((job, outcome if job.kind == KIND_OUTCOME
                        else isolation))
        for item, stage in entries:
            if item in keys:
                continue
            key = keys[item] = job_key(item)
            if key not in seen:
                seen.add(key)
                stage.append((key, item))
    isolation.sort(key=lambda entry: locality_key(entry[1]))
    return Plan(isolation=isolation, outcome=outcome)


class Campaign:
    """Executes job lists against a store on a worker pool.

    Parameters
    ----------
    store:
        The content-addressed result store (shared across invocations —
        memoisation and resume both fall out of it).
    workers:
        Worker count; ``0`` or ``None`` resolves to ``os.cpu_count()``
        (the CLI's ``--jobs 0`` / ``--jobs auto``).  ``1`` executes
        inline (still through the store).
    force:
        Ignore store hits and recompute everything (results are still
        republished, so a forced run refreshes the store).
    echo:
        Optional ``print``-like progress sink.
    pool:
        Explicit :class:`WorkerPool` to run on (a ``RemotePool``, a test
        double).  One pool instance drives one run; the campaign starts
        and closes it.  Default: a ``SerialPool`` at width 1, else a
        persistent ``ProcessPool``.
    max_retries:
        Requeues allowed per job after worker failures before the job is
        recorded in :attr:`CampaignReport.failed`.
    on_dispatch:
        Test hook forwarded to the scheduler: ``(key, job, worker)`` at
        each dispatch.
    crash_token:
        Fault-injection token file forwarded to internally created
        process pools (see :func:`~.pool._crash_if_requested`).
    """

    def __init__(self, store: ResultStore, workers: Optional[int] = 1,
                 force: bool = False,
                 echo: Optional[Callable[[str], None]] = None,
                 pool: Optional[WorkerPool] = None,
                 max_retries: int = 2,
                 on_dispatch: Optional[Callable[[str, Job, str], None]] = None,
                 crash_token: Optional[str] = None) -> None:
        self.store = store
        self.workers = resolve_workers(workers)
        self.force = force
        self.echo = echo or (lambda _msg: None)
        self.pool = pool
        self.max_retries = max_retries
        self.on_dispatch = on_dispatch
        self.crash_token = crash_token

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> Tuple[Dict[Job, Any], CampaignReport]:
        """Execute (or recall) every job; returns results and accounting.

        The result dict covers outcome *and* isolation jobs, keyed by the
        :class:`Job` itself, so figure assembly can look points up by
        reconstructing their specs.  Jobs listed in
        :attr:`CampaignReport.failed` are absent from the results.
        """
        start = time.perf_counter()
        plan = plan_jobs(jobs)
        report = CampaignReport(total=plan.total, workers=self.workers)
        results: Dict[Job, Any] = {}
        satisfied: Set[str] = set()
        stages: List[Tuple[str, List[Tuple[str, Job]], int]] = []
        for name, stage in (("isolation", plan.isolation),
                            ("outcome", plan.outcome)):
            pending: List[Tuple[str, Job]] = []
            cached = 0
            for key, job in stage:
                value = None if self.force else self.store.get(key)
                if value is None:
                    pending.append((key, job))
                else:
                    results[job] = value
                    satisfied.add(key)
                    cached += 1
            stages.append((name, pending, cached))
            report.cached += cached
        pending_total = sum(len(pending) for _, pending, _ in stages)
        if pending_total:
            walls = self._run_scheduled(stages, satisfied, results, report)
        else:
            walls = {}
            for name, _pending, cached in stages:
                if cached:
                    self.echo(f"  {name}: all {cached} job(s) cached")
        for name, pending, cached in stages:
            executed = sum(1 for _key, job in pending if job in results)
            report.executed += executed
            report.stages.append((name, executed, cached,
                                  walls.get(name, 0.0)))
        report.elapsed = time.perf_counter() - start
        return results, report

    # ------------------------------------------------------------------
    def _make_pool(self, pending_count: int) -> WorkerPool:
        """Pool for a batch of jobs (the caller's, when one was given)."""
        if self.pool is not None:
            return self.pool
        width = min(self.workers, max(1, pending_count))
        if width == 1:
            return SerialPool()
        return ProcessPool(width, crash_token=self.crash_token)

    def _run_scheduled(self, stages, satisfied: Set[str],
                       results: Dict[Job, Any],
                       report: CampaignReport) -> Dict[str, float]:
        """One pool, one scheduler, no stage barrier."""
        pending = [item for _name, stage_pending, _c in stages
                   for item in stage_pending]
        for name, stage_pending, cached in stages:
            if stage_pending or cached:
                self.echo(f"  {name}: {len(stage_pending)} pending "
                          f"({cached} cached)")
        pool = self._make_pool(len(pending))
        report.pool = pool.name
        self.echo(f"  pool: {pool.name} x{min(self.workers, len(pending))}")
        scheduler = ReadySetScheduler(self.store,
                                      max_retries=self.max_retries,
                                      on_dispatch=self.on_dispatch,
                                      echo=self.echo)
        try:
            pool.start(self.store)
            scheduler.run(pool, pending, satisfied, results)
        finally:
            # One pool instance drives one run; external pools included.
            pool.close()
        report.scheduler = scheduler.stats
        report.failed.extend(scheduler.failed)
        # Which kernels loaded and which engines ran: observational,
        # unkeyed, counted per process.  Only a serial pool runs its jobs
        # here; a process or remote pool's workers bind their own, which
        # the coordinator cannot count until a run record crosses the
        # pool with each result (ROADMAP item 7).  What it can count is
        # the kernels a process pool loaded here before its workers forked.
        counts = (f"{transitions.target_summary()}; {engine_summary()}"
                  if pool.name == SerialPool.name else
                  f"targets and engines: run in the {pool.name} pool's "
                  f"workers, not counted here")
        if isinstance(pool, ProcessPool) and pool.preloaded:
            counts = f"{kernels_summary(pool.preloaded)}; {counts}"
        self.echo(f"  {scheduler.stats.summary()}; {counts}")
        return scheduler.kind_walls
