"""Dependency-aware ready-set scheduling of campaign jobs.

The old runner executed a campaign as two global barriers: *every*
isolation job, then *every* outcome job.  The barrier is stricter than
the real dependence structure — an outcome job needs only *its own*
:func:`~.jobs.isolation_deps` (the per-thread LRU/policy isolation runs
that define its cycle-matched budgets), not the whole stage.  This module
schedules the exact dependence graph instead:

* every pending job starts with its set of *pending* dependency keys
  (store hits are satisfied up front);
* a job enters the **ready set** when that set drains; isolation jobs
  (and outcome jobs whose deps were all cached) are ready immediately;
* ready jobs are dispatched to idle workers the moment both exist — an
  outcome job can start while unrelated isolation jobs are still queued.

**Exactness.**  Scheduling order cannot change results: jobs are pure
functions of their specs, and a dependency is consumed *through the
store* (the worker-side :class:`~.runner.StoreWorkloadRunner` funnel), so
the only scheduling invariant needed for bit-identity is that a job's
deps are in the store before the job reads them.  The scheduler
guarantees that by construction — ``done(key)`` events are sent *after*
the worker's ``store.put`` — and even a violation would be correctness-
neutral: the funnel recomputes a missing isolation result inline,
bit-identically, because the computation itself is deterministic.  That
safety net is also what lets a permanently-failed isolation job merely
degrade its dependents (they recompute inline) instead of wedging them.

**Locality.**  Workers keep warm per-scale runners, whose traces are
memoised by ``(benchmark, core)`` slot (one isolation slot at a time).
Jobs sharing :func:`locality_key` (same scale recipe, same
benchmark/core slots) are therefore routed to the worker that last ran
one of them, which generates none of their traces again — a sticky
assignment with per-worker ready queues.  An idle worker with nothing of its own *steals* from the
longest queue (classic work stealing, taking from the tail to leave the
victim its locality run), so placement is a hint, never a stall.

**Failure.**  A ``failed`` or ``died`` event requeues the in-flight job
at the front of the ready set, up to ``max_retries`` requeues; after
that the job is recorded as a :class:`FailedJob` and its dependents
proceed (inline recompute, above).  A dead worker therefore costs
throughput, never completeness — and never a hang.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.campaign.jobs import Job, KIND_OUTCOME, isolation_deps
from repro.campaign.pool import PoolEvent, WorkerPool
from repro.campaign.store import ResultStore


def locality_key(job: Job) -> Tuple:
    """Placement affinity of a job: its trace recipes plus geometry scale.

    Two jobs with equal keys replay the same generated traces (same
    ``(seed, benchmark, core_id)`` recipes, same access count) over the
    same geometry family, so a worker that just ran one has the other's
    traces warm.
    """
    scale = job.scale
    if job.kind == KIND_OUTCOME:
        slots = tuple(enumerate(job.workload))
    else:
        slots = ((job.core_id, job.benchmark),)
    return (scale.scale, scale.accesses, scale.seed, slots)


@dataclass
class FailedJob:
    """One job that exhausted its retries."""

    key: str
    label: str
    attempts: int
    error: str


@dataclass
class SchedulerStats:
    """Observability counters of one scheduler run."""

    #: Peak size of the ready set (dispatchable backlog).
    ready_peak: int = 0
    #: Peak number of simultaneously in-flight jobs.
    max_concurrency: int = 0
    #: Total dispatches (> completed jobs when there were retries).
    dispatched: int = 0
    #: Jobs requeued after a failure or worker death.
    retries: int = 0
    #: Dispatches stolen from another worker's locality queue.
    steals: int = 0
    #: Dispatches that reused a worker's warm locality state.
    locality_hits: int = 0
    #: Dispatches that had to warm a locality key up on a worker.
    locality_misses: int = 0
    #: Workers lost mid-run (process death or dropped connection).
    worker_deaths: int = 0
    #: Distinct workers that ever joined.
    workers_seen: int = 0

    def summary(self) -> str:
        """One human-readable scheduler accounting line."""
        return (f"scheduler: ready-peak={self.ready_peak} "
                f"concurrency={self.max_concurrency} "
                f"dispatched={self.dispatched} retries={self.retries} "
                f"locality={self.locality_hits}/"
                f"{self.locality_hits + self.locality_misses} "
                f"steals={self.steals} deaths={self.worker_deaths}")


class ReadySetScheduler:
    """Drives one pool through a pending job graph (see module docstring).

    Parameters
    ----------
    store:
        Completed values are read back from here (workers publish first,
        ack second).
    max_retries:
        Requeues allowed per job before it is recorded as failed.
    on_dispatch:
        Test hook called ``(key, job, worker)`` at each dispatch, before
        the job is handed to the pool.
    """

    def __init__(self, store: ResultStore, max_retries: int = 2,
                 on_dispatch: Optional[Callable[[str, Job, str], None]] = None,
                 echo: Optional[Callable[[str], None]] = None) -> None:
        self.store = store
        self.max_retries = max_retries
        self.on_dispatch = on_dispatch
        self.echo = echo or (lambda _msg: None)
        self.stats = SchedulerStats()
        self.failed: List[FailedJob] = []
        #: Wall-clock span of executed jobs per kind (stage accounting).
        self.kind_walls: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def run(self, pool: WorkerPool, pending: Sequence[Tuple[str, Job]],
            satisfied: Set[str], results: Dict[Job, Any]) -> int:
        """Execute every pending job on ``pool``; returns executed count.

        ``pending`` is the (already deduplicated) list of jobs missing
        from the store, isolation entries first; ``satisfied`` the keys
        already cached.  Successful values are added to ``results``.
        """
        self._jobs: Dict[str, Job] = dict(pending)
        self._deps: Dict[str, Set[str]] = {}
        self._dependents: Dict[str, List[str]] = {}
        self._attempts: Dict[str, int] = {}
        self._done: Set[str] = set(satisfied)
        # Dependencies are looked up among the pending jobs, not hashed.
        # One equal to none of them is in the store already — or differs
        # from the pending job with its key in unkeyed fields only, and
        # the worker's funnel recomputes whatever it misses inline.
        key_of = {job: key for key, job in pending}
        for key, job in pending:
            if job.kind != KIND_OUTCOME:
                self._deps[key] = set()
                continue
            deps = {key_of[dep] for dep in isolation_deps(job)
                    if dep in key_of}
            self._deps[key] = deps - self._done
            for dep in self._deps[key]:
                self._dependents.setdefault(dep, []).append(key)

        self._workers: Set[str] = set()
        self._idle: Set[str] = set()
        self._inflight: Dict[str, str] = {}
        self._assignment: Dict[Tuple, str] = {}
        self._seen: Dict[str, Set[Tuple]] = {}
        self._ready_for: Dict[str, deque] = {}
        self._ready_any: deque = deque()
        self._ready_count = 0
        self._first_dispatch: Dict[str, float] = {}
        self._last_finish: Dict[str, float] = {}
        executed = 0

        for key, job in pending:
            if not self._deps[key]:
                self._push_ready(key)

        while True:
            self._dispatch_ready(pool)
            if not self._inflight and not self._ready_count:
                break
            event = pool.next_event(timeout=5.0)
            if event is None:
                continue
            executed += self._handle(event, results)

        for kind, start in self._first_dispatch.items():
            self.kind_walls[kind] = self._last_finish.get(kind, start) - start
        return executed

    # ------------------------------------------------------------------
    # Ready-set bookkeeping
    # ------------------------------------------------------------------
    def _push_ready(self, key: str, front: bool = False) -> None:
        """Queue a runnable job, honouring its locality assignment."""
        target = self._assignment.get(locality_key(self._jobs[key]))
        if target is not None and target in self._workers:
            dq = self._ready_for.setdefault(target, deque())
        else:
            dq = self._ready_any
        if front:
            dq.appendleft(key)
        else:
            dq.append(key)
        self._ready_count += 1
        self.stats.ready_peak = max(self.stats.ready_peak, self._ready_count)

    def _pick_for(self, worker: str) -> Optional[str]:
        """Choose the next job for an idle worker (locality, then steal)."""
        dq = self._ready_for.get(worker)
        if dq:
            key = dq.popleft()
        elif self._ready_any:
            key = self._ready_any.popleft()
            self._assignment[locality_key(self._jobs[key])] = worker
        else:
            victim = max((d for d in self._ready_for.values() if d),
                         key=len, default=None)
            if victim is None:
                return None
            key = victim.pop()
            self.stats.steals += 1
        self._ready_count -= 1
        lkey = locality_key(self._jobs[key])
        seen = self._seen.setdefault(worker, set())
        if lkey in seen:
            self.stats.locality_hits += 1
        else:
            self.stats.locality_misses += 1
            seen.add(lkey)
        return key

    def _dispatch_ready(self, pool: WorkerPool) -> None:
        """Pair idle workers with ready jobs until one side runs out."""
        while self._idle and self._ready_count:
            worker = next(iter(self._idle))
            key = self._pick_for(worker)
            if key is None:  # pragma: no cover - ready_count guards this
                return
            self._idle.discard(worker)
            self._inflight[worker] = key
            job = self._jobs[key]
            kind = job.kind
            self._first_dispatch.setdefault(kind, time.perf_counter())
            self.stats.dispatched += 1
            self.stats.max_concurrency = max(self.stats.max_concurrency,
                                             len(self._inflight))
            if self.on_dispatch is not None:
                self.on_dispatch(key, job, worker)
            pool.dispatch(worker, key, job)

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def _handle(self, event: PoolEvent, results: Dict[Job, Any]) -> int:
        """Apply one pool event; returns 1 when a job completed."""
        if event.kind == "joined":
            self._workers.add(event.worker)
            self._idle.add(event.worker)
            self.stats.workers_seen += 1
            return 0
        if event.kind == "died":
            self.stats.worker_deaths += 1
            self._workers.discard(event.worker)
            self._idle.discard(event.worker)
            self._inflight.pop(event.worker, None)
            stranded = self._ready_for.pop(event.worker, None)
            if stranded:
                self._ready_any.extend(stranded)
            for key in event.keys:
                self.echo(f"  worker {event.worker} died with {key[:12]} "
                          f"in flight ({event.error}); requeueing")
                self._requeue(key, event.error or "worker died")
            return 0
        # done / failed: resolve the in-flight job of this worker.
        key = self._inflight.pop(event.worker, None)
        if key is None:
            return 0
        self._idle.add(event.worker)
        if event.kind == "failed":
            self._requeue(key, event.error)
            return 0
        value = self.store.get(key)
        if value is None:
            # Acked done but unreadable (remote hiccup, torn transfer):
            # treat exactly like a failure and recompute.
            self._requeue(key, "result unreadable after completion")
            return 0
        self._complete(key, value, results)
        return 1

    def _requeue(self, key: str, error: str) -> None:
        """Retry a failed dispatch, or record it as permanently failed."""
        attempts = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempts
        if attempts <= self.max_retries:
            self.stats.retries += 1
            self._push_ready(key, front=True)
            return
        job = self._jobs[key]
        self.failed.append(FailedJob(key=key, label=job.label,
                                     attempts=attempts, error=error))
        self.echo(f"  FAILED after {attempts} attempts: {job.label} "
                  f"({error})")
        # Unlock dependents: they recompute missing inputs inline.
        self._finish(key)

    def _complete(self, key: str, value: Any,
                  results: Dict[Job, Any]) -> None:
        """Record a successful job and unlock its dependents."""
        results[self._jobs[key]] = value
        self._finish(key)

    def _finish(self, key: str) -> None:
        """Mark a key finished (either outcome) and update readiness."""
        self._done.add(key)
        self._last_finish[self._jobs[key].kind] = time.perf_counter()
        for dependent in self._dependents.get(key, ()):
            deps = self._deps[dependent]
            deps.discard(key)
            if not deps:
                self._push_ready(dependent)
