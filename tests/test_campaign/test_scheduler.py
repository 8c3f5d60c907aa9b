"""Ready-set scheduler: readiness ordering, locality, retries, failure."""

from collections import deque

import pytest

from repro.campaign.hashing import job_key
from repro.campaign.jobs import KIND_OUTCOME, isolation_deps, outcome_job
from repro.campaign.pool import PoolEvent, SerialPool, WorkerPool
from repro.campaign.runner import Campaign, plan_jobs
from repro.campaign.scheduler import (
    FailedJob,
    ReadySetScheduler,
    SchedulerStats,
    locality_key,
)
from repro.config import config_unpartitioned


def small_matrix(scale):
    """Same 4-outcome matrix as test_runner: crafty + 2T_05, LRU and NRU."""
    jobs = []
    for mix, benchmarks in (("crafty", ("crafty",)), ("2T_05", None)):
        for policy in ("lru", "nru"):
            jobs.append(outcome_job(scale, mix, config_unpartitioned(policy),
                                    benchmarks=benchmarks))
    return jobs


class ScriptedPool(WorkerPool):
    """Deterministic in-process pool for scheduler unit tests.

    Dispatches complete synchronously: the job's key is "published" as a
    sentinel store object and a ``done`` event queued — no simulation runs.
    ``fail_keys`` always fail instead; ``die_once`` maps worker -> True to
    make that worker's first dispatch a death (job stranded, no rejoin).
    """

    name = "scripted"

    def __init__(self, workers=2, fail_keys=(), die_once=()):
        self.workers = workers
        self.fail_keys = set(fail_keys)
        self.die_once = set(die_once)
        self.events = deque()
        self.dispatches = []
        self.store = None

    def start(self, store):
        self.store = store
        for i in range(self.workers):
            self.events.append(PoolEvent("joined", f"fake-{i}"))

    def dispatch(self, worker, key, job):
        self.dispatches.append((worker, key))
        if worker in self.die_once:
            self.die_once.discard(worker)
            self.events.append(PoolEvent("died", worker, keys=(key,),
                                         error="scripted death"))
            return
        if key in self.fail_keys:
            self.events.append(PoolEvent("failed", worker, key=key,
                                         error="scripted failure"))
            return
        self.store.put(key, "scripted", ("sentinel", key))
        self.events.append(PoolEvent("done", worker, key=key))

    def next_event(self, timeout=None):
        return self.events.popleft() if self.events else None

    def close(self):
        pass


def pending_for(scale, jobs=None):
    """(pending, deps-by-key) for the shared small matrix."""
    plan = plan_jobs(jobs if jobs is not None else small_matrix(scale))
    pending = plan.isolation + plan.outcome
    deps = {key: {job_key(d) for d in isolation_deps(job)}
            for key, job in pending}
    return pending, deps


class TestReadinessOrdering:
    def test_outcome_never_dispatches_before_its_deps_complete(
            self, micro_scale, store):
        pending, deps = pending_for(micro_scale)
        completed = []
        order = []

        def on_dispatch(key, job, worker):
            order.append(key)
            if job.kind == KIND_OUTCOME:
                # Every one of *this job's* deps is already done — even
                # though unrelated isolation jobs may still be queued.
                assert deps[key] <= set(completed)

        pool = ScriptedPool(workers=2)
        sched = ReadySetScheduler(store, on_dispatch=on_dispatch)
        orig_complete = sched._complete

        def tracking_complete(key, value, results):
            completed.append(key)
            orig_complete(key, value, results)

        sched._complete = tracking_complete
        results = {}
        pool.start(store)
        executed = sched.run(pool, pending, set(), results)
        assert executed == len(pending)
        assert len(results) == len(pending)
        assert not sched.failed

    def test_real_campaign_respects_dependence_order(self, micro_scale,
                                                     store):
        """End to end through SerialPool and real simulations."""
        _pending, deps = pending_for(micro_scale)

        def on_dispatch(key, job, worker):
            if job.kind == KIND_OUTCOME:
                for dep in deps[key]:
                    assert dep in store, (
                        f"outcome {job.label} dispatched before dep {dep}")

        _, report = Campaign(store, workers=1,
                             on_dispatch=on_dispatch).run(
                                 small_matrix(micro_scale))
        assert report.executed == report.total
        assert not report.failed

    def test_precached_deps_make_outcomes_immediately_ready(
            self, micro_scale, store):
        pending, _ = pending_for(micro_scale)
        iso = [(k, j) for k, j in pending if j.kind != KIND_OUTCOME]
        outcome = [(k, j) for k, j in pending if j.kind == KIND_OUTCOME]
        for key, _job in iso:
            store.put(key, "cached", ("sentinel", key))
        pool = ScriptedPool(workers=1)
        sched = ReadySetScheduler(store)
        pool.start(store)
        executed = sched.run(pool, outcome, {k for k, _ in iso}, {})
        assert executed == len(outcome)
        # All outcomes entered the ready set up front: no dependency gap.
        assert sched.stats.ready_peak == len(outcome)


class TestFailureSemantics:
    def test_bounded_retries_then_failed_job(self, micro_scale, store):
        pending, _ = pending_for(micro_scale)
        victim = pending[0][0]  # an isolation key: has dependents
        pool = ScriptedPool(workers=2, fail_keys=[victim])
        sched = ReadySetScheduler(store, max_retries=2)
        results = {}
        pool.start(store)
        sched.run(pool, pending, set(), results)
        assert [f.key for f in sched.failed] == [victim]
        failure = sched.failed[0]
        assert isinstance(failure, FailedJob)
        assert failure.attempts == 3  # initial + 2 retries
        assert "scripted failure" in failure.error
        assert sched.stats.retries == 2
        # Every dispatch of the victim actually happened.
        assert sum(1 for _w, k in pool.dispatches if k == victim) == 3

    def test_failed_dep_still_unlocks_dependents(self, micro_scale, store):
        pending, deps = pending_for(micro_scale)
        victim = pending[0][0]
        dependents = [k for k, j in pending if victim in deps[k]]
        assert dependents  # the victim must actually gate something
        pool = ScriptedPool(workers=2, fail_keys=[victim])
        results = {}
        sched = ReadySetScheduler(store, max_retries=0)
        pool.start(store)
        executed = sched.run(pool, pending, set(), results)
        # Everything except the victim completed; no deadlock.
        assert executed == len(pending) - 1
        dispatched = {k for _w, k in pool.dispatches}
        assert set(dispatched) >= set(dependents)

    def test_worker_death_requeues_inflight_job(self, micro_scale, store):
        pending, _ = pending_for(micro_scale)
        pool = ScriptedPool(workers=2, die_once=["fake-0"])
        sched = ReadySetScheduler(store)
        results = {}
        pool.start(store)
        executed = sched.run(pool, pending, set(), results)
        assert executed == len(pending)  # stranded job re-ran elsewhere
        assert sched.stats.worker_deaths == 1
        assert sched.stats.retries == 1
        assert not sched.failed

    def test_unreadable_done_result_is_retried(self, micro_scale, store):
        """A done-ack whose object cannot be read back counts as failure."""
        pending, _ = pending_for(micro_scale)
        key0 = pending[0][0]

        class LyingPool(ScriptedPool):
            def dispatch(self, worker, key, job):
                self.dispatches.append((worker, key))
                first = sum(1 for _w, k in self.dispatches if k == key0) == 1
                if key != key0 or not first:
                    self.store.put(key, "scripted", ("sentinel", key))
                # else: ack done without publishing anything.
                self.events.append(PoolEvent("done", worker, key=key))

        pool = LyingPool(workers=1)
        sched = ReadySetScheduler(store)
        pool.start(store)
        executed = sched.run(pool, pending, set(), {})
        assert executed == len(pending)
        assert sched.stats.retries == 1
        assert not sched.failed


class TestLocality:
    def test_jobs_sharing_locality_key_stick_to_a_worker(self, micro_scale,
                                                         store):
        pending, _ = pending_for(micro_scale)
        pool = ScriptedPool(workers=2)
        sched = ReadySetScheduler(store)
        pool.start(store)
        sched.run(pool, pending, set(), {})
        stats = sched.stats
        assert stats.dispatched == len(pending)
        assert stats.locality_hits + stats.locality_misses == stats.dispatched
        # The small matrix reuses (benchmark, core) slots across policies:
        # sticky placement must convert some of that into warm dispatches.
        assert stats.locality_hits > 0

    def test_locality_key_shape(self, micro_scale):
        cfg = config_unpartitioned("lru")
        mix_job = outcome_job(micro_scale, "2T_05", cfg)
        one_core = outcome_job(micro_scale, "crafty", cfg,
                               benchmarks=("crafty",))
        # Mix-derived workloads resolve through the catalog (benchmarks
        # is None there) — the key must still be constructible.
        assert locality_key(mix_job)[-1] == tuple(enumerate(mix_job.workload))
        assert locality_key(one_core)[-1] == ((0, "crafty"),)
        for dep in isolation_deps(one_core):
            assert locality_key(dep)[-1] == ((dep.core_id, dep.benchmark),)
        # Same slots, different policy: same affinity (shared traces).
        nru = outcome_job(micro_scale, "crafty", config_unpartitioned("nru"),
                          benchmarks=("crafty",))
        assert locality_key(nru) == locality_key(one_core)


class TestStats:
    def test_summary_mentions_every_counter(self):
        stats = SchedulerStats(ready_peak=3, max_concurrency=2, dispatched=9,
                               retries=1, steals=2, locality_hits=4,
                               locality_misses=5, worker_deaths=1)
        line = stats.summary()
        for fragment in ("ready-peak=3", "concurrency=2", "dispatched=9",
                         "retries=1", "locality=4/9", "steals=2",
                         "deaths=1"):
            assert fragment in line

    def test_campaign_report_carries_scheduler_stats(self, micro_scale,
                                                     store):
        _, report = Campaign(store, workers=1).run(small_matrix(micro_scale))
        assert report.scheduler.dispatched == report.executed
        assert report.scheduler.workers_seen == 1
        assert report.scheduler.max_concurrency == 1

    def test_serial_pool_used_for_single_worker(self, store):
        campaign = Campaign(store, workers=1)
        assert isinstance(campaign._make_pool(5), SerialPool)
