"""Campaign execution: pool == serial, memoisation, resume, sharing."""

from collections import Counter

import pytest

from repro.campaign.hashing import job_key
from repro.campaign.jobs import isolation_job, outcome_job
from repro.campaign.runner import (
    Campaign,
    StoreWorkloadRunner,
    plan_jobs,
    run_serial,
)
from repro.config import config_unpartitioned, paper_figure7_configs
from repro.experiments.common import WorkloadRunner
from repro.workloads.mixes import get_workload


def small_matrix(scale):
    """1-core crafty + the 2-thread mix, LRU and NRU: 4 outcome jobs."""
    jobs = []
    for mix, benchmarks in (("crafty", ("crafty",)), ("2T_05", None)):
        for policy in ("lru", "nru"):
            jobs.append(outcome_job(scale, mix, config_unpartitioned(policy),
                                    benchmarks=benchmarks))
    return jobs


class TestPlan:
    def test_stages_and_dedup(self, micro_scale):
        plan = plan_jobs(small_matrix(micro_scale))
        assert len(plan.outcome) == 4
        # crafty@0 x {lru,nru} is shared between the 1-core point and
        # 2T_05 (whose first benchmark is crafty): dedup leaves
        # {crafty@0, <mix second bench>@1} x {lru, nru}.
        iso_ids = {(j.benchmark, j.core_id, j.policy)
                   for _, j in plan.isolation}
        assert len(iso_ids) == len(plan.isolation)
        assert plan.total == len(plan.outcome) + len(plan.isolation)

    def test_duplicate_jobs_collapse(self, micro_scale):
        jobs = small_matrix(micro_scale)
        plan_once = plan_jobs(jobs)
        plan_twice = plan_jobs(jobs + jobs)
        assert plan_twice.total == plan_once.total

    def test_each_distinct_job_is_hashed_once(self, micro_scale,
                                              monkeypatch):
        """Every configuration of a mix lists the same isolation
        dependencies; the plan hashes each distinct job once, and the
        keys are the jobs' own store keys."""
        from repro.campaign import runner

        hashed = Counter()

        def counting(job):
            hashed[job] += 1
            return job_key(job)

        monkeypatch.setattr(runner, "job_key", counting)
        jobs = [outcome_job(micro_scale, mix, config)
                for mix in ("2T_05", "4T_01")
                for config in paper_figure7_configs()]
        plan = plan_jobs(jobs + jobs)
        assert set(hashed.values()) == {1}
        entries = plan.isolation + plan.outcome
        assert len(hashed) == len(entries) == plan.total
        assert all(key == job_key(job) for key, job in entries)


class TestIsolationTraceSlot:
    def test_consecutive_jobs_of_a_trace_generate_it_once(self, micro_scale,
                                                          monkeypatch):
        """plan_jobs orders policy-major isolation jobs by trace; the
        runner holds one isolation trace, and drops it *before* generating
        the next (two paper-scale traces must never be resident
        together)."""
        from repro.experiments import common

        runner = WorkloadRunner(micro_scale)
        generate, held_at_call = common.generate_trace, []

        def counting(*args, **kwargs):
            held_at_call.append((dict(runner._iso_trace),
                                 dict(runner._traces)))
            return generate(*args, **kwargs)

        monkeypatch.setattr(common, "generate_trace", counting)
        jobs = [isolation_job(micro_scale, benchmark, core_id, policy)
                for policy in ("lru", "nru", "bt")
                for benchmark, core_id in (("crafty", 0), ("mcf", 1))]
        planned = [job for _key, job in plan_jobs(jobs).isolation]
        results = run_serial(planned, runner)
        assert held_at_call == [({}, {})] * 2
        fresh = run_serial(jobs[1:2], WorkloadRunner(micro_scale))
        assert results[jobs[1]] == fresh[jobs[1]]


class TestTraceGeneration:
    def test_campaign_generates_each_slot_at_most_twice(self, micro_scale,
                                                        store, monkeypatch):
        """Once for its isolation jobs, once for the mixes (the isolation
        slot's last trace is taken over), however many configurations."""
        from repro.experiments import common

        generate, calls = common.generate_trace, Counter()

        def counting(name, *args, core_id=0, **kwargs):
            calls[name, core_id] += 1
            return generate(name, *args, core_id=core_id, **kwargs)

        monkeypatch.setattr(common, "generate_trace", counting)
        mixes = ("2T_05", "4T_01")
        jobs = [outcome_job(micro_scale, mix, config)
                for mix in mixes for config in paper_figure7_configs()]
        _, report = Campaign(store, workers=1).run(jobs)
        assert not report.failed
        assert set(calls) == {(name, core_id) for mix in mixes
                              for core_id, name in
                              enumerate(get_workload(mix))}
        assert max(calls.values()) <= 2, calls


class TestPoolVsSerial:
    @pytest.fixture(scope="class")
    def serial(self, micro_scale):
        return micro_scale, run_serial(small_matrix(micro_scale),
                                       WorkloadRunner(micro_scale))

    def test_worker_pool_results_identical_to_serial(self, serial, store):
        scale, serial_results = serial
        results, report = Campaign(store, workers=2).run(small_matrix(scale))
        assert report.executed == report.total
        for job, expected in serial_results.items():
            got = results[job]
            # Bit-identical, not approximately equal.
            assert got.result.threads == expected.result.threads
            assert got.result.events == expected.result.events
            assert got.iso_ipcs == expected.iso_ipcs
            assert got.throughput == expected.throughput
            assert got.wspeedup == expected.wspeedup
            assert got.hmean == expected.hmean

    def test_single_process_campaign_identical_too(self, serial, store):
        scale, serial_results = serial
        results, _ = Campaign(store, workers=1).run(small_matrix(scale))
        for job, expected in serial_results.items():
            assert results[job].result.threads == expected.result.threads


class TestMemoisation:
    def test_second_run_is_all_cache_hits(self, micro_scale, store):
        jobs = small_matrix(micro_scale)
        _, first = Campaign(store, workers=2).run(jobs)
        assert first.executed == first.total
        results, second = Campaign(store, workers=2).run(jobs)
        assert second.executed == 0
        assert second.cached == second.total == first.total
        assert len(results) == first.total

    def test_force_reexecutes(self, micro_scale, store):
        jobs = small_matrix(micro_scale)[:1]
        Campaign(store, workers=1).run(jobs)
        _, report = Campaign(store, workers=1, force=True).run(jobs)
        assert report.cached == 0
        assert report.executed == report.total

    def test_resume_runs_only_missing_jobs(self, micro_scale, store):
        """Interrupt simulation: drop two results, re-run, count work."""
        jobs = small_matrix(micro_scale)
        _, first = Campaign(store, workers=2).run(jobs)
        plan = plan_jobs(jobs)
        victims = [plan.outcome[0][0], plan.isolation[0][0]]
        for key in victims:
            assert store.delete(key)
        _, resumed = Campaign(store, workers=2).run(jobs)
        assert resumed.executed == len(victims)
        assert resumed.cached == first.total - len(victims)

    def test_cached_values_equal_fresh_ones(self, micro_scale, store):
        jobs = small_matrix(micro_scale)
        fresh, _ = Campaign(store, workers=2).run(jobs)
        recalled, _ = Campaign(store, workers=2).run(jobs)
        for job in jobs:
            assert recalled[job].result.threads == fresh[job].result.threads


class TestIsolationSharing:
    def test_isolation_computed_once_per_point(self, micro_scale, store):
        """Executed-job count == deduplicated plan size: nothing ran twice."""
        jobs = small_matrix(micro_scale)
        plan = plan_jobs(jobs)
        _, report = Campaign(store, workers=2).run(jobs)
        assert report.executed == plan.total
        assert len(store) == plan.total

    def test_store_runner_reads_shared_isolation(self, micro_scale, store):
        """A StoreWorkloadRunner resolves iso results via the store."""
        jobs = small_matrix(micro_scale)
        Campaign(store, workers=1).run(jobs)
        runner = StoreWorkloadRunner(micro_scale, store)
        before = len(store)
        outcome = runner.run("2T_05", config_unpartitioned("lru"))
        assert outcome.iso_ipcs  # served from the store,
        assert len(store) == before  # nothing new was published

    def test_report_summary_is_parseable(self, micro_scale, store):
        _, report = Campaign(store, workers=1).run(small_matrix(micro_scale)[:1])
        assert "executed=" in report.summary()
        assert f"total={report.total}" in report.summary()
        assert "workers=1" in report.summary()


class TestValidation:
    def test_negative_workers_rejected(self, store):
        with pytest.raises(ValueError):
            Campaign(store, workers=-1)

    def test_zero_workers_resolves_to_cpu_count(self, store):
        # --jobs 0 / --jobs auto: "use every core", never an error.
        import os
        campaign = Campaign(store, workers=0)
        assert campaign.workers == (os.cpu_count() or 1)
        assert Campaign(store, workers=None).workers == campaign.workers


class TestSchedulerLine:
    """The targets and engines of the scheduler line are counted in the
    coordinator: a serial pool's are the run's, a process pool's are
    not, and the line says so instead of printing zeros."""

    @staticmethod
    def scheduler_line(scale, store, workers):
        lines = []
        Campaign(store, workers=workers, echo=lines.append).run(
            small_matrix(scale)[:2])
        (line,) = [line for line in lines if "scheduler:" in line]
        return line

    def test_serial_pool_counts_its_engines(self, micro_scale, store):
        line = self.scheduler_line(micro_scale, store, 1)
        assert "targets: loop c=" in line
        assert "engines: batched=" in line

    def test_process_pool_names_its_workers(self, micro_scale, store):
        line = self.scheduler_line(micro_scale, store, 2)
        assert line.endswith("; targets and engines: run in the process "
                             "pool's workers, not counted here")
        assert "engines: batched=" not in line
