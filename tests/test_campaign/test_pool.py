"""Worker pools: crash recovery, remote execution, tri-modal bit-identity."""

import threading

import pytest

from repro.campaign.pool import (
    ProcessPool,
    RemotePool,
    SerialPool,
    resolve_workers,
    run_remote_worker,
)
from repro.campaign.runner import Campaign, run_serial
from repro.campaign.store import ResultStore
from repro.config import config_unpartitioned
from repro.experiments.common import WorkloadRunner

from repro.campaign.jobs import outcome_job


def small_matrix(scale):
    """The shared 4-outcome matrix (crafty + 2T_05, LRU and NRU)."""
    jobs = []
    for mix, benchmarks in (("crafty", ("crafty",)), ("2T_05", None)):
        for policy in ("lru", "nru"):
            jobs.append(outcome_job(scale, mix, config_unpartitioned(policy),
                                    benchmarks=benchmarks))
    return jobs


def store_fingerprint(store):
    """key -> object bytes for byte-level store comparison."""
    return {key: store.path_for(key).read_bytes()
            for key in store.iter_keys()}


def remote_campaign(store, jobs, n_workers=2, **worker_kwargs):
    """Run a campaign on a RemotePool with in-process worker threads."""
    pool = RemotePool("127.0.0.1", 0)
    threads = []

    def attach(kwargs):
        run_remote_worker(pool.address, ResultStore(store.root), **kwargs)

    campaign = Campaign(store, workers=n_workers, pool=pool)
    for i in range(n_workers):
        kwargs = dict(worker_kwargs) if i == 0 else {}
        thread = threading.Thread(target=attach, args=(kwargs,), daemon=True)
        thread.start()
        threads.append(thread)
    results, report = campaign.run(jobs)
    for thread in threads:
        thread.join(timeout=10.0)
    return results, report


class TestResolveWorkers:
    def test_auto_values(self):
        import os
        assert resolve_workers(None) == (os.cpu_count() or 1)
        assert resolve_workers(0) == (os.cpu_count() or 1)
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestProcessPoolCrashes:
    def test_one_shot_crash_is_retried_to_completion(self, micro_scale,
                                                     store, tmp_path):
        token = tmp_path / "crash-once"
        token.write_text("once")
        jobs = small_matrix(micro_scale)
        serial = run_serial(jobs, WorkloadRunner(micro_scale))
        results, report = Campaign(store, workers=2,
                                   crash_token=str(token)).run(jobs)
        assert not report.failed
        assert report.scheduler.worker_deaths >= 1
        assert report.scheduler.retries >= 1
        assert not token.exists()  # the one-shot token was consumed
        for job, expected in serial.items():
            assert results[job].result.threads == expected.result.threads

    def test_always_crashing_workers_terminate_with_failures(
            self, micro_scale, store, tmp_path):
        """Every attempt dies: bounded retries must end the campaign."""
        token = tmp_path / "crash-always"
        token.write_text("always")
        jobs = small_matrix(micro_scale)[:1]
        results, report = Campaign(store, workers=2, max_retries=1,
                                   crash_token=str(token)).run(jobs)
        assert results == {} or all(v is None for v in results.values())
        assert report.failed
        for failure in report.failed:
            assert failure.attempts == 2  # initial + 1 retry
        assert report.scheduler.worker_deaths >= len(report.failed)

    def test_dead_worker_is_respawned(self, store):
        pool = ProcessPool(1)
        pool.start(store)
        try:
            event = pool.next_event(timeout=10.0)
            assert event.kind == "joined"
            first = event.worker
            proc, _conn = pool._members[first]
            proc.terminate()
            for _ in range(50):
                event = pool.next_event(timeout=1.0)
                if event is not None:
                    break
            assert event.kind == "died"
            assert event.worker == first
            # A replacement was spawned under a fresh name.
            replacement = pool.next_event(timeout=10.0)
            assert replacement.kind == "joined"
            assert replacement.worker != first
        finally:
            pool.close()

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            ProcessPool(0)


class TestRemotePool:
    def test_remote_campaign_matches_serial(self, micro_scale, store):
        jobs = small_matrix(micro_scale)
        serial = run_serial(jobs, WorkloadRunner(micro_scale))
        results, report = remote_campaign(store, jobs, n_workers=2)
        assert not report.failed
        assert report.executed == report.total
        assert report.pool == "remote"
        for job, expected in serial.items():
            assert results[job].result.threads == expected.result.threads
            assert results[job].iso_ipcs == expected.iso_ipcs

    def test_dropped_connection_requeues_inflight_job(self, micro_scale,
                                                      store):
        """A worker vanishing mid-job costs a retry, not the campaign."""
        jobs = small_matrix(micro_scale)
        results, report = remote_campaign(store, jobs, n_workers=2,
                                          _drop_on_job=0)
        assert not report.failed
        assert report.executed == report.total
        assert report.scheduler.worker_deaths >= 1
        assert report.scheduler.retries >= 1
        assert len(results) == report.total

    def test_address_known_before_start(self):
        pool = RemotePool("127.0.0.1", 0)
        try:
            host, port = pool.address
            assert host == "127.0.0.1"
            assert port > 0
        finally:
            pool.close()


class TestTriModalBitIdentity:
    """Serial, process-pool and remote runs: identical bytes in the store."""

    @pytest.fixture(scope="class")
    def fingerprints(self, micro_scale, tmp_path_factory):
        jobs = small_matrix(micro_scale)
        prints = {}
        for mode in ("serial", "process", "remote"):
            store = ResultStore(tmp_path_factory.mktemp(f"store-{mode}"))
            if mode == "serial":
                _, report = Campaign(store, workers=1).run(jobs)
            elif mode == "process":
                _, report = Campaign(store, workers=2).run(jobs)
            else:
                _, report = remote_campaign(store, jobs, n_workers=2)
            assert not report.failed
            prints[mode] = store_fingerprint(store)
        return prints

    def test_identical_key_sets(self, fingerprints):
        assert (set(fingerprints["serial"])
                == set(fingerprints["process"])
                == set(fingerprints["remote"]))

    def test_identical_object_bytes(self, fingerprints):
        for mode in ("process", "remote"):
            for key, expected in fingerprints["serial"].items():
                assert fingerprints[mode][key] == expected, (
                    f"{mode} object {key[:12]} differs from serial bytes")


class TestSerialPoolContract:
    def test_events_in_contract_order(self, micro_scale, store):
        from repro.campaign.runner import plan_jobs
        pool = SerialPool()
        pool.start(store)
        key, job = plan_jobs(small_matrix(micro_scale)).isolation[0]
        joined = pool.next_event()
        assert joined.kind == "joined"
        pool.dispatch(joined.worker, key, job)
        done = pool.next_event()
        assert done.kind == "done"
        assert done.key == key
        assert key in store
        assert pool.next_event() is None  # idle pool yields nothing
        pool.close()
