"""Worker pools: crash recovery, remote execution, tri-modal bit-identity."""

import functools
import multiprocessing
import os
import pickle
import socket
import struct
import threading

import pytest

from repro.campaign import pool as pool_module
from repro.campaign.pool import (
    ProcessPool,
    RemotePool,
    SerialPool,
    _connect_with_retry,
    _frames,
    _send_frame,
    kernels_summary,
    resolve_workers,
    run_remote_worker,
)
from repro.campaign.runner import Campaign, run_serial
from repro.campaign.store import ResultStore
from repro.config import config_unpartitioned
from repro.experiments.common import WorkloadRunner

from repro.campaign.jobs import isolation_job, outcome_job


def small_matrix(scale):
    """The shared 4-outcome matrix (crafty + 2T_05, LRU and NRU)."""
    jobs = []
    for mix, benchmarks in (("crafty", ("crafty",)), ("2T_05", None)):
        for policy in ("lru", "nru"):
            jobs.append(outcome_job(scale, mix, config_unpartitioned(policy),
                                    benchmarks=benchmarks))
    return jobs


#: What a misbehaving peer sends instead of an ack.
ROGUE_REPLIES = {
    "ack-without-key": lambda sock: _send_frame(sock, ("done",)),
    "oversized-header": lambda sock: sock.sendall(
        struct.pack(">I", 0xFFFFFFF0)),
}


#: Only a forked worker inherits a patch the coordinator made.
forked_workers = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only forked workers inherit a patched execute_into_store")


def crash_in(monkeypatch, name, token=None):
    """Make the worker that calls ``repro.campaign.pool.<name>`` die
    abruptly (``os._exit``, as a SIGKILL would): on every call, or, given
    a ``token`` file, once — the unlink is atomic, so exactly one racing
    worker wins the crash.  Patched before the pool forks, so its workers
    inherit it."""
    original = getattr(pool_module, name)

    def crash(*args):
        if token is not None:
            try:
                os.unlink(token)
            except FileNotFoundError:
                return original(*args)
        os._exit(17)

    monkeypatch.setattr(pool_module, name, crash)


def rogue_peer(address, reply):
    """Attach as a worker, take one job, ``reply`` to it, then stall
    until the coordinator hangs up."""
    sock = socket.create_connection(address, timeout=20.0)
    try:
        frames = _frames(sock)
        _send_frame(sock, ("hello", "rogue"))
        next(frames)                        # welcome
        next(frames)                        # the job
        reply(sock)
        while sock.recv(4096):
            pass
    except OSError:
        pass
    finally:
        sock.close()


def store_fingerprint(store):
    """key -> object bytes for byte-level store comparison."""
    return {key: store.path_for(key).read_bytes()
            for key in store.iter_keys()}


def remote_campaign(store, jobs, n_workers=2):
    """Run a campaign on a RemotePool with in-process worker threads."""
    pool = RemotePool("127.0.0.1", 0)
    threads = []

    def attach():
        try:
            run_remote_worker(pool.address, ResultStore(store.root))
        except SystemExit:
            pass  # a patched job ended this worker's loop

    campaign = Campaign(store, workers=n_workers, pool=pool)
    for _ in range(n_workers):
        thread = threading.Thread(target=attach, daemon=True)
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
    @forked_workers
    def test_one_shot_crash_is_retried_to_completion(self, micro_scale,
                                                     store, tmp_path,
                                                     monkeypatch):
        token = tmp_path / "crash-once"
        token.write_text("once")
        jobs = small_matrix(micro_scale)
        serial = run_serial(jobs, WorkloadRunner(micro_scale))
        crash_in(monkeypatch, "execute_into_store", token)
        results, report = Campaign(store, workers=2).run(jobs)
        assert not report.failed
        assert report.scheduler.worker_deaths >= 1
        assert report.scheduler.retries >= 1
        assert not token.exists()  # the one-shot token was consumed
        for job, expected in serial.items():
            assert results[job].result.threads == expected.result.threads

    @forked_workers
    def test_always_crashing_workers_terminate_with_failures(
            self, micro_scale, store, monkeypatch):
        """Every attempt dies: bounded retries must end the campaign."""
        jobs = small_matrix(micro_scale)[:1]
        crash_in(monkeypatch, "execute_into_store")
        results, report = Campaign(store, workers=2,
                                   max_retries=1).run(jobs)
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
            (proc,) = pool._procs.values()
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

    @forked_workers
    def test_a_worker_lost_before_its_hello_is_replaced(
            self, micro_scale, store, tmp_path, monkeypatch):
        """A forked worker that exits before its handshake is one death:
        the pool forks a replacement and the campaign finishes."""
        token = tmp_path / "exit-once"
        token.write_text("once")
        crash_in(monkeypatch, "_forked_worker", token)
        jobs = small_matrix(micro_scale)
        serial = run_serial(jobs, WorkloadRunner(micro_scale))
        results, report = Campaign(store, workers=2).run(jobs)
        assert not token.exists()
        assert not report.failed
        assert report.scheduler.worker_deaths == 1
        assert report.scheduler.retries == 0
        assert report.scheduler.workers_seen == 2  # survivor + replacement
        for job, expected in serial.items():
            assert results[job].result.threads == expected.result.threads

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            ProcessPool(0)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked workers inherit the coordinator's "
                           "kernels")
class TestWarmWorkers:
    """The coordinator loads every kernel before its workers fork."""

    def test_no_worker_loads_a_kernel(self, micro_scale, store, tmp_path,
                                      monkeypatch):
        """Every miss of the ``native.load`` memo happens in this process,
        a worker respawned after a crash included."""
        from repro.cache import native

        misses = tmp_path / "misses"
        unwrapped = native.load.__wrapped__

        @functools.lru_cache(maxsize=None)
        def load(rendering, key):
            with open(misses, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return unwrapped(rendering, key)

        monkeypatch.setattr(native, "load", load)
        token = tmp_path / "crash-once"
        token.write_text("once")
        crash_in(monkeypatch, "execute_into_store", token)
        _results, report = Campaign(store, workers=2).run(
            small_matrix(micro_scale))
        assert not report.failed
        assert report.scheduler.worker_deaths == 1
        pids = misses.read_text(encoding="utf-8").split()
        assert pids and set(pids) == {str(os.getpid())}


class TestKernelsSummary:
    def test_compiled_kernels(self):
        infos = [{"cache": "hit", "build_s": 0.001}] * 15 + [
            {"cache": "built", "build_s": 0.2}]
        assert (kernels_summary(infos)
                == "kernels: c=16 built=1 before the workers forked")

    def test_a_host_without_a_compiler(self):
        infos = [{"reason": "no C compiler (cc) on PATH"}] * 16
        assert kernels_summary(infos) == (
            "kernels: unavailable=16 (no C compiler (cc) on PATH) before "
            "the workers forked")


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
                                                      store, monkeypatch):
        """A worker vanishing mid-job costs a retry, not the campaign."""
        execute = pool_module.execute_into_store
        drops = [True]

        def drop_once(worker_store, runners, key, job):
            try:
                drops.pop()
            except IndexError:
                return execute(worker_store, runners, key, job)
            raise SystemExit  # ends this worker's loop and its connection

        monkeypatch.setattr(pool_module, "execute_into_store", drop_once)
        jobs = small_matrix(micro_scale)
        results, report = remote_campaign(store, jobs, n_workers=2)
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

    def test_a_dialled_socket_has_no_timeout(self):
        """Only EOF means the coordinator is gone; a read timeout left
        over from the dial would end an idle worker."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            sock = _connect_with_retry(listener.getsockname()[:2], 5.0)
            with sock:
                assert sock.gettimeout() is None

    def test_an_idle_worker_outlives_the_dial_timeout(self, store,
                                                      monkeypatch):
        from repro.campaign import pool as pool_module

        monkeypatch.setattr(pool_module, "_DIAL_TIMEOUT", 0.1)
        pool = RemotePool("127.0.0.1", 0)
        pool.start(store)
        codes = []
        worker = threading.Thread(
            target=lambda: codes.append(run_remote_worker(pool.address,
                                                          store)),
            daemon=True)
        worker.start()
        try:
            assert pool.next_event(timeout=10.0).kind == "joined"
            # Nothing to dispatch: the worker must still be there.
            assert pool.next_event(timeout=0.5) is None
            assert worker.is_alive()
        finally:
            pool.close()
        worker.join(timeout=10.0)
        assert codes == [0]

    def test_a_frame_over_the_store_cap_is_refused_unread(self):
        """One cap for both channels: the store server's body limit."""
        from repro.campaign import server

        coordinator_end, peer_end = socket.socketpair()
        with coordinator_end, peer_end:
            # Only the header: a decoder that waited for the body would
            # block here instead of refusing.
            peer_end.sendall(struct.pack(">I", server.MAX_BODY_BYTES + 1))
            coordinator_end.settimeout(10.0)
            with pytest.raises(ValueError, match="-byte cap"):
                next(_frames(coordinator_end))

    def test_a_dispatch_to_a_closed_connection_is_one_death(
            self, micro_scale):
        """A send that fails on a connection the loop has closed queues
        nothing: the loop's own ``lost`` event reports the worker once,
        with the key in flight."""
        pool = RemotePool("127.0.0.1", 0)
        coordinator_end, peer_end = socket.socketpair()
        try:
            _send_frame(peer_end, ("hello", "gone"))
            peer_end.shutdown(socket.SHUT_WR)
            # One pass of the loop handshakes, reads EOF, queues ``lost``
            # and closes the socket before ``joined`` is handed out.
            pool._watch(coordinator_end)
            joined = pool.next_event(timeout=0)
            assert joined.kind == "joined"
            job = isolation_job(micro_scale, "crafty", 0, "lru")
            pool.dispatch(joined.worker, "k0", job)
            events = []
            while (event := pool.next_event(timeout=0)) is not None:
                events.append(event)
            assert [(e.kind, e.worker, e.keys) for e in events] == [
                ("died", joined.worker, ("k0",))]
        finally:
            pool.close()
            peer_end.close()

    @pytest.mark.parametrize("reply", list(ROGUE_REPLIES))
    def test_a_malformed_reply_is_a_lost_connection(self, reply, micro_scale,
                                                    store):
        """An ack missing its key, or a header announcing ~4 GiB followed
        by silence: the coordinator drops the peer at once and reports
        the job it held as ``died``."""
        pool = RemotePool("127.0.0.1", 0)
        pool.start(store)
        peer = threading.Thread(target=rogue_peer,
                                args=(pool.address, ROGUE_REPLIES[reply]),
                                daemon=True)
        peer.start()
        try:
            joined = pool.next_event(timeout=10.0)
            assert joined.kind == "joined"
            job = isolation_job(micro_scale, "crafty", 0, "lru")
            pool.dispatch(joined.worker, "k0", job)
            died = pool.next_event(timeout=10.0)
            assert died is not None and died.kind == "died"
            assert died.worker == joined.worker and died.keys == ("k0",)
        finally:
            pool.close()
            peer.join(timeout=10.0)

    @pytest.mark.parametrize("reply", list(ROGUE_REPLIES))
    def test_a_campaign_on_a_malformed_peer_finishes(self, reply, micro_scale,
                                                     store):
        """With no retries the job fails and ``Campaign.run`` returns."""
        pool = RemotePool("127.0.0.1", 0)
        job = isolation_job(micro_scale, "crafty", 0, "lru")
        peer = threading.Thread(target=rogue_peer,
                                args=(pool.address, ROGUE_REPLIES[reply]),
                                daemon=True)
        peer.start()
        outcome = []
        campaign = Campaign(store, workers=1, pool=pool, max_retries=0)
        runner = threading.Thread(
            target=lambda: outcome.append(campaign.run([job])), daemon=True)
        runner.start()
        runner.join(timeout=30.0)
        peer.join(timeout=10.0)
        assert outcome, "Campaign.run still waiting after 30 s"
        _results, report = outcome[0]
        assert [failure.label for failure in report.failed] == [job.label]
        assert report.scheduler.worker_deaths == 1


class TestOneEventLoop:
    """The coordinator reads every worker in one loop on its own thread."""

    def test_no_pool_starts_a_thread(self, store):
        """No thread starts at any step of a process pool's life, a
        respawn included, nor for a remote pool's listener.  (Compared as
        sets, so a thread an earlier test left ending cannot interfere.)"""
        before = set(threading.enumerate())

        def started():
            return set(threading.enumerate()) - before

        pool = ProcessPool(2)
        try:
            pool.start(store)
            assert not started()
            joined = [pool.next_event(timeout=10.0) for _ in range(2)]
            assert [event.kind for event in joined] == ["joined", "joined"]
            assert not started()
            next(iter(pool._procs.values())).terminate()
            died = pool.next_event(timeout=10.0)
            replacement = pool.next_event(timeout=10.0)
            assert (died.kind, replacement.kind) == ("died", "joined")
            assert not started()
        finally:
            pool.close()
        assert not started()
        remote = RemotePool("127.0.0.1", 0)
        try:
            remote.start(store)
            assert not started()
        finally:
            remote.close()

    def test_a_slow_or_stuck_peer_cannot_stall_the_loop(self, micro_scale,
                                                        store):
        """One peer sends its hello a byte at a time and still joins: a
        frame reassembles across reads.  Another sends half a hello and
        stalls: a worker beside it still joins and finishes a job, and
        ``close`` returns."""
        pool = RemotePool("127.0.0.1", 0)
        pool.start(store)
        body = pickle.dumps(("hello", "slow"),
                            protocol=pickle.HIGHEST_PROTOCOL)
        hello = struct.pack(">I", len(body)) + body
        slow = socket.create_connection(pool.address, timeout=20.0)
        stuck = socket.create_connection(pool.address, timeout=20.0)
        codes = []
        worker = threading.Thread(
            target=lambda: codes.append(run_remote_worker(
                pool.address, store, name="steady")),
            daemon=True)
        try:
            stuck.sendall(hello[:len(hello) // 2])
            for byte in hello[:-1]:
                slow.sendall(bytes([byte]))
                assert pool.next_event(timeout=0.01) is None
            slow.sendall(hello[-1:])
            joined = pool.next_event(timeout=10.0)
            assert joined.kind == "joined"
            assert joined.worker.startswith("slow-")
            assert next(_frames(slow)) == ("welcome", joined.worker)
            worker.start()
            steady = pool.next_event(timeout=10.0)
            assert steady.kind == "joined"
            assert steady.worker.startswith("steady-")
            job = isolation_job(micro_scale, "crafty", 0, "lru")
            pool.dispatch(steady.worker, "k0", job)
            done = pool.next_event(timeout=30.0)
            assert (done.kind, done.worker, done.key) == (
                "done", steady.worker, "k0")
        finally:
            pool.close()
            worker.join(timeout=10.0)
        assert codes == [0]
        with slow, stuck:
            assert stuck.recv(1) == b""  # the coordinator hung up on it
            assert next(_frames(slow)) == ("stop",)


class TestClose:
    def test_every_pool_closes_twice(self, store):
        """``WorkerPool.close`` is idempotent, started or not."""
        serial = SerialPool()
        serial.start(store)
        process = ProcessPool(1)
        process.start(store)
        assert process.next_event(timeout=10.0).kind == "joined"
        (proc,) = process._procs.values()
        remote = RemotePool("127.0.0.1", 0)
        remote.start(store)
        never_started = RemotePool("127.0.0.1", 0)
        for pool in (serial, process, remote, never_started):
            pool.close()
            pool.close()
        assert not proc.is_alive()


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
