"""Worker pools: where campaign jobs physically execute.

The scheduler (:mod:`.scheduler`) is pool-agnostic; a pool is anything
implementing the small event-driven :class:`WorkerPool` contract:

* the pool announces workers (``joined`` events) as they become available;
* the scheduler targets dispatches at a named worker
  (:meth:`WorkerPool.dispatch`);
* the pool reports per-job completion (``done`` / ``failed``) and worker
  loss (``died``, carrying the in-flight key) via
  :meth:`WorkerPool.next_event`.

Three implementations:

:class:`SerialPool`
    One in-process worker, executing dispatches synchronously inside
    ``next_event``.  The ``workers=1`` path — no subprocesses, still
    through the store.
:class:`ProcessPool`
    A **persistent** :mod:`multiprocessing` pool: one set of worker
    processes for the whole campaign, each keeping its
    :class:`~.runner.StoreWorkloadRunner` (traces, isolation memos,
    engine memos) warm across jobs *and* across the isolation/outcome
    boundary — the churn the old per-stage ``multiprocessing.Pool``
    paid twice per run.  Dead workers are detected by liveness polling
    and respawned; the lost in-flight job is surfaced as a ``died`` event
    for the scheduler to requeue.
:class:`RemotePool`
    A stdlib-socket job server.  Workers — ``repro campaign worker
    HOST:PORT`` processes, on this machine or others — connect, receive a
    name, and pull jobs over a length-prefixed pickle channel.  Results
    travel through the store, not the socket: a worker publishes, then
    acks with the key, so the coordinator reads bytes the store already
    validated.  A dropped connection with a job in flight is a ``died``
    event, exactly like a dead process.

Results transport is identical for every pool: the worker executes,
``store.put``-s, and acks ``done(key)``; the coordinator then
``store.get``-s.  One code path, one validation story, and bit-identity
across pools reduces to determinism of :func:`~.runner.execute_job`.

Security note: the job channel is pickle over TCP with no authentication
— bind it to loopback or a trusted network only.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import queue
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.campaign.jobs import Job
from repro.campaign.server import MAX_BODY_BYTES
from repro.campaign.store import ResultStore, store_from_spec, store_spec


def resolve_workers(workers: Optional[int]) -> int:
    """Resolve a worker-count request to a concrete positive count.

    ``None`` and ``0`` (the CLI's ``--jobs 0`` / ``--jobs auto``) mean
    "use every core"; negative counts are rejected.
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


@dataclass
class PoolEvent:
    """One pool occurrence, consumed by the scheduler.

    ``kind`` is ``joined`` (worker available), ``done`` / ``failed``
    (dispatch finished), or ``died`` (worker lost; ``keys`` carries any
    in-flight job keys to requeue).
    """

    kind: str
    worker: str
    key: Optional[str] = None
    keys: Tuple[str, ...] = ()
    error: str = ""


class WorkerPool:
    """The execution contract between scheduler and workers.

    Lifecycle: construct, :meth:`start` with the store, consume
    :meth:`next_event` / call :meth:`dispatch` until done, :meth:`close`.
    A pool instance drives one campaign run.
    """

    #: Short name used in reports ("serial", "process", "remote").
    name = "pool"

    def start(self, store: ResultStore) -> None:
        """Bring workers up against ``store``."""
        raise NotImplementedError

    def dispatch(self, worker: str, key: str, job: Job) -> None:
        """Hand one job to a specific (idle) worker."""
        raise NotImplementedError

    def next_event(self, timeout: Optional[float] = None) -> Optional[PoolEvent]:
        """Next pool event, or None if ``timeout`` elapses first."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear workers down (idempotent)."""
        raise NotImplementedError

    def __enter__(self) -> "WorkerPool":
        """Context-manager entry (no-op; ``start`` needs the store)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close on context exit."""
        self.close()


# ----------------------------------------------------------------------
# Shared executor (serial path, process workers, remote workers)
# ----------------------------------------------------------------------
def execute_into_store(store: ResultStore, runners: Dict[Any, Any],
                       key: str, job: Job) -> Any:
    """Execute one job on a per-scale warm runner and publish the result.

    ``runners`` is the caller-owned ``scale -> StoreWorkloadRunner`` memo;
    keeping it alive across calls is what makes a persistent worker warm
    (traces, isolation results, engine memos all hang off the runner).
    """
    from repro.campaign.hashing import canonical_spec
    from repro.campaign.runner import StoreWorkloadRunner, execute_job

    runner = runners.get(job.scale)
    if runner is None:
        runner = StoreWorkloadRunner(job.scale, store)
        runners[job.scale] = runner
    value = execute_job(job, runner)
    store.put(key, canonical_spec(job), value)
    return value


def _format_error(exc: BaseException) -> str:
    """One-line error description carried in ``failed`` events."""
    return f"{type(exc).__name__}: {exc}"


def _crash_if_requested(token: Optional[str]) -> None:
    """Deterministic fault injection for tests and the CI smoke.

    If ``token`` names an existing file, the worker dies abruptly
    (``os._exit``, no cleanup — indistinguishable from a SIGKILL).  A
    file containing ``always`` kills every worker that reads it; any
    other content is a *one-shot* token — the unlink is atomic, so
    exactly one racing worker wins the crash and the rest proceed.
    """
    if not token or not os.path.exists(token):
        return
    try:
        with open(token, "r", encoding="utf-8") as fh:
            mode = fh.read().strip()
    except OSError:
        return
    if mode == "always":
        os._exit(17)
    try:
        os.unlink(token)
    except OSError:
        return  # another worker won the one-shot token
    os._exit(17)


# ----------------------------------------------------------------------
# SerialPool
# ----------------------------------------------------------------------
class SerialPool(WorkerPool):
    """One in-process worker; dispatches execute inside ``next_event``."""

    name = "serial"

    def __init__(self) -> None:
        self._store: Optional[ResultStore] = None
        self._runners: Dict[Any, Any] = {}
        self._queue: deque = deque()
        self._announced = False

    def start(self, store: ResultStore) -> None:
        self._store = store
        self._announced = False

    def dispatch(self, worker: str, key: str, job: Job) -> None:
        self._queue.append((key, job))

    def next_event(self, timeout: Optional[float] = None) -> Optional[PoolEvent]:
        if not self._announced:
            self._announced = True
            return PoolEvent("joined", "serial-0")
        if not self._queue:
            return None
        key, job = self._queue.popleft()
        try:
            execute_into_store(self._store, self._runners, key, job)
        except Exception as exc:  # pragma: no cover - depends on job
            return PoolEvent("failed", "serial-0", key=key,
                             error=_format_error(exc))
        return PoolEvent("done", "serial-0", key=key)

    def close(self) -> None:
        self._queue.clear()
        self._runners.clear()


# ----------------------------------------------------------------------
# ProcessPool
# ----------------------------------------------------------------------
def _process_worker(worker: str, spec: Dict[str, Any],
                    conn, crash_token: Optional[str]) -> None:
    """Worker-process main loop (top level so it pickles under spawn).

    All traffic rides the worker's own duplex pipe — jobs in, events out.
    Per-worker pipes mean no cross-process locks anywhere: a worker dying
    mid-write (``os._exit``, SIGKILL) tears only its own channel, which
    the coordinator observes as EOF — it can never wedge its siblings the
    way a shared ``multiprocessing.Queue`` write lock can.
    """
    store = store_from_spec(spec)
    runners: Dict[Any, Any] = {}
    conn.send(("joined", None, ""))
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return  # coordinator gone
        if item is None:
            return
        key, job = item
        _crash_if_requested(crash_token)
        try:
            execute_into_store(store, runners, key, job)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            conn.send(("failed", key, _format_error(exc)))
        else:
            conn.send(("done", key, ""))


class ProcessPool(WorkerPool):
    """Persistent multiprocessing pool (see the module docstring).

    ``crash_token`` plumbs the deterministic fault injection of
    :func:`_crash_if_requested` into every worker.
    """

    name = "process"

    def __init__(self, workers: int, crash_token: Optional[str] = None) -> None:
        if workers < 1:
            raise ValueError(f"process pool needs >= 1 worker, got {workers}")
        self.workers = workers
        self.crash_token = crash_token
        self._spec: Optional[Dict[str, Any]] = None
        self._members: Dict[str, Tuple[multiprocessing.Process, Any]] = {}
        self._inflight: Dict[str, Optional[str]] = {}
        self._backlog: deque = deque()
        self._spawned = 0
        self._closed = False

    def start(self, store: ResultStore) -> None:
        self._spec = store_spec(store)
        for _ in range(self.workers):
            self._spawn()

    def _spawn(self) -> str:
        """Start one worker process under a fresh name."""
        worker = f"proc-{self._spawned}"
        self._spawned += 1
        parent_conn, child_conn = multiprocessing.Pipe()
        proc = multiprocessing.Process(
            target=_process_worker,
            args=(worker, self._spec, child_conn, self.crash_token),
            daemon=True)
        proc.start()
        child_conn.close()  # parent keeps only its own end
        self._members[worker] = (proc, parent_conn)
        self._inflight[worker] = None
        return worker

    def dispatch(self, worker: str, key: str, job: Job) -> None:
        self._inflight[worker] = key
        try:
            self._members[worker][1].send((key, job))
        except (KeyError, OSError, BrokenPipeError):
            # Raced a death; surface it so the scheduler requeues now.
            self._inflight[worker] = None
            self._backlog.append(self._drop(worker, inflight=key))

    def next_event(self, timeout: Optional[float] = None) -> Optional[PoolEvent]:
        if self._backlog:
            return self._backlog.popleft()
        conns = {conn: worker for worker, (_proc, conn)
                 in self._members.items()}
        if not conns:
            return None
        ready = multiprocessing.connection.wait(list(conns), timeout=timeout)
        for conn in ready:
            worker = conns[conn]
            try:
                kind, key, error = conn.recv()
            except (EOFError, OSError):
                self._backlog.append(self._drop(worker))
                continue
            if kind in ("done", "failed"):
                self._inflight[worker] = None
            self._backlog.append(PoolEvent(kind, worker, key=key,
                                           error=error))
        return self._backlog.popleft() if self._backlog else None

    def _drop(self, worker: str, inflight: Optional[str] = None) -> PoolEvent:
        """Remove a dead worker, respawn a replacement, report the loss."""
        stranded = inflight or self._inflight.pop(worker, None)
        entry = self._members.pop(worker, None)
        if entry is not None:
            proc, conn = entry
            try:
                conn.close()
            except OSError:
                pass
            proc.join(timeout=1.0)
        if not self._closed:
            self._spawn()
        return PoolEvent("died", worker,
                         keys=(stranded,) if stranded else (),
                         error="worker process died")

    def close(self) -> None:
        self._closed = True
        for _worker, (proc, conn) in self._members.items():
            try:
                conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for _worker, (proc, conn) in self._members.items():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
            try:
                conn.close()
            except OSError:
                pass
        self._members.clear()
        self._inflight.clear()


# ----------------------------------------------------------------------
# RemotePool: framing
# ----------------------------------------------------------------------
def _send_frame(sock: socket.socket, obj: Any) -> None:
    """Write one length-prefixed pickle frame."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(struct.pack(">I", len(data)) + data)


def _recv_frame(rfile) -> Any:
    """Read one length-prefixed pickle frame (EOFError on a closed peer;
    ValueError, before a byte of the body is read, on a length over
    :data:`~.server.MAX_BODY_BYTES`, the store server's own cap)."""
    header = rfile.read(4)
    if len(header) < 4:
        raise EOFError("connection closed")
    (length,) = struct.unpack(">I", header)
    if length > MAX_BODY_BYTES:
        raise ValueError(f"frame of {length} bytes over the "
                         f"{MAX_BODY_BYTES}-byte cap")
    data = rfile.read(length)
    if len(data) < length:
        raise EOFError("connection closed mid-frame")
    return pickle.loads(data)


class RemotePool(WorkerPool):
    """Socket job server workers attach to (see the module docstring).

    The listening socket binds in the constructor, so :attr:`address`
    (``(host, port)``) is known before the campaign starts — tests and
    the CLI print it for workers to connect to.
    """

    name = "remote"

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.create_server((host, port))
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._events: "queue.Queue[Tuple[str, str, Optional[str], str]]" = \
            queue.Queue()
        self._conns: Dict[str, socket.socket] = {}
        self._inflight: Dict[str, Optional[str]] = {}
        self._accepted = 0
        self._lock = threading.Lock()
        self._closed = False

    def start(self, store: ResultStore) -> None:
        threading.Thread(target=self._accept_loop, name="repro-pool-accept",
                         daemon=True).start()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        """Accept workers; one reader thread per connection."""
        while not self._closed:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(target=self._serve_conn, args=(conn,),
                             daemon=True).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        """Handshake one worker, then relay its acks as events.

        Whatever ends the connection — the peer closing it, an oversized
        or undecodable frame, an ack that is not ``(kind, key, error)``
        with ``kind`` ``done`` / ``failed`` and two strings, any other
        exception — is a ``lost`` event, so the job in flight is
        requeued rather than waited for."""
        rfile = conn.makefile("rb")
        worker = None
        try:
            hello = _recv_frame(rfile)
            if not (isinstance(hello, tuple) and hello[0] == "hello"):
                return
            with self._lock:
                worker = f"remote-{self._accepted}"
                if len(hello) > 1 and hello[1]:
                    worker = f"{hello[1]}-{self._accepted}"
                self._accepted += 1
                self._conns[worker] = conn
                self._inflight[worker] = None
            _send_frame(conn, ("welcome", worker))
            self._events.put(("joined", worker, None, ""))
            while True:
                msg = _recv_frame(rfile)
                if not (isinstance(msg, tuple) and len(msg) == 3
                        and msg[0] in ("done", "failed")
                        and all(isinstance(part, str) for part in msg)):
                    break
                self._events.put((msg[0], worker, msg[1], msg[2]))
        except Exception:   # noqa: BLE001 - any damage ends the connection
            pass
        finally:
            if worker is not None:
                self._events.put(("lost", worker, None, ""))
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    def dispatch(self, worker: str, key: str, job: Job) -> None:
        self._inflight[worker] = key
        try:
            _send_frame(self._conns[worker], ("job", key, job))
        except (KeyError, OSError) as exc:
            # The connection raced away between idle and dispatch; surface
            # it as a death so the scheduler requeues immediately.
            self._inflight[worker] = None
            self._events.put(("died-now", worker, key, str(exc)))

    def next_event(self, timeout: Optional[float] = None) -> Optional[PoolEvent]:
        try:
            kind, worker, key, error = self._events.get(timeout=timeout)
        except queue.Empty:
            return None
        if kind == "lost":
            inflight = self._inflight.pop(worker, None)
            self._conns.pop(worker, None)
            return PoolEvent("died", worker,
                             keys=(inflight,) if inflight else (),
                             error="connection lost")
        if kind == "died-now":
            self._conns.pop(worker, None)
            return PoolEvent("died", worker, keys=(key,) if key else (),
                             error=error)
        if kind in ("done", "failed"):
            self._inflight[worker] = None
        return PoolEvent(kind, worker, key=key, error=error)

    def close(self) -> None:
        self._closed = True
        for conn in list(self._conns.values()):
            try:
                _send_frame(conn, ("stop",))
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._conns.clear()
        try:
            self._listener.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Remote worker client (the `repro campaign worker` loop)
# ----------------------------------------------------------------------
def _connect_with_retry(address: Tuple[str, int],
                        timeout: float) -> socket.socket:
    """Dial the coordinator, retrying until ``timeout`` elapses."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return socket.create_connection(address, timeout=5.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)


def run_remote_worker(address: Tuple[str, int], store: ResultStore,
                      name: Optional[str] = None,
                      connect_timeout: float = 30.0,
                      crash_on_job: Optional[int] = None,
                      _drop_on_job: Optional[int] = None,
                      echo=None) -> int:
    """Attach to a :class:`RemotePool` and drain jobs until stopped.

    Returns a shell-style exit code: 0 on a clean stop (coordinator said
    stop or closed the channel).  ``crash_on_job`` kills the *process*
    (``os._exit``) upon receiving the n-th job — the CLI's fault
    injection for the CI distributed smoke; ``_drop_on_job`` merely
    abandons the connection instead (same coordinator-side signature,
    usable from an in-process thread in tests).
    """
    echo = echo or (lambda _msg: None)
    sock = _connect_with_retry(address, connect_timeout)
    runners: Dict[Any, Any] = {}
    received = 0
    try:
        rfile = sock.makefile("rb")
        _send_frame(sock, ("hello", name or ""))
        welcome = _recv_frame(rfile)
        worker = welcome[1]
        echo(f"worker {worker}: connected to {address[0]}:{address[1]}")
        while True:
            try:
                msg = _recv_frame(rfile)
            except (EOFError, OSError):
                return 0  # coordinator gone: campaign over
            if msg[0] == "stop":
                echo(f"worker {worker}: stopped after {received} job(s)")
                return 0
            _kind, key, job = msg
            if crash_on_job is not None and received == crash_on_job:
                os._exit(17)
            if _drop_on_job is not None and received == _drop_on_job:
                return 2
            received += 1
            try:
                execute_into_store(store, runners, key, job)
            except Exception as exc:  # noqa: BLE001 - report, keep serving
                _send_frame(sock, ("failed", key, _format_error(exc)))
            else:
                _send_frame(sock, ("done", key, ""))
    finally:
        try:
            sock.close()
        except OSError:
            pass
