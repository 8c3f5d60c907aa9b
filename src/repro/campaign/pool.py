"""Worker pools: where campaign jobs physically execute.

The scheduler (:mod:`.scheduler`) is pool-agnostic; a pool is anything
implementing the small event-driven :class:`WorkerPool` contract:

* the pool announces workers (``joined`` events) as they become available;
* the scheduler targets dispatches at a named worker
  (:meth:`WorkerPool.dispatch`);
* the pool reports per-job completion (``done`` / ``failed``) and worker
  loss (``died``, carrying the in-flight key) via
  :meth:`WorkerPool.next_event`.

:class:`SerialPool` is one in-process worker that executes dispatches
synchronously inside ``next_event`` — the ``workers=1`` path, no
subprocess, still through the store.  Every other worker is attached to
one job channel, :class:`RemotePool`, in one of two ways:

dialled in
    ``repro campaign worker HOST:PORT`` processes, on this machine or
    others, connect to the pool's listening socket (``campaign run
    --bind``);
forked
    :class:`ProcessPool` (``--jobs N``) forks its own workers, each
    handed one end of a :func:`socket.socketpair`.  The workers are
    **persistent**: one set for the whole campaign, each keeping its
    :class:`~.runner.StoreWorkloadRunner` (traces, isolation memos,
    engine memos) warm across jobs and across the isolation/outcome
    boundary.  Under the ``fork`` start method the coordinator loads
    every compiled kernel (:func:`repro.cache.native.load`, one memo per
    process) before the first worker forks, so every worker — a
    respawned one included — inherits the loaded objects instead of
    loading its own; under ``spawn`` / ``forkserver`` each worker loads
    what it binds.

Either way the worker runs the same loop on its socket, and one
:mod:`selectors` loop in :meth:`RemotePool.next_event` reads the
listening socket and every connection; no pool starts a thread.  Frames
are length-prefixed pickles: ``("hello", name)`` / ``("welcome",
worker)``, then ``("job", key, job)`` in and ``(done|failed, key,
error)`` out until ``("stop",)``.  Whatever ends a connection — the
peer's exit or crash, a malformed frame — is one ``died`` event carrying
the job in flight for the scheduler to requeue; a forked worker is also
respawned, even one that died before its hello.

Results transport is identical for every pool: the worker executes,
``store.put``-s, and acks ``done(key)``; the coordinator then
``store.get``-s.  One code path, one validation story, and bit-identity
across pools reduces to determinism of :func:`~.runner.execute_job`.

Security note: the job channel is pickle over TCP with no authentication
— bind it to loopback or a trusted network only.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import selectors
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.campaign.jobs import Job
from repro.campaign.server import MAX_BODY_BYTES
from repro.campaign.store import ResultStore


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
# Shared executor (serial path, every worker on the job channel)
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
# The job channel: framing and the worker loop
# ----------------------------------------------------------------------
def _send_frame(sock: socket.socket, obj: Any) -> None:
    """Write one length-prefixed pickle frame."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(struct.pack(">I", len(data)) + data)


def _frames(sock: socket.socket, flags: int = 0) -> Iterator[Any]:
    """Each length-prefixed pickle frame ``sock`` receives, reassembled
    across reads: EOFError on a closed peer; ValueError once a header
    announces more than :data:`~.server.MAX_BODY_BYTES` (the store
    server's own cap), before a byte of the body is awaited.  Under
    ``flags=socket.MSG_DONTWAIT`` it yields None when no byte waits."""
    buf = bytearray()
    while True:
        if len(buf) >= 4:
            (length,) = struct.unpack_from(">I", buf)
            if length > MAX_BODY_BYTES:
                raise ValueError(f"frame of {length} bytes over the "
                                 f"{MAX_BODY_BYTES}-byte cap")
            if len(buf) >= 4 + length:
                frame, buf = buf[4:4 + length], buf[4 + length:]
                yield pickle.loads(frame)
                continue
        try:
            chunk = sock.recv(1 << 16, flags)
        except BlockingIOError:
            yield None
            continue
        if not chunk:
            raise EOFError("connection closed")
        buf += chunk


def _work(sock: socket.socket, store: ResultStore, name: str,
          echo, peer: str) -> int:
    """The worker side of the job channel, on a socket connected to the
    coordinator (``peer`` names it in ``echo`` lines): handshake, then
    execute each job and ack it until told to stop.  Returns 0 on a stop
    and when the coordinator goes away."""
    runners: Dict[Any, Any] = {}
    received = 0
    frames = _frames(sock)
    try:
        _send_frame(sock, ("hello", name))
        worker = next(frames)[1]
        echo(f"worker {worker}: connected to {peer}")
        for msg in frames:
            if msg[0] == "stop":
                echo(f"worker {worker}: stopped after {received} job(s)")
                return 0
            _kind, key, job = msg
            received += 1
            try:
                execute_into_store(store, runners, key, job)
            except Exception as exc:  # noqa: BLE001 - report, keep serving
                _send_frame(sock, ("failed", key, _format_error(exc)))
            else:
                _send_frame(sock, ("done", key, ""))
    except (EOFError, OSError):
        pass
    return 0  # coordinator gone: campaign over


# ----------------------------------------------------------------------
# RemotePool
# ----------------------------------------------------------------------
class RemotePool(WorkerPool):
    """Socket job server workers attach to (see the module docstring).

    The listening socket binds in the constructor, so :attr:`address`
    (``(host, port)``) is known before the campaign starts — tests and
    the CLI print it for workers to connect to.
    """

    name = "remote"

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener: Optional[socket.socket] = \
            socket.create_server((host, port))
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._open_channel()

    def _open_channel(self) -> None:
        """No worker attached yet, no event pending."""
        #: The listening socket (``data`` None) and every connection,
        #: whose ``data`` is ``[its frames, its worker name or None]``.
        self._selector = selectors.DefaultSelector()
        #: ``(kind, worker, key, error)`` read off the connections; a
        #: ``lost`` event carries the connection where the key would be.
        self._pending: deque = deque()
        self._conns: Dict[str, socket.socket] = {}
        self._inflight: Dict[str, Optional[str]] = {}
        self._accepted = 0
        self._closed = False

    def start(self, store: ResultStore) -> None:
        self._selector.register(self._listener, selectors.EVENT_READ)

    def _watch(self, conn: socket.socket) -> None:
        """Read ``conn`` in the event loop from now on."""
        self._selector.register(conn, selectors.EVENT_READ,
                                [_frames(conn, socket.MSG_DONTWAIT), None])

    # ------------------------------------------------------------------
    def _pull(self, conn: socket.socket, peer: List[Any]) -> None:
        """Queue the frames waiting on ``conn`` as events: ``joined``
        (its hello answered), then its acks.  Whatever ends the
        connection — the peer closing it, an oversized or undecodable
        frame, an ack that is not ``(kind, key, error)`` with ``kind``
        ``done`` / ``failed`` and two strings, any other exception —
        queues one ``lost`` event, so the job in flight is requeued
        rather than waited for."""
        frames, worker = peer
        try:
            for msg in frames:
                if msg is None:
                    return  # nothing more waiting
                if worker is None:
                    if not (isinstance(msg, tuple) and msg[0] == "hello"):
                        break
                    name = msg[1] if len(msg) > 1 and msg[1] else "remote"
                    worker = peer[1] = f"{name}-{self._accepted}"
                    self._accepted += 1
                    self._conns[worker] = conn
                    _send_frame(conn, ("welcome", worker))
                    self._pending.append(("joined", worker, None, ""))
                    continue
                if not (isinstance(msg, tuple) and len(msg) == 3
                        and msg[0] in ("done", "failed")
                        and all(isinstance(part, str) for part in msg)):
                    break
                self._pending.append((msg[0], worker, msg[1], msg[2]))
        except Exception:   # noqa: BLE001 - any damage ends the connection
            pass
        self._selector.unregister(conn)
        conn.close()
        self._pending.append(("lost", worker, conn, ""))

    def dispatch(self, worker: str, key: str, job: Job) -> None:
        # A worker leaves ``_conns`` only as its ``died`` event is
        # handed out, after which the scheduler sends it nothing.
        conn = self._conns[worker]
        self._inflight[worker] = key
        try:
            _send_frame(conn, ("job", key, job))
        except OSError:
            # The connection is going away.  Shut down, it reads EOF in
            # the loop: one ``lost`` event requeues the key in flight.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def next_event(self, timeout: Optional[float] = None) -> Optional[PoolEvent]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._pending:
            left = None if deadline is None else deadline - time.monotonic()
            for ready, _mask in self._selector.select(left):
                if ready.data is None:
                    try:
                        self._watch(self._listener.accept()[0])
                    except OSError:
                        pass  # the dialler gave up before the accept
                else:
                    self._pull(ready.fileobj, ready.data)
            if not self._pending and left is not None and left <= 0:
                return None
        kind, worker, key, error = self._pending.popleft()
        if kind == "lost":
            return self._lost(worker, conn=key)
        if kind in ("done", "failed"):
            self._inflight[worker] = None
        return PoolEvent(kind, worker, key=key, error=error)

    def _lost(self, worker: Optional[str],
              conn: socket.socket) -> Optional[PoolEvent]:
        """The ``died`` event of an ended connection; None for a peer
        that hung up before its hello, which never joined."""
        if worker is None:
            return None
        inflight = self._inflight.pop(worker, None)
        self._conns.pop(worker, None)
        return PoolEvent("died", worker,
                         keys=(inflight,) if inflight else (),
                         error="connection lost")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn, _fd, _mask, peer in self._selector.get_map().values():
            if peer is None:
                continue  # the listener
            # A shutdown, unlike a close, reaches a socket a forked
            # sibling also holds: a worker yet to join reads EOF too.
            try:
                if peer[1] is not None:
                    _send_frame(conn, ("stop",))
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        self._selector.close()
        if self._listener is not None:
            self._listener.close()


# ----------------------------------------------------------------------
# ProcessPool: a RemotePool whose workers the coordinator forks
# ----------------------------------------------------------------------
def kernels_summary(infos) -> str:
    """The ``info`` dicts :func:`repro.cache.native.load` returned for
    the kernels a coordinator loaded before its workers forked, as one
    accounting clause."""
    compiled = [info for info in infos if "reason" not in info]
    parts = []
    if compiled:
        built = sum(info["cache"] == "built" for info in compiled)
        parts.append(f"c={len(compiled)} built={built}")
    if len(compiled) < len(infos):
        reasons = sorted({info["reason"] for info in infos
                          if "reason" in info})
        parts.append(f"unavailable={len(infos) - len(compiled)} "
                     f"({'; '.join(reasons)})")
    return f"kernels: {' '.join(parts)} before the workers forked"


def _forked_worker(sock: socket.socket, store: ResultStore) -> None:
    """A process-pool worker's main (top level so it pickles under
    spawn): the job loop on its end of the socket pair."""
    with sock:
        _work(sock, store, "proc", lambda _msg: None, "its coordinator")


class ProcessPool(RemotePool):
    """Persistent local worker processes (see the module docstring)."""

    name = "process"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"process pool needs >= 1 worker, got {workers}")
        self.workers = workers
        #: ``info`` of every kernel loaded before the workers forked
        #: (empty unless the start method is ``fork``).
        self.preloaded: List[Dict[str, object]] = []
        self._listener = None
        self._store: Optional[ResultStore] = None
        #: Each live worker process, by the coordinator's end of its pair.
        self._procs: Dict[socket.socket, multiprocessing.Process] = {}
        self._open_channel()

    def start(self, store: ResultStore) -> None:
        self._store = store
        if multiprocessing.get_start_method() == "fork":
            from concurrent.futures import ThreadPoolExecutor

            from repro.cache import native, transitions

            # Forked workers inherit the filled memo.  A cold object
            # cache is built here, the compiles side by side; the
            # loader's threads are gone before the first fork.
            keys = transitions.rendering_keys()
            with ThreadPoolExecutor(min(len(keys), os.cpu_count() or 1)
                                    ) as loader:
                self.preloaded = [info for _kernel, info in loader.map(
                    lambda item: native.load(*item), keys)]
        for _ in range(self.workers):
            self._watch(self._fork())

    def _fork(self) -> socket.socket:
        """Start one worker process; returns the coordinator's end."""
        conn, child = socket.socketpair()
        proc = multiprocessing.Process(target=_forked_worker,
                                       args=(child, self._store),
                                       daemon=True)
        proc.start()
        child.close()  # the worker holds the only other end
        self._procs[conn] = proc
        return conn

    def _lost(self, worker: Optional[str],
              conn: socket.socket) -> Optional[PoolEvent]:
        """Reap the worker behind ``conn`` and fork its replacement; a
        worker that died before its hello is a death all the same."""
        proc = self._procs.pop(conn)
        proc.join(timeout=1.0)
        if not self._closed:
            self._watch(self._fork())
        return super()._lost(worker or "proc", conn)

    def close(self) -> None:
        super().close()
        for proc in self._procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs.clear()


# ----------------------------------------------------------------------
# Remote worker client (the `repro campaign worker` loop)
# ----------------------------------------------------------------------
#: Seconds one attempt to dial the coordinator may take.
_DIAL_TIMEOUT = 5.0


def _connect_with_retry(address: Tuple[str, int],
                        timeout: float) -> socket.socket:
    """Dial the coordinator, retrying until ``timeout`` elapses.

    The returned socket blocks without a timeout: a worker may wait any
    time for its next job, and only EOF means the coordinator is gone.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection(address, timeout=_DIAL_TIMEOUT)
            sock.settimeout(None)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)


def run_remote_worker(address: Tuple[str, int], store: ResultStore,
                      name: Optional[str] = None,
                      connect_timeout: float = 30.0,
                      echo=None) -> int:
    """Attach to a :class:`RemotePool` and drain jobs until stopped.

    Returns a shell-style exit code: 0 on a clean stop (coordinator said
    stop or closed the channel).
    """
    sock = _connect_with_retry(address, connect_timeout)
    with sock:
        return _work(sock, store, name or "", echo or (lambda _msg: None),
                     f"{address[0]}:{address[1]}")
