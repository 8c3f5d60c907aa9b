"""Content-addressed result store: a local directory, optionally read
through one shared HTTP store.

Results live under ``<root>/objects/<key[:2]>/<key>.pkl`` — the same
two-level fan-out git uses, keyed by :func:`repro.campaign.hashing.job_key`.
Each object is a pickle of ``{"key", "spec", "value"}``; the canonical spec
string rides along purely for debuggability (``repro campaign status`` and
humans poking at the store can see *what* a blob is without recomputing
hashes).  The module-level layout helpers (:func:`object_path`,
:func:`read_object`, :func:`write_object`, :func:`delete_object`,
:func:`stored_keys`) are the only code that touches that layout: both
:class:`ResultStore` and the ``repro campaign serve`` endpoint
(:mod:`.server`) go through them.  Publishes are atomic
(:func:`os.replace`); many writers may race on one key — last writer wins
with identical bytes, jobs being deterministic.

A :class:`ResultStore` is the value ``(root, url)``.  Without a ``url`` it
is that directory.  With one, the directory is a read-through cache of the
``repro campaign serve`` endpoint at ``url``: reads hit the directory
first, and a remote hit is validated before it is copied in, so every key
crosses the network at most once per machine; writes go remote-first (the
remote is the shared source), then warm the directory.  Being a plain
value, a store pickles as it is into process workers.

Corruption model: a corrupt or truncated object (interrupted run, disk
trouble, damaged transfer) reads as a *miss* and is simply recomputed;
the store is a cache, never the source of truth.  Damaged remote bytes
are never copied into the directory.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import tempfile
import urllib.request
from pathlib import Path
from typing import Any, Iterator, Optional, Union

#: Environment override for the default store location.
STORE_ENV = "REPRO_STORE"
#: Environment override selecting a remote HTTP store (read-through cached).
STORE_URL_ENV = "REPRO_STORE_URL"
#: Default store directory (relative to the working directory).
DEFAULT_STORE = ".repro-store"

#: Seconds one request to a remote store may take.
_HTTP_TIMEOUT = 30.0

#: Exceptions meaning "this pickle is damaged": ``ValueError`` covers
#: corrupt protocol bytes, the rest covers truncation, missing classes and
#: renamed modules — a damaged object must always read as a miss, never
#: crash a campaign.
_PICKLE_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                  ImportError, IndexError, ValueError, OSError)


def default_store_path() -> str:
    """Store root honouring the ``REPRO_STORE`` environment override."""
    return os.environ.get(STORE_ENV, DEFAULT_STORE)


def canonical_dumps(obj: Any) -> bytes:
    """Pickle ``obj`` into canonical, history-independent bytes.

    A normal pickle memoises by object *identity*, so two equal values
    serialise differently depending on which of their internal strings
    happen to be the same object — an accident of process history (an
    unpickled job spec vs an interned in-process constant).  Campaign
    store objects must be byte-identical across serial, process-pool and
    remote execution, so this pickler disables memoisation (the
    ``Pickler.fast`` switch): every sub-object is emitted inline, making
    the bytes a pure function of the value.  Only safe for tree-shaped
    data — result payloads are; cyclic values would recurse forever.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(obj)
    return buffer.getvalue()


def parse_payload(key: str, data: bytes) -> Optional[dict]:
    """Decode and validate one object's bytes; None on any corruption."""
    try:
        payload = pickle.loads(data)
    except _PICKLE_ERRORS:
        return None
    if not isinstance(payload, dict) or payload.get("key") != key:
        return None
    return payload


# ----------------------------------------------------------------------
# The on-disk layout
# ----------------------------------------------------------------------
def object_path(root: Path, key: str) -> Path:
    """Location of one key under a store directory (existence not implied)."""
    return root / "objects" / key[:2] / f"{key}.pkl"


def read_object(root: Path, key: str) -> Optional[bytes]:
    """Raw bytes of one object, or None on miss."""
    try:
        with open(object_path(root, key), "rb") as fh:
            return fh.read()
    except OSError:
        return None


def write_object(root: Path, key: str, data: bytes) -> Path:
    """Atomically publish ``data`` under ``key``; returns its path."""
    path = object_path(root, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def delete_object(root: Path, key: str) -> bool:
    """Remove one object; True if it existed."""
    try:
        os.unlink(object_path(root, key))
        return True
    except OSError:
        return False


def stored_keys(root: Path) -> Iterator[str]:
    """Every key stored under a directory, in sorted order."""
    objects = root / "objects"
    if not objects.is_dir():
        return
    for shard in sorted(objects.iterdir()):
        if shard.is_dir():
            for path in sorted(shard.glob("*.pkl")):
                yield path.stem


# ----------------------------------------------------------------------
# The remote side
# ----------------------------------------------------------------------
class StoreUnavailable(RuntimeError):
    """A remote store could not be written to or listed.

    A worker whose result cannot be stored must fail the job (the
    coordinator requeues it) rather than report success for a value
    nobody can read back, and a listing that cannot reach the remote
    must not pass off the local directory as the store.  Remote *reads*
    degrade to a miss instead — the store is a cache.
    """


def _request(method: str, url: str, data: Optional[bytes] = None) -> bytes:
    """One HTTP exchange with a ``repro campaign serve`` endpoint; the
    response body.  Raises :class:`OSError` (``urllib.error.URLError``
    and ``HTTPError`` among them) on a connection failure or a non-2xx
    reply."""
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/octet-stream")
    with urllib.request.urlopen(req, timeout=_HTTP_TIMEOUT) as resp:
        return resp.read()


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ResultStore:
    """Content-addressed pickle store (see the module docstring).

    ``root`` defaults to :func:`default_store_path`; ``url`` names a
    ``repro campaign serve`` endpoint the directory caches.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None,
                 url: Optional[str] = None) -> None:
        self.root = Path(root if root is not None else default_store_path())
        self.url = url.rstrip("/") if url else None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ResultStore)
                and (self.root, self.url) == (other.root, other.url))

    def __hash__(self) -> int:
        return hash((self.root, self.url))

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """On-disk location of one key (existence not implied)."""
        return object_path(self.root, key)

    def _object_url(self, key: str) -> str:
        """Remote endpoint of one key."""
        return f"{self.url}/objects/{key}"

    def __contains__(self, key: str) -> bool:
        # Full validation, not just is_file(): a truncated object must
        # count as missing here exactly as get() treats it, or status
        # and run would disagree about what is cached.
        return self._load(key) is not None

    def _load(self, key: str) -> Optional[dict]:
        """Payload dict of one object; None on miss or any corruption.

        A remote hit is validated before it is copied into the directory.
        """
        data = read_object(self.root, key)
        payload = parse_payload(key, data) if data is not None else None
        if payload is not None or self.url is None:
            return payload
        try:
            data = _request("GET", self._object_url(key))
        except OSError:
            return None
        payload = parse_payload(key, data)
        if payload is not None:
            write_object(self.root, key, data)
        return payload

    def get(self, key: str) -> Optional[Any]:
        """Stored value for ``key``, or None on miss *or* corruption."""
        payload = self._load(key)
        return payload.get("value") if payload is not None else None

    def spec(self, key: str) -> Optional[str]:
        """Canonical spec string recorded with ``key`` (None on miss)."""
        payload = self._load(key)
        return payload.get("spec") if payload is not None else None

    def put(self, key: str, spec: str, value: Any) -> Path:
        """Atomically publish ``value`` under ``key``; returns its local
        path.  With a ``url`` the remote is written first, and a failure
        there raises :class:`StoreUnavailable`."""
        data = canonical_dumps({"key": key, "spec": spec, "value": value})
        if self.url is not None:
            try:
                _request("PUT", self._object_url(key), data)
            except OSError as exc:
                raise StoreUnavailable(
                    f"PUT {self._object_url(key)}: {exc}") from exc
        return write_object(self.root, key, data)

    def delete(self, key: str) -> bool:
        """Remove one object, remote and local; True if it existed."""
        remote = False
        if self.url is not None:
            try:
                _request("DELETE", self._object_url(key))
                remote = True
            except OSError:
                pass
        return delete_object(self.root, key) or remote

    # ------------------------------------------------------------------
    def iter_keys(self) -> Iterator[str]:
        """Every key a read can return, in sorted order: the directory's,
        plus the remote's when there is a ``url`` — an unreachable remote
        raises :class:`StoreUnavailable`."""
        if self.url is None:
            return stored_keys(self.root)
        try:
            listed = json.loads(_request("GET", f"{self.url}/keys"))
        except (OSError, ValueError) as exc:
            raise StoreUnavailable(f"GET {self.url}/keys: {exc}") from exc
        return iter(sorted(set(listed).union(stored_keys(self.root))))

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_keys())

    def clean(self) -> int:
        """Delete every stored object; returns how many were removed."""
        removed = 0
        for key in list(self.iter_keys()):
            if self.delete(key):
                removed += 1
        return removed

    def describe(self) -> str:
        """Human-readable store location."""
        if self.url is None:
            return str(self.root)
        return f"{self.url} (cache: {self.root})"


def open_store(root: Optional[Union[str, Path]] = None,
               url: Optional[str] = None) -> ResultStore:
    """Open the store the environment (and flags) point at.

    ``url`` (or ``REPRO_STORE_URL``) selects a remote HTTP store read
    through a cache at ``root`` (or ``REPRO_STORE``); otherwise a plain
    local store at ``root``.  CLI flags pass their values in explicitly
    and win over the environment.
    """
    url = url if url is not None else os.environ.get(STORE_URL_ENV)
    return ResultStore(root, url)
