"""HTTP object endpoint serving a local store directory.

``repro campaign serve`` wraps this: a :class:`ThreadingHTTPServer` whose
handler maps the store's byte-level contract onto four routes:

* ``GET /objects/<key>`` — raw object bytes, 404 on miss;
* ``PUT /objects/<key>`` — atomic publish with *dedup*: if the key already
  exists the body is discarded and the stored object left untouched
  (content addressing makes the bytes identical by construction, and
  skipping the write makes concurrent publishes of one key trivially
  race-free on the server side);
* ``DELETE /objects/<key>`` — remove, 404 if absent;
* ``GET /keys`` — JSON list of stored keys; ``GET /health`` — liveness.

A PUT whose ``Content-Length`` is not a non-negative integer gets a 400,
one over :data:`MAX_BODY_BYTES` a 413, before a byte of its body is
read.  Request counts (``stats``) are kept under a lock: handlers run on
one thread per connection.

The server is a coordination point for :class:`~.store.HTTPBackend`
clients (usually wrapped in a read-through ``CachingStore``).  It speaks
plain HTTP with no authentication — run it on a trusted network only,
exactly like the pickle-framed job channel in :mod:`.pool`.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Union

from repro.campaign.store import LocalBackend

#: Store keys are hex digests; anything else is rejected before it can
#: reach the filesystem (this is also the path-traversal guard).
_KEY_RE = re.compile(r"^[0-9a-f]{6,128}$")

#: Largest request body a PUT may carry.  The largest object a store
#: holds is an 8-thread outcome at ``paper`` scale: 220 KB, nearly all of
#: it the partition history of its 1 994 repartition records (the
#: largest at ``small`` is 7.8 KB) — so 4 MiB leaves a margin of 18x.
MAX_BODY_BYTES = 4 << 20

_LENGTH_RE = re.compile(r"[0-9]+")


class _StoreHandler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`LocalBackend` (see module doc)."""

    backend: LocalBackend = None  # type: ignore[assignment]
    stats: Dict[str, int] = {}
    lock = threading.Lock()
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def _key(self) -> Optional[str]:
        """Validated object key from the request path, or None."""
        if not self.path.startswith("/objects/"):
            return None
        key = self.path[len("/objects/"):]
        return key if _KEY_RE.fullmatch(key) else None

    def _reply(self, code: int, body: bytes,
               content_type: str = "application/octet-stream") -> None:
        """Send one complete response."""
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _count(self, name: str) -> None:
        """One more request of kind ``name``."""
        with self.lock:
            self.stats[name] = self.stats.get(name, 0) + 1

    def _drain_body(self) -> Optional[bytes]:
        """Read the request body (Content-Length framing only); None
        after replying 400 to a malformed length or 413 to one over
        :data:`MAX_BODY_BYTES` — the body is left unread, so the
        connection is closed."""
        text = self.headers.get("Content-Length") or "0"
        if not _LENGTH_RE.fullmatch(text):
            code, why = 400, b"bad content-length"
        elif int(text) > MAX_BODY_BYTES:
            code, why = 413, b"body too large"
        else:
            length = int(text)
            return self.rfile.read(length) if length else b""
        self.close_connection = True
        self._reply(code, why, "text/plain")
        return None

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        """Serve one object, the key listing, or the health probe."""
        if self.path == "/health":
            self._reply(200, b"ok", "text/plain")
            return
        if self.path == "/keys":
            body = json.dumps(sorted(self.backend.keys())).encode("utf-8")
            self._count("keys")
            self._reply(200, body, "application/json")
            return
        key = self._key()
        if key is None:
            self._reply(404, b"bad path", "text/plain")
            return
        data = self.backend.load(key)
        self._count("get")
        if data is None:
            self._count("get_miss")
            self._reply(404, b"miss", "text/plain")
        else:
            self._reply(200, data)

    def do_PUT(self) -> None:
        """Publish one object (dedup: existing keys are left untouched)."""
        key = self._key()
        body = self._drain_body()
        if body is None:
            return
        if key is None:
            self._reply(400, b"bad key", "text/plain")
            return
        self._count("put")
        if self.backend.load(key) is not None:
            self._count("put_dedup")
            self._reply(200, b"exists", "text/plain")
            return
        self.backend.store(key, body)
        self._reply(201, b"stored", "text/plain")

    def do_DELETE(self) -> None:
        """Remove one object."""
        key = self._key()
        if key is None:
            self._reply(400, b"bad key", "text/plain")
            return
        existed = self.backend.delete(key)
        self._reply(200 if existed else 404, b"", "text/plain")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr logging (campaigns are chatty)."""


class StoreServer:
    """A store directory served over HTTP on a background thread.

    ``port=0`` binds an ephemeral port; the resolved address is available
    as :attr:`url` immediately after construction.  ``stats`` counts
    requests by type (handy for read-through-cache assertions in tests).
    """

    def __init__(self, root: Union[str, Path], host: str = "127.0.0.1",
                 port: int = 0) -> None:
        backend = LocalBackend(root)
        stats: Dict[str, int] = {}
        handler = type("_BoundStoreHandler", (_StoreHandler,),
                       {"backend": backend, "stats": stats,
                        "lock": threading.Lock()})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.backend = backend
        self.stats = stats
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        """Base URL clients should point ``REPRO_STORE_URL`` at."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "StoreServer":
        """Begin serving on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-store-server",
                                        daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI entry)."""
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()

    def __enter__(self) -> "StoreServer":
        """Start on context entry."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop on context exit."""
        self.close()
