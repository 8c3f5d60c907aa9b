"""Trace container: one thread's memory reference stream plus CPI metadata.

Traces store *line addresses* (``int64``), the granularity at which the
cache hierarchy operates.  The instruction stream between memory references
is summarised by ``ipm`` (instructions per memory access) and ``cpi_base``
(cycles per instruction when every access hits the L1) — the two parameters
of the analytic core model.

A trace may optionally mark a subset of its accesses as *writes* (a boolean
array aligned with ``lines``).  Read-only traces — the paper's methodology —
skip all dirty-bit bookkeeping in the hierarchy; write-marked traces enable
the write-back/writeback-traffic extension (see
:func:`repro.workloads.writes.overlay_writes`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class Trace:
    """One thread's synthetic reference stream."""

    name: str
    lines: np.ndarray
    #: Committed instructions per memory access.
    ipm: float
    #: Core CPI with a perfect memory hierarchy.
    cpi_base: float
    #: Optional per-access write flags (None == read-only trace).
    writes: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.lines = np.ascontiguousarray(self.lines, dtype=np.int64)
        if self.lines.ndim != 1 or len(self.lines) == 0:
            raise ValueError("trace needs a non-empty 1-D line-address array")
        if self.ipm <= 0 or self.cpi_base <= 0:
            raise ValueError("ipm and cpi_base must be positive")
        if self.writes is not None:
            self.writes = np.ascontiguousarray(self.writes, dtype=bool)
            if self.writes.shape != self.lines.shape:
                raise ValueError(
                    f"writes array has shape {self.writes.shape}, "
                    f"lines {self.lines.shape}"
                )
        self._fingerprint: Optional[str] = None

    def __len__(self) -> int:
        return len(self.lines)

    def fingerprint(self) -> str:
        """Cached SHA-256 over everything that determines simulation results.

        Covers the full line-address stream, the write flags and the two
        core-model parameters — two traces with equal fingerprints simulate
        identically on any machine, which is what memoisation keys
        (:class:`~repro.cmp.isolation.IsolationRunner`) need; the *name* is
        deliberately excluded (it is presentation, not content).  Computed
        lazily on first use and cached; traces are treated as immutable
        after construction (mutating ``lines`` in place would stale it).
        """
        fp = self._fingerprint
        if fp is None:
            # The C-contiguous arrays are hashed in place: ``tobytes()``
            # would copy a paper trace (16 MB) first.
            h = hashlib.sha256()
            h.update(f"{self.ipm!r}:{self.cpi_base!r}:".encode())
            h.update(np.ascontiguousarray(self.lines))
            if self.writes is not None:
                h.update(b"w")
                h.update(np.ascontiguousarray(self.writes))
            fp = h.hexdigest()
            self._fingerprint = fp
        return fp

    @property
    def instructions(self) -> int:
        """Instructions represented by one pass over the trace."""
        return int(len(self.lines) * self.ipm)

    @property
    def footprint_lines(self) -> int:
        """Number of distinct lines touched."""
        return int(np.unique(self.lines).size)

    @property
    def write_fraction(self) -> float:
        """Fraction of accesses that are writes (0.0 for read-only traces)."""
        if self.writes is None:
            return 0.0
        return float(self.writes.mean())

    def chunk_view(self, start: int, size: int) -> np.ndarray:
        """Zero-copy view of ``size`` line addresses from ``start``.

        The batched engine prefilters traces window by window; views avoid
        duplicating multi-million-entry streams.  The window is clamped to
        the trace end (wrap-around is the engine's business, not the
        trace's).
        """
        if start < 0 or start >= len(self.lines):
            raise ValueError(
                f"chunk start {start} outside trace of {len(self.lines)} accesses"
            )
        if size <= 0:
            raise ValueError(f"chunk size must be positive, got {size}")
        return self.lines[start:start + size]

    def save(self, path: str) -> None:
        """Persist to an ``.npz`` file."""
        payload = dict(lines=self.lines, ipm=self.ipm,
                       cpi_base=self.cpi_base, name=self.name)
        if self.writes is not None:
            payload["writes"] = self.writes
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Load a trace saved by :meth:`save`."""
        data = np.load(path, allow_pickle=False)
        return cls(
            name=str(data["name"]), lines=data["lines"],
            ipm=float(data["ipm"]), cpi_base=float(data["cpi_base"]),
            writes=data["writes"] if "writes" in data else None,
        )
