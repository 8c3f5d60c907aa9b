"""Specialised private L1 cache: low-associativity true LRU.

The paper's L1s are small 2-way LRU caches in front of the shared L2
(Table II).  They sit on the simulator's hottest path — every memory access
touches one — so this implementation avoids the generic tag-store machinery.
The state is two flat ``int64`` arrays (``array.array``): per set,
``assoc`` line slots ordered MRU first (-1 = invalid, always a suffix),
and a dirty flag per slot.

Two ways in, over the same arrays:

* per access, :meth:`SmallLRUCache.access_line_rw` (and its read,
  :meth:`~SmallLRUCache.access_line_hit`) — hand-written, the reference
  engine's path and the oracle, writes included;
* per read window, :meth:`~SmallLRUCache.access_lines_hit` — the
  compiled ``prefilter`` rendering of :mod:`repro.cache.transitions`,
  bound at construction, which walks a whole window (an ``int64``
  column) in place and writes its L1-miss stream into its caller's rows
  (the batched engine's miss-stream buffer) or columns of its own.  It
  reads an L1 without a dirty line — the batched engine runs read-only
  traces only (:func:`repro.cmp.engine.batched_refusal`) — and raises on
  any other, and where the kernel does not load: every run there is the
  reference engine's, which steps the L1 per access.

Behaviourally identical to ``SetAssociativeCache(geometry, "lru")`` for a
single accessing core (verified by the equivalence tests in
``tests/test_cache/test_l1.py``).
"""

from __future__ import annotations

from array import array
from typing import List, NamedTuple, Optional

import numpy as np

from repro.cache import transitions
from repro.cache.cache import CacheStats
from repro.cache.geometry import CacheGeometry


class MissStream(NamedTuple):
    """The L1 misses of one read window, as ``int64`` columns:
    ``offs[j]`` is the window offset of miss ``j``, ``gaps[j]`` the L1
    hits between miss ``j - 1`` (or the window start) and it, and
    ``lines[j]`` its line address."""

    offs: np.ndarray
    gaps: np.ndarray
    lines: np.ndarray


class SmallLRUCache:
    """MRU-first line slots per set; exact LRU for any (small)
    associativity.  Line addresses are non-negative."""

    def __init__(self, geometry: CacheGeometry, name: str = "l1") -> None:
        self.geometry = geometry
        self.name = name
        self._set_mask = geometry.num_sets - 1
        self._assoc = geometry.assoc
        size = geometry.num_sets * geometry.assoc
        self._slots = array("q", [-1]) * size
        self._dirty = array("q", [0]) * size
        self.stats = CacheStats(1)
        self._prefilter = transitions.bind(
            "prefilter", transitions.PREFILTER_KEY, self)

    def access_line_hit(self, line: int, core: int = 0) -> bool:
        """Read a line address; True on a hit.  LRU replacement."""
        return self.access_line_rw(line, False)[0]

    def access_line_rw(self, line: int, write: bool = False):
        """Read/write access with write-back bookkeeping.

        Returns ``(hit, dirty_victim)`` where ``dirty_victim`` is the line
        address whose dirty copy this access's fill evicted (None when
        nothing dirty was displaced).  A write marks the line dirty, a
        read fill installs it clean, and evicting a dirty line counts a
        writeback.
        """
        slots = self._slots
        dirty = self._dirty
        assoc = self._assoc
        row = (line & self._set_mask) * assoc
        stats = self.stats
        stats.accesses[0] += 1
        if write:
            stats.write_accesses[0] += 1
        if slots[row] == line:
            if write:
                dirty[row] = 1
            return True, None
        end = row + assoc - 1
        try:
            end = slots.index(line, row + 1, end + 1)
            hit = True
        except ValueError:
            hit = False
        old = slots[end]
        flag = dirty[end]
        # An empty slice move raises while a kernel pins them.
        if end > row:
            slots[row + 1:end + 1] = slots[row:end]
            dirty[row + 1:end + 1] = dirty[row:end]
        slots[row] = line
        if hit:
            dirty[row] = flag | write
            return True, None
        dirty[row] = 1 if write else 0
        stats.misses[0] += 1
        if old < 0:
            stats.fills_invalid[0] += 1
        elif flag:
            stats.writebacks[0] += 1
            return False, old
        return False, None

    def is_dirty(self, line: int) -> bool:
        """True when the line is resident and dirty."""
        row = (line & self._set_mask) * self._assoc
        for slot in range(row, row + self._assoc):
            if self._slots[slot] == line:
                return bool(self._dirty[slot])
        return False

    # ------------------------------------------------------------------
    # Bulk entry points (the batched engine's L1 prefilter)
    # ------------------------------------------------------------------
    def access_lines_hit(self, lines: np.ndarray,
                         out: Optional[np.ndarray] = None) -> MissStream:
        """Read a window of line addresses; its L1-miss stream.

        Exactly :meth:`access_line_hit` per element — state, statistics
        and outcomes (``tests/test_cache/test_prefilter.py``) — in one
        call of the ``prefilter`` kernel, over an L1 that holds no dirty
        line (:class:`ValueError` otherwise, nothing walked: only the
        per-access path writes back).  The stream is written into
        ``out`` — three writable ``int64`` rows (offsets, gaps, lines) at
        least as wide as the window, such as a thread's row of the
        batched engine's miss-stream buffer — and returned as views of
        it; without ``out`` into columns of its own.
        """
        if self._prefilter is None:
            raise RuntimeError(f"{self.name}: no compiled prefilter")
        if 1 in self._dirty:
            raise ValueError(f"{self.name}: a window walk reads a clean L1; "
                             f"this one holds a dirty line")
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        width = len(lines)
        # Slot ``n`` of each column is written on every access and kept
        # on a miss, so each needs the window's width.
        columns = np.empty((3, width), dtype=np.int64) if out is None else out
        if len(columns) != 3 or columns.shape[-1] < width:
            raise ValueError(f"{self.name}: a {width}-reference window "
                             f"needs three output rows of {width} slots")
        n, fills = self._prefilter(lines, *columns)
        stats = self.stats
        stats.accesses[0] += width
        stats.misses[0] += n
        stats.fills_invalid[0] += fills
        return MissStream(*columns[:, :n])

    def access_lines_rw(self, lines, writes=None):
        """Benchmark-owned stub: ``benchmarks/e2e/tracing.py`` wraps this
        method of the class's own ``__dict__``, and only a benchmark
        change may drop it.  Always raises: no window walk writes —
        :meth:`access_line_rw` steps a writing trace."""
        raise NotImplementedError("no write window walk; step "
                                  "access_line_rw per access")

    # ------------------------------------------------------------------
    def contains_line(self, line: int) -> bool:
        """Presence probe without state change."""
        row = (line & self._set_mask) * self._assoc
        return line in self._slots[row:row + self._assoc]

    def stack_of(self, set_index: int) -> List[int]:
        """Resident lines of a set, MRU first (for tests)."""
        row = set_index * self._assoc
        return [line for line in self._slots[row:row + self._assoc]
                if line >= 0]

    def occupancy(self) -> int:
        """Total valid lines."""
        return sum(1 for line in self._slots if line >= 0)

    def flush(self) -> None:
        """Invalidate all lines (statistics kept; dirty data dropped).
        In place: the bound kernel holds the arrays."""
        size = len(self._slots)
        self._slots[:] = array("q", [-1]) * size
        self._dirty[:] = array("q", [0]) * size
