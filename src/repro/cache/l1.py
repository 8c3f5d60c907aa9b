"""Specialised private L1 cache: low-associativity true LRU.

The paper's L1s are small 2-way LRU caches in front of the shared L2
(Table II).  They sit on the simulator's hottest path — every memory access
touches one — so this implementation avoids the generic tag-store machinery:
each set is a short Python list ordered MRU-first, and a 2-way lookup is one
or two C-speed comparisons.

Behaviourally identical to ``SetAssociativeCache(geometry, "lru")`` for a
single accessing core (verified by the equivalence tests in
``tests/test_cache/test_l1.py``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cache.cache import CacheStats
from repro.cache.geometry import CacheGeometry


class SmallLRUCache:
    """MRU-first per-set lists; exact LRU for any (small) associativity."""

    def __init__(self, geometry: CacheGeometry, name: str = "l1") -> None:
        self.geometry = geometry
        self.name = name
        self._set_mask = geometry.num_sets - 1
        self._assoc = geometry.assoc
        # Narrow sort keys for the bulk path: numpy's stable argsort is a
        # radix sort whose pass count scales with the key width, and L1 set
        # indices are tiny — int16 keys sort ~8x faster than int64.
        self._set_dtype = np.int16 if geometry.num_sets <= (1 << 15) \
            else np.int64
        self._sets: List[List[int]] = [[] for _ in range(geometry.num_sets)]
        # Write-back extension: resident dirty lines (empty for read-only
        # workloads, so the hot read path never consults it).
        self._dirty: set = set()
        self.stats = CacheStats(1)

    def access_line_hit(self, line: int, core: int = 0) -> bool:
        """Access a line address; True on a hit.  LRU replacement."""
        ways = self._sets[line & self._set_mask]
        stats = self.stats
        stats.accesses[0] += 1
        try:
            index = ways.index(line)
        except ValueError:
            stats.misses[0] += 1
            ways.insert(0, line)
            if len(ways) > self._assoc:
                ways.pop()
            else:
                stats.fills_invalid[0] += 1
            return False
        if index:
            ways.insert(0, ways.pop(index))
        return True

    def access_line_rw(self, line: int, write: bool = False):
        """Read/write access with write-back bookkeeping.

        Returns ``(hit, dirty_victim)`` where ``dirty_victim`` is the line
        address whose dirty copy was evicted by this access's fill (None
        when nothing dirty was displaced).  Same hit/replacement behaviour
        as :meth:`access_line_hit`.
        """
        ways = self._sets[line & self._set_mask]
        stats = self.stats
        stats.accesses[0] += 1
        if write:
            stats.write_accesses[0] += 1
        try:
            index = ways.index(line)
        except ValueError:
            stats.misses[0] += 1
            ways.insert(0, line)
            dirty_victim = None
            if len(ways) <= self._assoc:
                stats.fills_invalid[0] += 1
            else:
                victim = ways.pop()
                if victim in self._dirty:
                    self._dirty.discard(victim)
                    stats.writebacks[0] += 1
                    dirty_victim = victim
            if write:
                self._dirty.add(line)
            return False, dirty_victim
        if index:
            ways.insert(0, ways.pop(index))
        if write:
            self._dirty.add(line)
        return True, None

    def is_dirty(self, line: int) -> bool:
        """True when the line is resident and dirty."""
        return line in self._dirty and self.contains_line(line)

    # ------------------------------------------------------------------
    # Bulk entry points (the batched engine's L1 prefilter)
    # ------------------------------------------------------------------
    def access_lines_hit(self, lines: np.ndarray) -> np.ndarray:
        """Access many line addresses at once; returns per-access hit flags.

        Exactly equivalent to calling :meth:`access_line_hit` per element
        (state, statistics and outcomes — pinned by ``test_l1`` equivalence
        tests), but vectorised with numpy for the baseline associativities
        (1- and 2-way).  Higher associativities fall back to a tight loop.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        if self._assoc <= 2 and not self._dirty:
            return self._access_lines_vectorized(lines)
        flags = np.empty(len(lines), dtype=bool)
        step = self.access_line_hit
        for i, line in enumerate(lines.tolist()):
            flags[i] = step(line)
        return flags

    def access_lines_rw(self, lines: np.ndarray,
                        writes: Optional[np.ndarray] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk read/write accesses with write-back bookkeeping.

        Returns ``(hit_flags, dirty_victims)`` where ``dirty_victims[i]`` is
        the line address whose dirty copy was displaced by access ``i``'s
        fill, or ``-1``.  Equivalent to per-element :meth:`access_line_rw`.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        n = len(lines)
        if writes is not None and len(writes) != n:
            raise ValueError(
                f"writes array has {len(writes)} entries for {n} lines"
            )
        flags = np.empty(n, dtype=bool)
        victims = np.full(n, -1, dtype=np.int64)
        if writes is None and not self._dirty:
            # Read-only stream over a clean cache: no dirty state can arise,
            # so the read-only bulk path (vectorised when possible) applies.
            flags[:] = self.access_lines_hit(lines)
            return flags, victims
        step = self.access_line_rw
        if writes is None:
            for i, line in enumerate(lines.tolist()):
                hit, victim = step(line, False)
                flags[i] = hit
                if victim is not None:
                    victims[i] = victim
        else:
            for i, (line, write) in enumerate(zip(lines.tolist(),
                                                  writes.tolist())):
                hit, victim = step(line, write)
                flags[i] = hit
                if victim is not None:
                    victims[i] = victim
        return flags, victims

    def _access_lines_vectorized(self, lines: np.ndarray) -> np.ndarray:
        """Vectorised exact LRU for ``assoc <= 2``.

        Per set, a 2-way LRU access hits iff the line equals the previous
        access to the set (the MRU) or the most recent *distinct* line
        before that (the LRU).  Both are computable with grouped forward
        fills: stable-sort the accesses by set, then ``c[i]`` — the last
        position where the set's value changed — locates the previous
        distinct line at ``c[i-1] - 1``.  Current residents are prepended
        as synthetic accesses so state carries across calls.
        """
        n = len(lines)
        assoc = self._assoc
        stats = self.stats
        stats.accesses[0] += n
        if n == 0:
            return np.empty(0, dtype=bool)
        sets = (lines & self._set_mask).astype(self._set_dtype)
        # The set domain is tiny (tens of sets), so a bincount + flatnonzero
        # beats np.unique's sort by a wide margin on 64K-access windows.
        touched = np.flatnonzero(
            np.bincount(sets, minlength=len(self._sets)))
        occ0 = {}
        carry: List[int] = []
        for s in touched.tolist():
            resident = self._sets[s]
            occ0[s] = len(resident)
            carry.extend(reversed(resident))  # LRU first, MRU last
        nc = len(carry)
        if nc:
            ext_lines = np.concatenate(
                [np.asarray(carry, dtype=np.int64), lines])
            ext_sets = (ext_lines & self._set_mask).astype(self._set_dtype)
        else:
            ext_lines = lines
            ext_sets = sets
        m = len(ext_lines)
        order = np.argsort(ext_sets, kind="stable")
        gl = ext_lines[order]
        idx = np.arange(m)
        boundary = np.empty(m, dtype=bool)
        boundary[0] = True
        gsets = ext_sets[order]
        boundary[1:] = gsets[1:] != gsets[:-1]
        prev_same_set = ~boundary
        same_as_prev = np.zeros(m, dtype=bool)
        same_as_prev[1:] = prev_same_set[1:] & (gl[1:] == gl[:-1])
        hit = same_as_prev.copy()
        # c[i]: last position at/before i where the set's value changed.
        change = np.where(same_as_prev, -1, idx)
        c = np.maximum.accumulate(change)
        gstart = np.maximum.accumulate(np.where(boundary, idx, -1))
        if assoc == 2:
            cprev = np.empty(m, dtype=np.int64)
            cprev[0] = 0
            cprev[1:] = c[:-1]
            # Previous distinct line exists iff the value changed at least
            # once since the group start; it sits just before that change.
            has_lru = prev_same_set & (cprev - 1 >= gstart)
            prev_distinct = gl[np.maximum(cprev - 1, 0)]
            hit |= has_lru & (gl == prev_distinct)
        # Scatter back to access order and drop the synthetic carry.
        flags_ext = np.empty(m, dtype=bool)
        flags_ext[order] = hit
        flags = flags_ext[nc:]
        # Statistics (misses / invalid fills; hits and evictions are
        # derived by CacheStats).
        hits = int(np.count_nonzero(flags))
        misses = n - hits
        stats.misses[0] += misses
        if misses:
            miss_counts = np.bincount(sets[~flags], minlength=len(self._sets))
            uniq = np.flatnonzero(miss_counts)
            fills_invalid = 0
            for s, cnt in zip(uniq.tolist(), miss_counts[uniq].tolist()):
                spare = assoc - occ0[s]
                fills_invalid += min(cnt, spare)
            stats.fills_invalid[0] += fills_invalid
        # Final per-set state: MRU = last grouped value, LRU = previous
        # distinct value when the set ever held two lines.
        ends = np.flatnonzero(np.append(boundary[1:], True))
        end_sets = gsets[ends].tolist()
        end_mru = gl[ends].tolist()
        end_c = c[ends]
        end_gstart = gstart[ends]
        has_two = ((end_c - 1 >= end_gstart) if assoc == 2
                   else np.zeros(len(ends), dtype=bool))
        end_lru = gl[np.maximum(end_c - 1, 0)].tolist()
        for j, s in enumerate(end_sets):
            if has_two[j]:
                self._sets[s] = [end_mru[j], end_lru[j]]
            else:
                self._sets[s] = [end_mru[j]]
        return flags

    # ------------------------------------------------------------------
    # State image (the engines' window cache keys on it and restores it)
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[tuple, frozenset]:
        """Hashable image of the contents: the per-set stacks (MRU first)
        and the dirty set.  Two caches of one geometry with equal images
        behave identically from here on; statistics are not part of it.
        """
        return tuple(map(tuple, self._sets)), frozenset(self._dirty)

    def restore(self, image: Tuple[tuple, frozenset]) -> None:
        """Make the contents equal a :meth:`snapshot` image, in place."""
        stacks, dirty = image
        if len(stacks) != len(self._sets):
            raise ValueError(
                f"image has {len(stacks)} sets, the cache {len(self._sets)}"
            )
        for ways, saved in zip(self._sets, stacks):
            ways[:] = saved
        self._dirty.clear()
        self._dirty.update(dirty)

    def contains_line(self, line: int) -> bool:
        """Presence probe without state change."""
        return line in self._sets[line & self._set_mask]

    def stack_of(self, set_index: int) -> List[int]:
        """Resident lines of a set, MRU first (for tests)."""
        return list(self._sets[set_index])

    def occupancy(self) -> int:
        """Total valid lines."""
        return sum(len(ways) for ways in self._sets)

    def flush(self) -> None:
        """Invalidate all lines (statistics kept; dirty data dropped)."""
        for ways in self._sets:
            ways.clear()
        self._dirty.clear()
