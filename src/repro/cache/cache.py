"""Set-associative cache with pluggable replacement and partitioning.

Tag state lives in a :class:`~repro.cache.state.TagStore` — the flat
struct-of-arrays core shared with the ATDs: way-indexed ``lines`` at
``set * assoc + way``, per-set ``invalid``/``dirty`` bitmasks, and one
open-addressed line -> way lookup (the behavioural equivalent of the
parallel tag comparison).  Fills prefer invalid ways within the candidate
mask before consulting the replacement policy, and a miss never refuses:
the candidate mask supplied by the enforcement scheme is always nonzero.

Every access method steps the policy and scheme *classes* through one
miss path (:meth:`_fill`); this is the per-access oracle the reference
engine runs.  For a stock (policy, scheme) pair the batched engine's
fused event loop inlines the same transitions
(the ``loop`` rendering of :mod:`repro.cache.transitions`); the cache
only records which key that is (:attr:`kernel`) and is pinned against it
in ``tests/test_cache``.

The cache works in *line address* space (byte address >> line_shift);
:meth:`access` accepts byte addresses, :meth:`access_line` /
:meth:`access_line_hit` / :meth:`access_line_rw` work on line addresses.
"""

from __future__ import annotations

from array import array
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.partition.base import PartitionScheme
from repro.cache.replacement.base import ReplacementPolicy, make_policy
from repro.cache.replacement.nru import NRUPolicy
from repro.cache.state import TagStore, kernel_key


class AccessResult(NamedTuple):
    """Outcome of one cache access."""

    hit: bool
    way: int
    set_index: int
    #: Line address evicted by the fill (None on hits / fills of invalid ways).
    evicted_line: Optional[int]


class CacheStats:
    """Per-core access/hit/miss/eviction counters.

    Only three counters are maintained on the access paths — ``accesses``
    (every access), ``misses`` (miss path) and ``fills_invalid`` (fills
    that consumed an invalid way, i.e. only during warm-up and after
    invalidations) — so the steady-state hot paths touch at most two.
    ``hits`` (``accesses − misses``) and ``evictions`` (``misses −
    fills_invalid``: every miss either fills an invalid way or evicts) are
    derived.  ``write_accesses`` and ``writebacks`` (dirty evictions) stay
    zero for read-only workloads — the paper's methodology — and are
    populated by the write-back extension.  The two the fused event loop
    counts, ``misses`` and ``fills_invalid``, are ``array('q')``: its
    compiled target bumps them in place.
    """

    __slots__ = ("accesses", "misses", "fills_invalid",
                 "write_accesses", "writebacks")

    def __init__(self, num_cores: int) -> None:
        self.accesses = [0] * num_cores
        self.misses = array("q", [0]) * num_cores
        self.fills_invalid = array("q", [0]) * num_cores
        self.write_accesses = [0] * num_cores
        self.writebacks = [0] * num_cores

    def reset(self) -> None:
        """Zero every counter in place (the arrays stay the same objects)."""
        for field in (self.accesses, self.misses, self.fills_invalid,
                      self.write_accesses, self.writebacks):
            for i in range(len(field)):
                field[i] = 0

    @property
    def hits(self) -> List[int]:
        """Per-core hit counts (derived: accesses − misses)."""
        return [a - m for a, m in zip(self.accesses, self.misses)]

    @property
    def evictions(self) -> List[int]:
        """Per-core evictions (derived: misses − invalid-way fills)."""
        return [m - f for m, f in zip(self.misses, self.fills_invalid)]

    @property
    def total_accesses(self) -> int:
        """Accesses summed over all cores."""
        return sum(self.accesses)

    @property
    def total_hits(self) -> int:
        """Hits summed over all cores."""
        return self.total_accesses - self.total_misses

    @property
    def total_misses(self) -> int:
        """Misses summed over all cores."""
        return sum(self.misses)

    @property
    def total_writebacks(self) -> int:
        """Writebacks summed over all cores."""
        return sum(self.writebacks)

    def miss_ratio(self, core: Optional[int] = None) -> float:
        """Miss ratio of one core (or aggregate when ``core`` is None)."""
        if core is None:
            acc, miss = self.total_accesses, self.total_misses
        else:
            acc, miss = self.accesses[core], self.misses[core]
        return miss / acc if acc else 0.0


class SetAssociativeCache:
    """One cache level.

    Parameters
    ----------
    geometry:
        Capacity/associativity/line-size description.
    policy:
        A :class:`ReplacementPolicy` instance sized for this geometry, or a
        registry name ("lru", "nru", "bt", "random").
    partition:
        Optional :class:`PartitionScheme`; ``None`` leaves the cache
        unpartitioned.
    num_cores:
        Number of distinct cores that will access the cache (statistics and
        ownership arrays are sized accordingly).
    """

    def __init__(self, geometry: CacheGeometry,
                 policy: Union[ReplacementPolicy, str],
                 partition: Optional[PartitionScheme] = None,
                 num_cores: int = 1,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self.num_cores = num_cores
        if isinstance(policy, str):
            policy = make_policy(policy, geometry.num_sets, geometry.assoc, rng=rng)
        if policy.num_sets != geometry.num_sets or policy.assoc != geometry.assoc:
            raise ValueError(
                f"policy sized {policy.num_sets}x{policy.assoc} does not match "
                f"geometry {geometry.num_sets}x{geometry.assoc}"
            )
        if partition is not None and (
            partition.num_sets != geometry.num_sets
            or partition.assoc != geometry.assoc
        ):
            raise ValueError("partition scheme does not match the geometry")
        self.policy = policy
        self.partition = partition
        self._nru = policy if isinstance(policy, NRUPolicy) else None

        self._set_mask = geometry.num_sets - 1
        self._full_mask = (1 << geometry.assoc) - 1
        self.state = TagStore(geometry.num_sets, geometry.assoc)
        self.stats = CacheStats(num_cores)
        #: ``(policy kind, scheme name)`` of the stock pair, if any — what
        #: tells the batched engine that (and which) fused event loop is
        #: exact for this cache (:func:`repro.cache.state.rendered_key`).
        self.kernel = kernel_key(self)

    # ------------------------------------------------------------------
    def access(self, addr: int, core: int = 0) -> AccessResult:
        """Access a byte address."""
        return self.access_line(addr >> self.geometry.line_shift, core)

    def access_line(self, line: int, core: int = 0) -> AccessResult:
        """Access a line address, reporting way/eviction detail.

        Same state transitions as :meth:`access_line_hit`, for callers
        that want the full :class:`AccessResult`, not just the hit flag.
        """
        s = line & self._set_mask
        self.stats.accesses[core] += 1
        way = self.state.map.get(line)
        if way is not None:
            self._promote(s, way, core)
            return AccessResult(True, way, s, None)
        way, evicted = self._fill(s, line, core, False)
        return AccessResult(False, way, s, evicted)

    def access_line_hit(self, line: int, core: int = 0) -> bool:
        """Access a line and report only hit/miss: a read
        (:meth:`access_line_rw` with ``write=False``).

        The per-access entry point of the reference engine, stepping the
        policy and scheme classes.
        The batched engine's fused loop inlines the same transition for a
        stock (policy, scheme) pair — but only while no instance
        attribute shadows this method
        (:func:`repro.cache.state.rendered_key`).
        """
        return self.access_line_rw(line, core)

    def access_line_rw(self, line: int, core: int = 0,
                       write: bool = False) -> bool:
        """Read/write access with dirty-bit bookkeeping; True on a hit.

        A write (hit or fill) marks the line dirty, a read fill installs
        it clean, and evicting a dirty line counts a writeback against
        the evicting core — whichever entry point evicts it.
        """
        s = line & self._set_mask
        stats = self.stats
        stats.accesses[core] += 1
        if write:
            stats.write_accesses[core] += 1
        way = self.state.map.get(line)
        if way is not None:
            self._promote(s, way, core)
            if write:
                self.state.dirty[s] |= 1 << way
            return True
        self._fill(s, line, core, write)
        return False

    def _promote(self, s: int, way: int, core: int) -> None:
        """Hit path: hits are unrestricted (paper §II-B); only the NRU
        reset domain depends on the partition."""
        partition = self.partition
        domain = partition.reset_domain(core) if partition else None
        self.policy.touch(s, way, core, domain)

    def _fill(self, s: int, line: int, core: int,
              write: bool) -> Tuple[int, Optional[int]]:
        """The one miss path of every entry point: an invalid way within
        the candidate mask, else the policy's victim; install with the
        way's dirty bit set to ``write``; scheme bookkeeping; promote.
        Returns ``(way, evicted line or None)``."""
        state = self.state
        stats = self.stats
        partition = self.partition
        stats.misses[core] += 1
        mask = partition.candidate_mask(s, core) if partition else self._full_mask
        invalid = state.invalid[s] & mask
        evicted = None
        base = s * self.geometry.assoc
        if invalid:
            way = (invalid & -invalid).bit_length() - 1
            state.invalid[s] &= ~(1 << way)
            stats.fills_invalid[core] += 1
        else:
            way = self.policy.victim(s, core, mask)
            old = state.lines[base + way]
            if old >= 0:
                del state.map[old]
                evicted = old
                if (state.dirty[s] >> way) & 1:
                    stats.writebacks[core] += 1
            else:
                state.invalid[s] &= ~(1 << way)
                stats.fills_invalid[core] += 1
        state.lines[base + way] = line
        state.map[line] = way
        if write:
            state.dirty[s] |= 1 << way
        else:
            state.dirty[s] &= ~(1 << way)
        if partition:
            partition.on_fill(s, way, core)
            domain = partition.reset_domain(core)
        else:
            domain = None
        self.policy.touch_fill(s, way, core, domain)
        if self._nru is not None:
            self._nru.fill_done()
        return way, evicted

    def write_back_line(self, line: int, core: int = 0) -> bool:
        """Absorb a write-back from a private upper level.

        If the line is resident it is marked dirty (no recency update — the
        victim buffer drains without touching the replacement state) and
        True is returned.  In this non-inclusive hierarchy the line may have
        already left the L2; the writeback then bypasses to memory and the
        caller counts the memory write (returns False).
        """
        way = self.state.map.get(line)
        if way is None:
            return False
        self.state.dirty[line & self._set_mask] |= 1 << way
        return True

    # ------------------------------------------------------------------
    def probe_line(self, line: int) -> Optional[int]:
        """Way holding ``line`` without updating any state, or None."""
        return self.state.map.get(line)

    def contains_line(self, line: int) -> bool:
        """True when the line is currently cached (no state change)."""
        return line in self.state.map

    def invalidate_line(self, line: int) -> bool:
        """Drop a line if present; returns True when something was dropped."""
        way = self.state.map.get(line)
        if way is None:
            return False
        s = line & self._set_mask
        self.state.invalidate_way(s, way)
        self.policy.invalidate(s, way)
        if self.partition is not None:
            self.partition.on_invalidate(s, way)
        return True

    def is_dirty(self, line: int) -> bool:
        """True when the line is resident and dirty (no state change)."""
        way = self.state.map.get(line)
        return way is not None and bool(
            (self.state.dirty[line & self._set_mask] >> way) & 1)

    def dirty_lines(self) -> int:
        """Number of resident dirty lines."""
        return self.state.dirty_count()

    def resident_lines(self, set_index: int) -> List[int]:
        """Valid line addresses of one set (way order)."""
        return self.state.resident_lines(set_index)

    def occupancy(self) -> int:
        """Total number of valid lines."""
        return self.state.occupancy()

    def flush(self) -> None:
        """Invalidate everything and reset replacement state (not stats).

        The partition scheme is told as well (:meth:`PartitionScheme.on_flush`)
        so per-line ownership state — owner counters, BT-vector occupancy —
        does not go stale relative to the now-empty tag store.  All three
        resets mutate in place, so a loop bound to the arrays stays valid.
        """
        self.state.flush()
        self.policy.reset()
        if self.partition is not None:
            self.partition.on_flush()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SetAssociativeCache({self.geometry}, policy={self.policy.name}, "
                f"partition={self.partition.name if self.partition else None})")
