"""Array-backed tag/policy state core shared by the cache, the ATDs and the
execution engines.

Two pieces live here:

* :class:`TagStore` — a struct-of-arrays tag directory: flat ``lines`` (and,
  for the cache, ``owner``-style side arrays owned by the partition scheme)
  indexed by ``set * assoc + way``, and per-set ``invalid``/``dirty`` way
  bitmasks.  That is the whole of the tag state, and there is one copy of
  it: :meth:`TagStore.way_of` finds a line by searching its set's row of
  ``lines`` (``array.index`` over ``[set*assoc, set*assoc + assoc)``), the
  probe the compiled kernels make in C, and every writer — the classes, a
  compiled kernel — stores to the row itself.  The three arrays are
  ``array('q')``, which a compiled kernel works on in place, by address
  (:mod:`repro.cache.native`), so what one writes the other reads at once.
  The interpreted path (the reference engine) pays for the search: an
  element read or write costs ~30 ns more than a list's
  (``docs/architecture.md``, "State during a run").  Bulk consumers get a
  numpy snapshot via :meth:`TagStore.lines_array`.

* the **eligibility rules** of the batch renderings for the three paper
  policies (LRU, NRU, BT; every other policy runs the generic
  object-protocol methods).  No transition body is written here:
  :func:`kernel_key`, :func:`rendered_key` and :func:`drain_key` decide
  *whether* a rendering is exact for the instance at hand — the fused
  event loop of ``BatchedEngine.run`` for a cache, the drain kernel
  (``ATD.observe_many``) for an ATD — and the engine / ATD bind the
  compiled kernel :mod:`repro.cache.transitions` renders from the
  policy's single transition spec, performing *exactly* the state transitions of the
  classes (same victim choices, same statistics, same partition
  bookkeeping in the same order).  Nothing per-access is rendered:
  ``access_line_hit`` and ``ATD.observe`` are the classes' methods on
  every instance.  Equivalence with the generic object-protocol paths is
  pinned by ``tests/test_cache/test_state.py`` and with the seed
  per-object implementations by
  ``tests/test_cache/test_flat_equivalence.py``.

The kernels rely on invariants the cache/ATD maintain by construction:

* a way is invalid  iff  its ``lines`` entry is ``-1``, and a line sits in
  at most one way of its set's row;
* every *valid* way has been touched, so order-based policies always find
  it in their recency order;
* ``policy.reset()`` / ``TagStore.flush()`` mutate state **in place** —
  the arrays a kernel was bound to stay live across flushes, and no owner
  array is ever resized (a compiled kernel pins them while it lives: a
  resize raises ``BufferError``).
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.partition.btvectors import BTVectorPartition
from repro.cache.partition.masks import MasksPartition
from repro.cache.partition.owner_counters import OwnerCountersPartition
from repro.cache.replacement.bt import BTPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.nru import NRUPolicy

__all__ = ["TagStore", "drain_key", "kernel_key", "rendered_key"]


class TagStore:
    """Struct-of-arrays tag state for one set-associative directory."""

    __slots__ = ("num_sets", "assoc", "full_mask", "lines", "invalid",
                 "dirty")

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets <= 0 or assoc <= 0:
            raise ValueError("num_sets and assoc must be positive")
        self.num_sets = num_sets
        self.assoc = assoc
        self.full_mask = (1 << assoc) - 1
        #: Flat way-indexed line addresses (``-1`` = invalid), ``s*assoc+w``.
        self.lines = array("q", [-1]) * (num_sets * assoc)
        #: Per-set bitmask of invalid ways.
        self.invalid = array("q", [self.full_mask]) * num_sets
        #: Per-set bitmask of dirty ways.
        self.dirty = array("q", [0]) * num_sets

    def way_of(self, set_index: int, line: int) -> Optional[int]:
        """Way of set ``set_index`` holding ``line`` (a line address, never
        ``-1``), or None: the search of the set's row the compiled
        kernels' ``probe`` makes; no state change."""
        base = set_index * self.assoc
        try:
            return self.lines.index(line, base, base + self.assoc) - base
        except ValueError:
            return None

    def invalidate_way(self, set_index: int, way: int) -> None:
        """Drop ``way``'s line and mark the way invalid + clean."""
        self.lines[set_index * self.assoc + way] = -1
        bit = 1 << way
        self.invalid[set_index] |= bit
        self.dirty[set_index] &= ~bit

    def flush(self) -> None:
        """Invalidate everything, in place (kernel bindings stay live)."""
        self.lines[:] = array("q", [-1]) * len(self.lines)
        self.invalid[:] = array("q", [self.full_mask]) * self.num_sets
        self.dirty[:] = array("q", [0]) * self.num_sets

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Total number of valid lines."""
        return len(self.lines) - self.lines.count(-1)

    def resident_lines(self, set_index: int) -> List[int]:
        """Valid line addresses of one set (way order)."""
        base = set_index * self.assoc
        return [line for line in self.lines[base:base + self.assoc]
                if line >= 0]

    def dirty_count(self) -> int:
        """Number of resident dirty lines."""
        return sum(d.bit_count() for d in self.dirty)

    def lines_array(self) -> np.ndarray:
        """Numpy *snapshot* of the way-indexed lines, ``(num_sets, assoc)``.

        A copy, not a live view — mutate ``lines`` itself.
        """
        return np.array(self.lines, dtype=np.int64).reshape(
            self.num_sets, self.assoc)


# ----------------------------------------------------------------------
# Eligibility of the batch renderings
# ----------------------------------------------------------------------
# A rendering inlines the *stock* bodies of the policy, the enforcement
# scheme and the profiler, so it only engages for exactly those, each by
# exact type: a subclass overriding ``touch`` / ``touch_fill`` /
# ``victim``, ``candidate_mask`` / ``reset_domain`` / ``on_fill`` or
# ``on_hit`` is never silently bypassed, and one overriding nothing runs
# the classes too.  Everything else runs the generic object-protocol
# methods.

_STOCK_POLICIES = {LRUPolicy: "lru", NRUPolicy: "nru", BTPolicy: "bt"}

_STOCK_SCHEMES = {
    type(None): "none",
    MasksPartition: "masks",
    OwnerCountersPartition: "counters",
    BTVectorPartition: "btvectors",
}


def kernel_key(cache) -> Optional[Tuple[str, str]]:
    """``(policy kind, scheme name)`` of the rendering that is exact for
    ``cache``, or None when it must stay on the generic path."""
    kind = _STOCK_POLICIES.get(type(cache.policy))
    scheme = _STOCK_SCHEMES.get(type(cache.partition))
    if kind is None or scheme is None:
        return None
    return kind, scheme


def rendered_key(cache) -> Optional[Tuple[str, str]]:
    """Key of the fused event loop that is exact for ``cache``, else None.

    The one rule by which a caller may swap per-access
    ``access_line_hit`` calls for a rendering with the same transition
    inlined (the fused event loop of ``BatchedEngine.run``): the cache
    recorded a stock key at construction and the instance has not
    shadowed ``access_line_hit`` since.
    """
    key = getattr(cache, "kernel", None)
    if key is not None and "access_line_hit" not in vars(cache):
        return key
    return None


# ----------------------------------------------------------------------
# ATD drains
# ----------------------------------------------------------------------
# The ``observe`` rendering is the *batch* kernel ``observe_many(batch)``:
# it drains a buffered run of one thread's L2-reaching line addresses —
# sampling filter, the profiler's SDH read of the pre-access state,
# promote or fill per line.  The batched engine drains each thread's
# stream at controller boundaries / run end, which is exact because ATD
# state is a pure function of the *own-thread* stream prefix and is only
# read at those drain points (see ``docs/architecture.md``).  Equivalence
# with the class's per-line ``ATD.observe`` is pinned by
# ``tests/test_cmp/test_solo_engine.py`` (``TestDeferredDrains``) and
# ``tests/test_cache/test_state.py`` (``TestDrainTargets``).

def drain_key(atd) -> Optional[Tuple[str, str]]:
    """Key of the ``observe`` rendering that is exact for ``atd``'s
    drains (``ATD.observe_many``), or None.

    The rendering inlines the *stock* profiler's interpretation of the
    flat state, so it only engages when the ATD runs exactly the stock
    :class:`~repro.profiling.profilers.DistanceProfiler` for its policy —
    a custom profiler (tests, ablations) and NRU's literal-reading
    ``spread_update`` keep the generic per-line path.
    """
    from repro.profiling.profilers import (
        BTDistanceProfiler,
        LRUDistanceProfiler,
        NRUDistanceProfiler,
    )

    stock = {"lru": LRUDistanceProfiler, "nru": NRUDistanceProfiler,
             "bt": BTDistanceProfiler}
    kind = _STOCK_POLICIES.get(type(atd.policy))
    profiler = atd.profiler
    if (type(profiler) is not stock.get(kind)
            or getattr(profiler, "spread_update", False)):
        return None
    return kind, "none"
