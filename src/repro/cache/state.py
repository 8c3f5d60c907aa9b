"""Array-backed tag/policy state core shared by the cache, the ATDs and the
execution engines.

Two pieces live here:

* :class:`TagStore` — a struct-of-arrays tag directory: flat ``lines`` (and,
  for the cache, ``owner``-style side arrays owned by the partition scheme)
  indexed by ``set * assoc + way``, per-set ``invalid``/``dirty`` way
  bitmasks, and a single **open-addressed** line -> way lookup table (one
  CPython dict for the whole store — CPython dicts are open-addressed hash
  tables).  The lookup representation was chosen by benchmark
  (``bench_core_structures.py::TestTagStateRepresentation``): a single dict
  beats a dict-per-set (one indirection less per access) and flat Python
  lists beat numpy arrays for the scalar reads/writes that dominate the hot
  path (numpy scalar indexing boxes a fresh object per element access).
  Bulk consumers get a numpy snapshot via :meth:`TagStore.lines_array`.

* the **kernel builders** — ``SetAssociativeCache.access_line_hit``
  and ``ATD.observe_many`` specialisations for the three
  paper policies (LRU, NRU, BT; every other policy runs the generic
  object-protocol methods).  No transition body is written here:
  :func:`kernel_key`, :func:`rendered_key`,
  :func:`build_observe_many_kernel` and :func:`rendered_drain_kernel`
  decide *whether* a rendering is exact for the instance at hand, and
  the cache / ATD / engines bind the one
  :mod:`repro.cache.transitions` renders from the policy's single
  transition spec — closures whose free variables bind every hot array
  and counter once, at construction, performing *exactly* the seed state
  transitions (same victim choices, same statistics, same partition
  bookkeeping in the same order).  The single-access ATD ``observe``
  (:func:`derive_observe_kernel`) is a policy-independent step over the
  bound batch kernel's Python target; :class:`DrainKernel` is the seam
  through which a run of the batched engine drains an ATD on the
  compiled target without the ATD ever binding it.  Equivalence with
  the generic object-protocol paths is pinned by
  ``tests/test_cache/test_state.py`` and with the seed per-object
  implementations by ``tests/test_cache/test_flat_equivalence.py``.

The kernels rely on invariants the cache/ATD maintain by construction:

* a way is invalid  iff  its ``lines`` entry is ``-1``  iff  it is absent
  from the lookup dict;
* every *valid* way has been touched, so order-based policies always find
  it in their recency order;
* ``policy.reset()`` / ``TagStore.flush()`` mutate state **in place** —
  the arrays a kernel closed over stay live across flushes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.cache import transitions
from repro.cache.partition.btvectors import BTVectorPartition
from repro.cache.partition.masks import MasksPartition
from repro.cache.partition.owner_counters import OwnerCountersPartition

__all__ = ["DrainKernel", "TagStore", "build_observe_many_kernel",
           "derive_observe_kernel", "kernel_key", "rendered_drain_kernel",
           "rendered_key"]


class TagStore:
    """Struct-of-arrays tag state for one set-associative directory."""

    __slots__ = ("num_sets", "assoc", "full_mask", "map", "lines",
                 "invalid", "dirty")

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets <= 0 or assoc <= 0:
            raise ValueError("num_sets and assoc must be positive")
        self.num_sets = num_sets
        self.assoc = assoc
        self.full_mask = (1 << assoc) - 1
        #: Open-addressed lookup: line address -> way (global, not per set —
        #: a line address determines its set, so keys never collide).
        self.map: dict = {}
        #: Flat way-indexed line addresses (``-1`` = invalid), ``s*assoc+w``.
        self.lines: List[int] = [-1] * (num_sets * assoc)
        #: Per-set bitmask of invalid ways.
        self.invalid: List[int] = [self.full_mask] * num_sets
        #: Per-set bitmask of dirty ways.
        self.dirty: List[int] = [0] * num_sets

    # ------------------------------------------------------------------
    # Lookup-table maintenance.  The hot paths (cache methods, kernels)
    # inline these few statements; the methods are the documented contract
    # for out-of-line users.  Note neither touches the ``invalid`` bitmask:
    # fill paths clear the way's invalid bit *before* installing.
    # ------------------------------------------------------------------
    def lookup(self, line: int) -> Optional[int]:
        """Way holding ``line`` (None when absent); no state change."""
        return self.map.get(line)

    def install(self, set_index: int, way: int, line: int) -> None:
        """Bind ``line`` to ``way`` (the way must be free in the lookup)."""
        self.lines[set_index * self.assoc + way] = line
        self.map[line] = way

    def evict(self, set_index: int, way: int) -> int:
        """Unbind whatever ``way`` holds; returns the old line (or -1).

        The caller must :meth:`install` a replacement line (or mark the
        way invalid) before the next lookup of the old ``lines`` entry.
        """
        old = self.lines[set_index * self.assoc + way]
        if old >= 0:
            del self.map[old]
        return old

    def invalidate_way(self, set_index: int, way: int) -> None:
        """Drop ``way``'s line and mark the way invalid + clean."""
        flat = set_index * self.assoc + way
        old = self.lines[flat]
        if old >= 0:
            del self.map[old]
        self.lines[flat] = -1
        bit = 1 << way
        self.invalid[set_index] |= bit
        self.dirty[set_index] &= ~bit

    def flush(self) -> None:
        """Invalidate everything, in place (kernel bindings stay live)."""
        self.map.clear()
        lines = self.lines
        for i in range(len(lines)):
            lines[i] = -1
        full = self.full_mask
        invalid = self.invalid
        dirty = self.dirty
        for s in range(self.num_sets):
            invalid[s] = full
            dirty[s] = 0

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Total number of valid lines."""
        return len(self.map)

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

        A copy, not a live view — mutate the store through its methods.
        """
        return np.asarray(self.lines, dtype=np.int64).reshape(
            self.num_sets, self.assoc)


# ----------------------------------------------------------------------
# Rendered kernels (access_line_hit / observe_many specialisations)
# ----------------------------------------------------------------------
# A rendering inlines the *stock* bodies of the policy, the enforcement
# scheme and the profiler, so it only engages for exactly those: the
# policy by its declared ``kernel_kind`` (a subclass changing semantics
# must redeclare it — the ``kernel-kind-override`` lint rule), the scheme
# and the profiler by exact type, so a subclass overriding
# ``candidate_mask`` / ``reset_domain`` / ``on_fill`` / ``on_hit`` is never
# silently bypassed.  Everything else runs the generic object-protocol
# methods.

_STOCK_SCHEMES = {
    type(None): "none",
    MasksPartition: "masks",
    OwnerCountersPartition: "counters",
    BTVectorPartition: "btvectors",
}


def kernel_key(cache) -> Optional[Tuple[str, str]]:
    """``(policy kind, scheme name)`` of the rendering that is exact for
    ``cache``, or None when it must stay on the generic path."""
    kind = getattr(cache.policy, "kernel_kind", "")
    scheme = _STOCK_SCHEMES.get(type(cache.partition))
    if kind not in transitions.POLICIES or scheme is None:
        return None
    return kind, scheme


def rendered_key(cache) -> Optional[Tuple[str, str]]:
    """Key of the rendered hit kernel ``cache`` still runs, else None.

    The one rule by which a caller may swap per-access calls for a
    rendering with the same transition inlined (the fused event loop of
    ``BatchedEngine.run``): the cache
    recorded a rendered kernel at construction and nobody has rebound
    ``access_line_hit`` since.
    """
    bound = getattr(cache, "kernel", None)
    if bound is not None and cache.access_line_hit is bound[1]:
        return bound[0]
    return None


# ----------------------------------------------------------------------
# ATD observe kernels
# ----------------------------------------------------------------------
# The ``observe`` rendering is the *batch* kernel ``observe_many(lines)``:
# it drains a buffered run of one thread's L2-reaching line addresses —
# sampling filter, the profiler's SDH read of the pre-access state,
# promote or fill per line — with the per-call overhead amortised over
# the whole buffer.  The execution engines buffer each thread's stream
# and drain at controller boundaries / run end, which is exact because
# ATD state is a pure function of the *own-thread* stream prefix and is
# only read at those drain points (see ``docs/architecture.md``).  The
# single-access ``observe`` of a kernelised ATD is derived from it — a
# one-line batch behind the sampling filter — so the two cannot drift
# apart; equivalence with the generic object-protocol path is pinned by
# ``tests/test_cmp/test_solo_engine.py`` (``TestDeferredDrains``) and
# ``tests/test_profiling/test_atd.py``.

class DrainKernel:
    """What a kernelised ATD binds as ``observe_many``.

    ``python`` is the Python target of the ATD's ``observe`` rendering,
    bound once at construction.  The single-access ``observe`` is derived
    from it, so that path never leaves the interpreter: a compiled kernel
    copies the ATD's state in and out on every call, which a whole drain
    amortises and a one-line batch per access cannot.  A call runs
    ``python``, except while a run of the batched engine has
    :meth:`install`\\ ed its own bind of the same rendering for its drains
    (compiled where the host builds it, handed ``int64`` columns);
    ``BatchedEngine.run`` :meth:`restore`\\ s on its way out.  The run's
    kernel is routed *through* the attribute rather than around it so that
    whoever wrapped ``atd.observe_many`` transparently
    (``functools.wraps``: a tracer, a recorder) stays in every drain's
    call path, on the target the run really uses.
    """

    __slots__ = ("key", "python", "entries", "target", "floor")

    def __init__(self, key: Tuple[str, str], python: Callable,
                 entries: int) -> None:
        self.key = key
        self.python = python
        #: Size of the directory a compiled kernel copies per call.
        self.entries = entries
        self.restore()

    def install(self, target: Callable) -> bool:
        """Drain through ``target``; True when it takes ``int64`` columns
        (the compiled target).  A compiled ``target`` copies the directory
        per call, and the copy costs per directory entry what the kernel
        saves per line, so only batches at least that long go to it: a
        shorter one — every drain of a ``micro`` run, most drains of an
        unsampled ATD — is cheaper interpreted."""
        compiled = hasattr(target, "ints")
        self.target, self.floor = target, self.entries if compiled else 0
        return compiled

    def restore(self) -> None:
        """Back to the ATD's own kernel (what :meth:`install` undoes)."""
        self.target, self.floor = self.python, 0

    def __call__(self, batch) -> None:
        if len(batch) < self.floor:
            self.python(batch.tolist())
        else:
            self.target(batch)


def rendered_drain_kernel(atd) -> Optional[DrainKernel]:
    """The batch kernel ``atd`` bound at construction, if draining the
    ATD still leads to it; else None.

    :func:`rendered_key`'s rule for the drains of ``BatchedEngine.run``:
    ``atd.observe_many`` is that kernel or a transparent wrapper of it
    (a ``__wrapped__`` chain ending there).  Anything else — a test
    double, the class's generic loop — is drained as it stands, with
    lists.
    """
    bound = getattr(atd, "kernel", None)
    drain = atd.observe_many
    while drain is not bound and hasattr(drain, "__wrapped__"):
        drain = drain.__wrapped__
    return bound if bound is not None and drain is bound else None


def build_observe_many_kernel(atd) -> Optional[DrainKernel]:
    """Rendered batch ``ATD.observe_many`` for the ATD's policy, or None.

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
    kind = getattr(atd.policy, "kernel_kind", "")
    profiler = atd.profiler
    if (type(profiler) is not stock.get(kind)
            or getattr(profiler, "spread_update", False)):
        return None
    key = (kind, "none")
    return DrainKernel(key, transitions.bind("observe", key, atd,
                                             interpreted=True),
                       len(atd.state.lines))


def derive_observe_kernel(atd, observe_many) -> Callable:
    """``ATD.observe`` for an ATD whose batch kernel is ``observe_many``.

    The sampling filter runs in front so an unsampled access costs no
    batch call; a sampled one is a one-line batch, True by contract.
    """
    counts = atd._counts
    skip_mask = atd._skip_mask

    def observe(line):
        if line & skip_mask:
            counts[1] += 1
            return False
        observe_many((line,))
        return True

    return observe
