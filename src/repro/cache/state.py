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

* the **access kernels** — specialisations of
  ``SetAssociativeCache.access_line_hit`` and ``ATD.observe_many`` for
  the three paper policies (LRU, NRU, BT; every other policy runs the
  generic object-protocol methods), built as closures whose free
  variables bind every hot array and counter once, at construction.
  A kernel performs *exactly* the seed state transitions
  (same victim choices, same statistics, same partition hooks in the same
  order) with locals-bound array operations instead of per-access attribute
  chases and dynamic method dispatch; the hottest policies (LRU, NRU) get a
  further unpartitioned variant with every partition branch compiled out.
  Those two are the only hand-written transition sites here: the window
  kernel (:func:`build_set_run_kernel`) and the single-access ATD
  ``observe`` (:func:`derive_observe_kernel`) are policy-independent loops
  over them.  Equivalence with the generic object-protocol paths is
  pinned by ``tests/test_cache/test_state.py`` and with the seed
  per-object implementations by
  ``tests/test_cache/test_flat_equivalence.py``.

The kernels rely on invariants the cache/ATD maintain by construction:

* a way is invalid  iff  its ``lines`` entry is ``-1``  iff  it is absent
  from the lookup dict;
* every *valid* way has been touched, so order-based policies always find
  it in their recency order;
* ``policy.reset()`` / ``TagStore.flush()`` mutate state **in place** —
  the arrays a kernel closed over stay live across flushes.
"""

from __future__ import annotations

from math import ceil
from typing import Callable, List, Optional

import numpy as np

from repro.cache.partition.base import PartitionScheme

__all__ = ["TagStore", "build_hit_kernel", "build_observe_many_kernel",
           "build_set_run_kernel", "derive_observe_kernel"]


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
# Partition binding helpers
# ----------------------------------------------------------------------
def _bind_on_fill(partition) -> Optional[Callable]:
    """Partition fill hook, or None when it is the base-class no-op."""
    if partition is None:
        return None
    if type(partition).on_fill is PartitionScheme.on_fill:
        return None
    return partition.on_fill


def _bind_reset_domain(partition) -> Optional[Callable]:
    """Partition reset-domain hook, or None when it returns None anyway."""
    if partition is None:
        return None
    if type(partition).reset_domain is PartitionScheme.reset_domain:
        return None
    return partition.reset_domain


# ----------------------------------------------------------------------
# Cache access kernels (access_line_hit specialisations)
# ----------------------------------------------------------------------
# Every kernel follows the same shape as the generic
# ``SetAssociativeCache.access_line_hit`` method:
#
#   hit  : policy touch (inlined)                                -> True
#   miss : candidate mask -> invalid way | policy victim (inlined)
#          -> evict -> install -> partition.on_fill
#          -> policy touch_fill (inlined) [-> NRU pointer rotate] -> False
#
# The policy promote may be inlined before the install/on_fill steps when
# they commute (the policy never reads tag or partition state and the
# partition never reads recency state); the *decision sequence* — victims,
# evictions, every observable counter — is identical to the seed.

def _lru_hit_kernel(cache):
    """LRU: flat MRU-first order arrays, O(1) full-mask victim."""
    policy = cache.policy
    store = cache.state
    set_mask = store.num_sets - 1
    assoc = store.assoc
    full_mask = store.full_mask
    tag_map = store.map
    tag_get = tag_map.get
    lines = store.lines
    invalid = store.invalid
    order = policy._order
    order_index = order.index
    size = policy._size
    present = policy._present
    stats = cache.stats
    accesses = stats.accesses
    misses = stats.misses
    fills_invalid = stats.fills_invalid
    partition = cache.partition

    if partition is None:
        end_ofs = assoc
        def access_line_hit(line, core=0):
            accesses[core] += 1
            way = tag_get(line)
            s = line & set_mask
            base = s * assoc
            if way is not None:
                # A present way occurs exactly once, in the live prefix of
                # the segment, and list.index returns the first match — so
                # the search may run to the segment end without reading
                # _size (stale slots beyond the prefix come later).
                pos = order_index(way, base, base + end_ofs)
                if pos != base:
                    order[base + 1:pos + 1] = order[base:pos]
                    order[base] = way
                return True
            misses[core] += 1
            inv = invalid[s]
            if inv:
                way = (inv & -inv).bit_length() - 1
                invalid[s] = inv & ~(1 << way)
                fills_invalid[core] += 1
                sz = size[s]
                order[base + 1:base + sz + 1] = order[base:base + sz]
                order[base] = way
                size[s] = sz + 1
                present[s] |= 1 << way
            else:
                i = base + assoc - 1
                way = order[i]
                del tag_map[lines[base + way]]
                order[base + 1:i + 1] = order[base:i]
                order[base] = way
            lines[base + way] = line
            tag_map[line] = way
            return False

        return access_line_hit

    get_mask = partition.candidate_mask
    on_fill = _bind_on_fill(partition)

    def access_line_hit(line, core=0):
        accesses[core] += 1
        way = tag_get(line)
        s = line & set_mask
        base = s * assoc
        if way is not None:
            pos = order_index(way, base, base + size[s])
            if pos != base:
                order[base + 1:pos + 1] = order[base:pos]
                order[base] = way
            return True
        misses[core] += 1
        mask = get_mask(s, core)
        inv = invalid[s] & mask
        if inv:
            way = (inv & -inv).bit_length() - 1
            invalid[s] &= ~(1 << way)
            fills_invalid[core] += 1
            sz = size[s]
            order[base + 1:base + sz + 1] = order[base:base + sz]
            order[base] = way
            size[s] = sz + 1
            present[s] |= 1 << way
        else:
            i = base + size[s] - 1
            way = order[i]
            while not (mask >> way) & 1:
                i -= 1
                way = order[i]
            del tag_map[lines[base + way]]
            if i != base:
                order[base + 1:i + 1] = order[base:i]
                order[base] = way
        lines[base + way] = line
        tag_map[line] = way
        if on_fill is not None:
            on_fill(s, way, core)
        return False

    return access_line_hit


def _nru_hit_kernel(cache):
    """NRU: used-bit set/reset and the rotating global pointer, inline."""
    policy = cache.policy
    store = cache.state
    set_mask = store.num_sets - 1
    assoc = store.assoc
    full_mask = store.full_mask
    tag_map = store.map
    tag_get = tag_map.get
    lines = store.lines
    invalid = store.invalid
    used_l = policy._used
    pointer = policy._pointer_box
    stats = cache.stats
    accesses = stats.accesses
    misses = stats.misses
    fills_invalid = stats.fills_invalid
    partition = cache.partition

    if partition is None:
        # Unpartitioned: the reset domain is always the whole set, so the
        # used-bit rule collapses to "reset to just this bit on saturation".
        def access_line_hit(line, core=0):
            accesses[core] += 1
            way = tag_get(line)
            s = line & set_mask
            if way is not None:
                bit = 1 << way
                used = used_l[s] | bit
                used_l[s] = bit if used == full_mask else used
                return True
            misses[core] += 1
            base = s * assoc
            inv = invalid[s]
            if inv:
                way = (inv & -inv).bit_length() - 1
                invalid[s] = inv & ~(1 << way)
                fills_invalid[core] += 1
                used = used_l[s]
            else:
                used = used_l[s]
                if used == full_mask:
                    used = 0
                # First free way cyclically from the pointer (identical to
                # the seed's walk: wrap to the lowest free way overall).
                hi = (full_mask & ~used) >> pointer[0]
                if hi:
                    way = pointer[0] + (hi & -hi).bit_length() - 1
                else:
                    free = full_mask & ~used
                    way = (free & -free).bit_length() - 1
                del tag_map[lines[base + way]]
            lines[base + way] = line
            tag_map[line] = way
            bit = 1 << way
            used |= bit
            used_l[s] = bit if used == full_mask else used
            p = pointer[0] + 1
            pointer[0] = p if p < assoc else 0
            return False

        return access_line_hit

    get_mask = partition.candidate_mask
    get_domain = _bind_reset_domain(partition)
    on_fill = _bind_on_fill(partition)

    def access_line_hit(line, core=0):
        accesses[core] += 1
        way = tag_get(line)
        s = line & set_mask
        if way is not None:
            if get_domain is None:
                domain = full_mask
            else:
                domain = get_domain(core)
                if domain is None:
                    domain = full_mask
            used = used_l[s] | (1 << way)
            if domain and (used & domain) == domain:
                used &= ~domain
                used |= 1 << way
            used_l[s] = used
            return True
        misses[core] += 1
        base = s * assoc
        mask = get_mask(s, core)
        inv = invalid[s] & mask
        if inv:
            way = (inv & -inv).bit_length() - 1
            invalid[s] &= ~(1 << way)
            fills_invalid[core] += 1
        else:
            used = used_l[s]
            if (used & mask) == mask:
                used &= ~mask
                used_l[s] = used
            # First used-bit-clear candidate cyclically from the pointer
            # (identical to the seed's bounded walk).
            free = mask & ~used
            hi = free >> pointer[0]
            if hi:
                way = pointer[0] + (hi & -hi).bit_length() - 1
            else:
                way = (free & -free).bit_length() - 1
            del tag_map[lines[base + way]]
        lines[base + way] = line
        tag_map[line] = way
        if on_fill is not None:
            on_fill(s, way, core)
        # touch_fill == touch for NRU, then the global pointer rotates.
        if get_domain is None:
            domain = full_mask
        else:
            domain = get_domain(core)
            if domain is None:
                domain = full_mask
        used = used_l[s] | (1 << way)
        if domain and (used & domain) == domain:
            used &= ~domain
            used |= 1 << way
        used_l[s] = used
        p = pointer[0] + 1
        pointer[0] = p if p < assoc else 0
        return False

    return access_line_hit


def _bt_hit_kernel(cache):
    """BT: O(1) integer-mask promote; table-driven victim traversal."""
    policy = cache.policy
    store = cache.state
    set_mask = store.num_sets - 1
    assoc = store.assoc
    full_mask = store.full_mask
    tag_map = store.map
    tag_get = tag_map.get
    lines = store.lines
    invalid = store.invalid
    tree = policy._tree
    keep = policy._touch_keep
    setb = policy._touch_set
    table = policy._victim_table
    force_map = policy._force
    victim = policy.victim
    stats = cache.stats
    accesses = stats.accesses
    misses = stats.misses
    fills_invalid = stats.fills_invalid
    partition = cache.partition
    get_mask = partition.candidate_mask if partition is not None else None
    on_fill = _bind_on_fill(partition)

    def access_line_hit(line, core=0):
        accesses[core] += 1
        way = tag_get(line)
        s = line & set_mask
        if way is not None:
            tree[s] = (tree[s] & keep[way]) | setb[way]
            return True
        misses[core] += 1
        base = s * assoc
        mask = full_mask if get_mask is None else get_mask(s, core)
        inv = invalid[s] & mask
        if inv:
            way = (inv & -inv).bit_length() - 1
            invalid[s] &= ~(1 << way)
            fills_invalid[core] += 1
        else:
            if force_map or table is None:
                way = victim(s, core, mask)
            else:
                way = table[tree[s]]
            # The BT traversal ignores the candidate mask (enforcement is
            # the force vectors), so the victim can land on an invalid way
            # *outside* the mask — fill it rather than evict.
            old = lines[base + way]
            if old >= 0:
                del tag_map[old]
            else:
                invalid[s] &= ~(1 << way)
                fills_invalid[core] += 1
        lines[base + way] = line
        tag_map[line] = way
        if on_fill is not None:
            on_fill(s, way, core)
        tree[s] = (tree[s] & keep[way]) | setb[way]
        return False

    return access_line_hit


_HIT_KERNELS = {
    "lru": _lru_hit_kernel,
    "nru": _nru_hit_kernel,
    "bt": _bt_hit_kernel,
}


def build_hit_kernel(cache) -> Optional[Callable]:
    """Specialised ``access_line_hit`` for the cache's policy, or None.

    Policies advertise their state layout through ``kernel_kind``; an empty
    kind (e.g. a user subclass that changes semantics) falls back to the
    generic object-protocol path.
    """
    factory = _HIT_KERNELS.get(getattr(cache.policy, "kernel_kind", ""))
    return None if factory is None else factory(cache)


# ----------------------------------------------------------------------
# Window kernel (whole-window batched access_line_hit)
# ----------------------------------------------------------------------
# A window kernel drains a whole inter-boundary window of the L2 miss
# stream in one call: ``kernel(lines, flags)`` replays ``lines`` — line
# addresses in trace order — writing 1 into the caller-supplied zeroed
# byte buffer at each hit position.  Replay order is trace order.
#
# The python window kernel is *derived*, not written per policy: one loop
# over the cache's bound ``access_line_hit`` (the scalar hit kernel above,
# or the generic object-protocol method for a policy without one), so a
# policy's window transitions are its scalar transitions by construction.
# The numpy whole-run kernels in :mod:`repro.cache.kernels.array` carry
# the shipped single-thread jobs; this loop is their semantic baseline
# and the path for every (policy, partition) outside their eligibility.

def build_set_run_kernel(cache, core: int = 0) -> Callable:
    """Batched whole-window ``access_line_hit`` for ``cache``.

    Returns ``kernel(lines, flags)`` — ``lines`` a list of line addresses
    in access order, ``flags`` a zeroed writable byte buffer with one
    slot per access, set to 1 on hits.  Every access is attributed to
    ``core`` (statistics, candidate masks, partition hooks, RNG draws);
    the engines only use it for single-core simulations, core 0.
    """
    step = cache.access_line_hit

    def run_window(lines, flags):
        pos = 0
        for line in lines:
            if step(line, core):
                flags[pos] = 1
            pos += 1

    return run_window


# ----------------------------------------------------------------------
# ATD observe kernels
# ----------------------------------------------------------------------
# Same discipline as the cache kernels: the sampled path inlines the
# profiler's interpretation of the flat policy state (the paper's exact /
# estimated stack distances) followed by the policy promote, the miss path
# the fill.  The ATD always runs full-mask, single-core, no partition.
# The sampled/skipped counters are a 2-slot list (``atd._counts``) so the
# kernels bump them as locals-bound list writes.
#
# The per-policy transition is written once, as the *batch* kernel
# ``observe_many(lines)``: it drains a buffered run of one thread's
# L2-reaching line addresses — sampling filter, SDH update, promote or
# fill per line — with the per-call overhead (argument parsing, closure
# entry) amortised over the whole buffer.  The execution engines buffer
# each thread's stream and drain at controller boundaries / run end, which
# is exact because ATD state is a pure function of the *own-thread* stream
# prefix and is only read at those drain points (see
# ``docs/architecture.md`` for the full argument).  The single-access
# ``observe`` of a kernelised ATD is derived from it — a one-line batch
# behind the sampling filter — so the two cannot drift apart; equivalence
# with the generic object-protocol path is pinned by
# ``tests/test_cmp/test_solo_engine.py`` and
# ``tests/test_profiling/test_atd.py``.

def _atd_common(atd):
    store = atd.state
    return (store.map, store.lines, store.invalid, atd._counts,
            atd._l2_set_mask, atd._skip_mask,
            atd.sampling.bit_length() - 1, atd.assoc,
            atd.sdh._r, atd.assoc + 1)


def _lru_observe_many_kernel(atd):
    """Exact stack positions read straight off the flat recency order."""
    (tag_map, lines, invalid, counts, l2_set_mask, skip_mask, set_shift,
     assoc, sdh_r, miss_reg) = _atd_common(atd)
    policy = atd.policy
    order = policy._order
    order_index = order.index
    size = policy._size
    present = policy._present
    tag_get = tag_map.get

    def observe_many(batch):
        sampled = 0
        skipped = 0
        for line in batch:
            if line & skip_mask:
                skipped += 1
                continue
            sampled += 1
            way = tag_get(line)
            s = (line & l2_set_mask) >> set_shift
            base = s * assoc
            if way is not None:
                # Profiler first (pre-access state), then promote: the
                # stack position is the way's index in the MRU-first order.
                pos = order_index(way, base, base + size[s])
                sdh_r[pos - base + 1] += 1
                if pos != base:
                    order[base + 1:pos + 1] = order[base:pos]
                    order[base] = way
                continue
            sdh_r[miss_reg] += 1
            inv = invalid[s]
            if inv:
                way = (inv & -inv).bit_length() - 1
                invalid[s] = inv & ~(1 << way)
                sz = size[s]
                order[base + 1:base + sz + 1] = order[base:base + sz]
                order[base] = way
                size[s] = sz + 1
                present[s] |= 1 << way
            else:
                i = base + assoc - 1
                way = order[i]
                old = lines[base + way]
                if old >= 0:
                    del tag_map[old]
                order[base + 1:i + 1] = order[base:i]
                order[base] = way
            lines[base + way] = line
            tag_map[line] = way
        counts[0] += sampled
        counts[1] += skipped

    return observe_many


def _nru_observe_many_kernel(atd):
    """The paper's eSDH estimate from the flat used-bit masks (§III-A)."""
    profiler = atd.profiler
    if profiler.spread_update:
        return None            # literal-reading ablation: generic path
    (tag_map, lines, invalid, counts, l2_set_mask, skip_mask, set_shift,
     assoc, sdh_r, miss_reg) = _atd_common(atd)
    policy = atd.policy
    used_l = policy._used
    pointer = policy._pointer_box
    full_mask = policy.full_mask
    scaling = profiler.scaling
    exact_scaling = scaling == 1.0
    tag_get = tag_map.get
    ceil_fn = ceil

    def observe_many(batch):
        sampled = 0
        skipped = 0
        for line in batch:
            if line & skip_mask:
                skipped += 1
                continue
            sampled += 1
            way = tag_get(line)
            s = (line & l2_set_mask) >> set_shift
            if way is not None:
                used = used_l[s]
                if (used >> way) & 1:
                    # d = ceil(S * U), U counting the accessed line (its
                    # used bit is already 1 here); hits on a clear used
                    # bit skip the SDH update (constant-offset argument,
                    # §III-A).
                    if exact_scaling:
                        distance = used.bit_count()
                    else:
                        distance = ceil_fn(scaling * used.bit_count())
                        if distance < 1:
                            distance = 1
                    sdh_r[distance] += 1
                used |= 1 << way
                used_l[s] = (1 << way) if used == full_mask else used
                continue
            sdh_r[miss_reg] += 1
            base = s * assoc
            inv = invalid[s]
            if inv:
                way = (inv & -inv).bit_length() - 1
                invalid[s] = inv & ~(1 << way)
                used = used_l[s]
            else:
                used = used_l[s]
                if used == full_mask:
                    used = 0
                hi = (full_mask & ~used) >> pointer[0]
                if hi:
                    way = pointer[0] + (hi & -hi).bit_length() - 1
                else:
                    free = full_mask & ~used
                    way = (free & -free).bit_length() - 1
                old = lines[base + way]
                if old >= 0:
                    del tag_map[old]
            lines[base + way] = line
            tag_map[line] = way
            bit = 1 << way
            used |= bit
            used_l[s] = bit if used == full_mask else used
            p = pointer[0] + 1
            pointer[0] = p if p < assoc else 0
        counts[0] += sampled
        counts[1] += skipped

    return observe_many


def _bt_observe_many_kernel(atd):
    """The paper's BT eSDH: ``d = A − (ID ⊕ path)`` off the tree masks."""
    (tag_map, lines, invalid, counts, l2_set_mask, skip_mask, set_shift,
     assoc, sdh_r, miss_reg) = _atd_common(atd)
    policy = atd.policy
    tree = policy._tree
    keep = policy._touch_keep
    setb = policy._touch_set
    path_spec = policy._path_spec
    table = policy._victim_table
    force_map = policy._force
    victim = policy.victim
    full_mask = policy.full_mask
    tag_get = tag_map.get

    def observe_many(batch):
        sampled = 0
        skipped = 0
        for line in batch:
            if line & skip_mask:
                skipped += 1
                continue
            sampled += 1
            way = tag_get(line)
            s = (line & l2_set_mask) >> set_shift
            if way is not None:
                t = tree[s]
                path = 0
                for bit_index, out_shift in path_spec[way]:
                    path |= ((t >> bit_index) & 1) << out_shift
                sdh_r[assoc - (path ^ way)] += 1
                tree[s] = (t & keep[way]) | setb[way]
                continue
            sdh_r[miss_reg] += 1
            base = s * assoc
            inv = invalid[s]
            if inv:
                way = (inv & -inv).bit_length() - 1
                invalid[s] = inv & ~(1 << way)
            else:
                if force_map or table is None:
                    way = victim(s, 0, full_mask)
                else:
                    way = table[tree[s]]
                old = lines[base + way]
                if old >= 0:
                    del tag_map[old]
            lines[base + way] = line
            tag_map[line] = way
            tree[s] = (tree[s] & keep[way]) | setb[way]
        counts[0] += sampled
        counts[1] += skipped

    return observe_many


_OBSERVE_MANY_KERNELS = {
    "lru": _lru_observe_many_kernel,
    "nru": _nru_observe_many_kernel,
    "bt": _bt_observe_many_kernel,
}


def build_observe_many_kernel(atd) -> Optional[Callable]:
    """Specialised batch ``ATD.observe_many`` for the ATD's policy, or None.

    A kernel inlines the *standard* profiler's interpretation of the flat
    state, so it only engages when the ATD runs the stock
    :class:`~repro.profiling.profilers.DistanceProfiler` for its policy —
    a custom profiler (tests, ablations) keeps the generic per-line path.
    """
    from repro.profiling.profilers import (
        BTDistanceProfiler,
        LRUDistanceProfiler,
        NRUDistanceProfiler,
    )

    expected = {"lru": LRUDistanceProfiler, "nru": NRUDistanceProfiler,
                "bt": BTDistanceProfiler}
    kind = getattr(atd.policy, "kernel_kind", "")
    if kind not in expected or type(atd.profiler) is not expected[kind]:
        return None
    return _OBSERVE_MANY_KERNELS[kind](atd)


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
