"""Binary Tree (BT) pseudo-LRU replacement — the IBM scheme, flat-array core.

Paper §III-B.  Each set keeps ``A − 1`` bits arranged as a complete binary
tree stored in heap order (root at index 1, children of ``i`` at ``2i`` and
``2i + 1``).  Ways are the leaves; way 0 is the "most upper" position of the
paper's figures.

Bit semantics (matching the paper's Figure 4):

* node bit = 1  -> the MRU side is the *upper* sub-tree (smaller way
  indices), so the pseudo-LRU side is the *lower* sub-tree;
* node bit = 0  -> the MRU side is the lower sub-tree; pseudo-LRU is upper.

Hence during a victim search the traversal direction bit at each node equals
the stored node bit (1 = go lower), and promoting way ``w`` to MRU writes
the *complement* of ``w``'s identifier bits along its path.

State layout: one integer per set (``_tree``, bit ``n - 1`` holding heap
node ``n``) — precisely the ``A − 1`` hardware bits as a machine word.  The
promote for way ``w`` is then two precomputed mask operations
(``tree & _touch_keep[w] | _touch_set[w]``), and the unforced victim
traversal becomes a single lookup in a per-associativity table indexed by
the whole tree word (``2^(A-1)`` entries, shared process-wide, built for
``A <= 16``).  Bit values are identical to the seed list-of-lists
representation; ``tests/test_cache/test_flat_equivalence.py`` pins the
decision sequence.

The *identifier bits* (ID) of way ``w`` — "what would be the BT bits values
if this line held the LRU position" — are simply the bits of the way index,
most significant first (the paper's Figure 4(c) decoder is this wiring).
The profiling logic XORs the ID with the actual path bits and subtracts from
``A`` to estimate the stack position (``_path_spec`` precomputes each way's
path-node bit positions so the extraction is a short shift/mask loop); see
:class:`repro.profiling.profilers.BTDistanceProfiler`.

Partition enforcement (paper Figure 5) overrides the traversal per level with
per-core ``up``/``down`` force vectors of ``log2(A)`` bits each, installed by
:class:`repro.cache.partition.btvectors.BTVectorPartition` through
:meth:`set_force`.  The vectors are kept twice: as the per-level tuples
:meth:`victim` (the hand-written oracle side) walks, and as the paper's
machine words (``_up`` / ``_down``, MSB = root level, one slot per core
a partition can have) the ``bt`` victim fragment of
:mod:`repro.cache.transitions` walks in every rendering.  Like every flat
array a kernel binds, the words, the tree and the promote masks are
``array('q')``s allocated once and mutated in place.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, List, Optional, Tuple

from repro.cache.replacement.base import ReplacementPolicy, register_policy
from repro.util.bitops import ilog2

#: Unforced-victim lookup tables keyed by associativity (shared by every
#: policy instance in the process; a 16-way table is 2^15 entries).  An
#: ``array('q')`` indexes like a list and hands its buffer to a compiled
#: event loop without a copy.
_VICTIM_TABLES: Dict[int, array] = {}

#: Largest associativity for which a full-tree victim table is built.
_MAX_TABLE_ASSOC = 16


def _traverse(tree: int, levels: int) -> int:
    """Victim way of one tree word: follow the stored bits root-down."""
    node = 1
    way = 0
    for _ in range(levels):
        direction = (tree >> (node - 1)) & 1   # 1 -> pseudo-LRU in lower
        node = (node << 1) | direction
        way = (way << 1) | direction
    return way


def _victim_table(assoc: int) -> Optional[array]:
    """``table[tree_word] -> victim way``; None above the size cut-off."""
    if assoc > _MAX_TABLE_ASSOC:
        return None
    table = _VICTIM_TABLES.get(assoc)
    if table is None:
        # :func:`_traverse` of every tree word, one leaf level at a time,
        # a byte per word.  Below a tree of ``half`` leaves (words of
        # ``half - 1`` bits, victims ``ways``) the next level's ``half``
        # bits are the word's high part, bit ``v`` under old leaf ``v``:
        # the victim ``v`` of a word becomes ``2v + bit v`` of its high
        # part, one ``bytes.translate`` per high part.
        ways, half = b"\0", 1
        while half < assoc:
            ways = b"".join(
                ways.translate(bytes(2 * v + (high >> v & 1)
                                     for v in range(half)).ljust(256, b"\0"))
                for high in range(1 << half))
            half *= 2
        table = array("q", [0]) * len(ways)
        with memoryview(table) as view, view.cast("B") as octets:
            octets[0 if sys.byteorder == "little" else 7::8] = ways
        _VICTIM_TABLES[assoc] = table
    return table


@register_policy("bt")
class BTPolicy(ReplacementPolicy):
    """Tree pseudo-LRU with optional per-core per-level forced directions."""

    def __init__(self, num_sets: int, assoc: int, rng=None) -> None:
        super().__init__(num_sets, assoc, rng=rng)
        if assoc < 2 or assoc & (assoc - 1):
            raise ValueError(f"BT requires a power-of-two associativity >= 2, got {assoc}")
        self.levels = ilog2(assoc)
        #: One tree word per set; bit ``n - 1`` is heap node ``n``.
        self._tree = array("q", [0]) * num_sets
        # Per-core forced traversal directions: core -> tuple of length
        # `levels`, entries in {0: force upper, 1: force lower, None: free}.
        # Paper: per-level `up`/`down` global vectors (up[l]=1 <=> entry 0,
        # down[l]=1 <=> entry 1, both 0 <=> None).
        self._force: Dict[int, Tuple[Optional[int], ...]] = {}
        # The same vectors as words, one slot per core a partition of
        # this cache can have (each core owns a way, so ``assoc`` slots),
        # allocated here once, and ``_walk = [traverse?]``: the victim
        # fragment walks the tree only while a vector is installed or no
        # table exists.
        self._up = array("q", [0]) * assoc
        self._down = array("q", [0]) * assoc
        self._walk = array("q", [0])
        # Precomputed per-way promote masks and path-bit extraction specs.
        keep: List[int] = []
        setb: List[int] = []
        path_spec: List[Tuple[Tuple[int, int], ...]] = []
        for way in range(assoc):
            clear = 0
            ones = 0
            spec = []
            node = 1
            for level in range(self.levels - 1, -1, -1):
                direction = (way >> level) & 1     # 0 = upper, 1 = lower
                bit = 1 << (node - 1)
                clear |= bit
                if direction == 0:                 # store 1 <=> MRU in upper
                    ones |= bit
                spec.append((node - 1, level))     # path bit -> output shift
                node = (node << 1) | direction
            keep.append(~clear)
            setb.append(ones)
            path_spec.append(tuple(spec))
        self._touch_keep = array("q", keep)
        self._touch_set = array("q", setb)
        self._path_spec: List[Tuple[Tuple[int, int], ...]] = path_spec
        self._victim_table = _victim_table(assoc)
        self._walk[0] = int(self._victim_table is None)

    # ------------------------------------------------------------------
    def touch(self, set_index: int, way: int, core: int,
              reset_domain: Optional[int] = None) -> None:
        # Promote `way` to MRU: at each node of its path store the bit that
        # points the MRU side toward `way` (complement of the ID bit).
        self._tree[set_index] = ((self._tree[set_index]
                                  & self._touch_keep[way])
                                 | self._touch_set[way])

    def victim(self, set_index: int, core: int, mask: int) -> int:
        if mask == 0:
            raise ValueError("victim mask must be nonzero")
        force = self._force.get(core)
        tree = self._tree[set_index]
        if force is None:
            table = self._victim_table
            if table is not None:
                return table[tree]
            return _traverse(tree, self.levels)
        node = 1
        way = 0
        for level_index in range(self.levels):
            forced = force[level_index]
            direction = ((tree >> (node - 1)) & 1 if forced is None
                         else forced)
            node = (node << 1) | direction
            way = (way << 1) | direction
        return way

    def reset(self) -> None:
        self._tree[:] = array("q", [0]) * self.num_sets
        self._force.clear()
        self._up[:] = self._down[:] = array("q", [0]) * self.assoc
        self._walk[0] = int(self._victim_table is None)

    # ------------------------------------------------------------------
    # Partition enforcement support (paper Figure 5)
    # ------------------------------------------------------------------
    def set_force(self, core: int,
                  force: Optional[Tuple[Optional[int], ...]]) -> None:
        """Install the per-level forced directions for ``core``.

        ``force`` is a tuple of ``levels`` entries: ``0`` forces the upper
        sub-tree (the paper's ``up`` vector bit), ``1`` forces the lower
        sub-tree (``down`` bit), ``None`` leaves the stored BT bit in charge.
        ``None`` for the whole argument removes any forcing.  ``core`` is
        below ``assoc``: a partition gives every core a way.
        """
        if not 0 <= core < self.assoc:
            raise ValueError(f"core {core} out of range 0..{self.assoc - 1}")
        if force is None:
            self._force.pop(core, None)
            self._set_words(core, 0, 0)
            return
        if len(force) != self.levels:
            raise ValueError(
                f"force vector must have {self.levels} entries, got {len(force)}"
            )
        self._force[core] = tuple(force)
        up = down = 0
        for level_index, forced in enumerate(force):
            bit = 1 << (self.levels - 1 - level_index)
            if forced == 0:
                up |= bit
            elif forced == 1:
                down |= bit
        self._set_words(core, up, down)

    def _set_words(self, core: int, up: int, down: int) -> None:
        self._up[core] = up
        self._down[core] = down
        self._walk[0] = int(self._victim_table is None
                            or any(self._up) or any(self._down))

    def get_force(self, core: int) -> Optional[Tuple[Optional[int], ...]]:
        """Current forced directions for ``core`` (None when unrestricted)."""
        return self._force.get(core)

    # ------------------------------------------------------------------
    # Profiling support (paper §III-B)
    # ------------------------------------------------------------------
    def path_bits(self, set_index: int, way: int) -> int:
        """Actual BT bits along the path to ``way``, MSB (root) first.

        Read *before* :meth:`touch` promotes the line.
        """
        self._check_way(way)
        tree = self._tree[set_index]
        value = 0
        for bit_index, out_shift in self._path_spec[way]:
            value |= ((tree >> bit_index) & 1) << out_shift
        return value

    def id_bits(self, way: int) -> int:
        """Identifier bits of ``way`` — its index bits, MSB first.

        These are "the BT bits values if a given line held the LRU position"
        (paper Figure 4(b)); the decoder of Figure 4(c) is the identity
        wiring on the way-number bits.
        """
        self._check_way(way)
        return way

    def state_bits_per_set(self) -> int:
        """``A − 1`` tree bits per set (paper Table I(a))."""
        return self.assoc - 1
