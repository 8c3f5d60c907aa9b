"""Replacement/partitioning logic complexity — the paper's Table I.

All quantities are closed-form in the cache associativity ``A``, the number
of cores ``N`` and the cache geometry, so this module reproduces the paper's
numbers *exactly*.  The paper's bracketed examples use a 16-way 2 MB L2 with
128 B lines, 2 cores and 47 tag bits (:data:`PAPER_TABLE1_CONFIG`).

Known discrepancy: Table I(b)'s "find LRU in
owned lines" row prints "A−1 × log2(A) (52 bits)" — the printed formula
evaluates to 60 for A = 16; we print the formula value and flag the paper's
52.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cache.geometry import CacheGeometry
from repro.util.bitops import bit_length_exact
from repro.util.validation import check_in, check_positive

_POLICIES = ("lru", "nru", "bt")
_MODES = ("none", "masks", "counters", "btvectors")


@dataclass(frozen=True)
class ReplacementComplexity:
    """Bit-cost calculator for one (policy, geometry, cores) point."""

    policy: str
    geometry: CacheGeometry
    num_cores: int

    def __post_init__(self) -> None:
        check_in("policy", self.policy, _POLICIES)
        check_positive("num_cores", self.num_cores)

    # ------------------------------------------------------------------
    @property
    def assoc(self) -> int:
        """Cache associativity ``A``."""
        return self.geometry.assoc

    @property
    def log2_assoc(self) -> int:
        """``log2 A`` (exact; the geometry guarantees a power of two)."""
        return bit_length_exact(self.geometry.assoc)

    @property
    def num_sets(self) -> int:
        """Number of cache sets ``S``."""
        return self.geometry.num_sets

    # ------------------------------------------------------------------
    # Table I(a): storage
    # ------------------------------------------------------------------
    def replacement_bits_per_set(self) -> int:
        """Per-set replacement state: LRU ``A·log2A``, NRU ``A``, BT ``A−1``."""
        if self.policy == "lru":
            return self.assoc * self.log2_assoc
        if self.policy == "nru":
            return self.assoc
        return self.assoc - 1

    def global_bits_unpartitioned(self) -> int:
        """Cache-global state without partitioning (NRU's pointer)."""
        return self.log2_assoc if self.policy == "nru" else 0

    def partition_global_bits(self, mode: str) -> int:
        """Cache-global state added by an enforcement mode."""
        check_in("mode", mode, _MODES)
        if mode == "none":
            return 0
        if mode == "masks":
            # A-bit replacement mask per core.
            return self.assoc * self.num_cores
        if mode == "btvectors":
            # log2(A) up bits + log2(A) down bits per core.
            return 2 * self.log2_assoc * self.num_cores
        return 0  # counters: all state is per set

    def partition_bits_per_set(self, mode: str) -> int:
        """Per-set state added by an enforcement mode (owner counters)."""
        check_in("mode", mode, _MODES)
        if mode == "counters":
            # A owner fields of log2(N) bits + N counters of log2(A) bits.
            return (self.assoc * bit_length_exact(self.num_cores)
                    + self.num_cores * self.log2_assoc)
        return 0

    def storage_bits_total(self, mode: str = "none") -> int:
        """Total replacement + partitioning storage of the cache."""
        per_set = self.replacement_bits_per_set() + self.partition_bits_per_set(mode)
        return (per_set * self.num_sets
                + self.global_bits_unpartitioned()
                + self.partition_global_bits(mode))

    # ------------------------------------------------------------------
    # Table I(b): bits read / updated per event
    # ------------------------------------------------------------------
    def tag_comparison_bits(self) -> int:
        """``A × tag`` bits read for the parallel tag compare."""
        return self.assoc * self.geometry.tag_bits

    def update_bits_unpartitioned(self) -> int:
        """Worst-case bits updated to maintain recency without partitioning.

        LRU: every line's ``log2A`` position (hit in the LRU position);
        NRU: ``A − 1`` used bits reset plus the ``log2A`` pointer;
        BT: the ``log2A`` bits along one path.
        """
        if self.policy == "lru":
            return self.assoc * self.log2_assoc
        if self.policy == "nru":
            return (self.assoc - 1) + self.log2_assoc
        return self.log2_assoc

    def update_bits_partitioned(self, mode: str) -> int:
        """Worst-case bits touched on a partitioned replacement."""
        check_in("mode", mode, _MODES)
        if mode == "none":
            return self.update_bits_unpartitioned()
        if self.policy == "lru":
            # Find owned lines (N×A) + find LRU among owned ((A−1)·log2A).
            return (self.num_cores * self.assoc
                    + (self.assoc - 1) * self.log2_assoc)
        if self.policy == "nru":
            # Find owned lines (N×A) + used bits (A−1) + pointer (log2A).
            return (self.num_cores * self.assoc
                    + (self.assoc - 1) + self.log2_assoc)
        # BT: ownership is implicit in the up/down vectors.
        return 3 * self.log2_assoc  # BT bits + up bits + down bits

    def data_bits(self) -> int:
        """Line payload bits moved on a hit."""
        return self.geometry.line_bytes * 8

    def profiling_read_bits(self) -> int:
        """Bits the profiling logic reads/combines per ATD access.

        LRU reads the line's ``log2A`` position; NRU counts the ``A`` used
        bits; BT XORs ``log2A`` ID bits with ``log2A`` path bits and
        subtracts two ``log2A``-bit values (Table I(b), last row).
        """
        if self.policy == "lru":
            return self.log2_assoc
        if self.policy == "nru":
            return self.assoc
        return 2 * self.log2_assoc + 2 * self.log2_assoc


#: The configuration of the paper's bracketed Table I numbers.
PAPER_TABLE1_CONFIG = dict(
    geometry=CacheGeometry(size_bytes=2 * 1024 * 1024, assoc=16, line_bytes=128),
    num_cores=2,
)


def storage_bits_table(geometry: CacheGeometry, num_cores: int) -> Dict[str, Dict[str, int]]:
    """Table I(a) as nested dicts: ``{policy: {mode: total_bits}}``.

    ``mode`` is "none" or the policy's partitioned flavour ("masks" for LRU
    and NRU, "btvectors" for BT) — the rows the paper prints.
    """
    table: Dict[str, Dict[str, int]] = {}
    for policy in _POLICIES:
        comp = ReplacementComplexity(policy, geometry, num_cores)
        part_mode = "btvectors" if policy == "bt" else "masks"
        table[policy] = {
            "none": comp.storage_bits_total("none"),
            part_mode: comp.storage_bits_total(part_mode),
        }
    return table


def event_bits_table(geometry: CacheGeometry, num_cores: int) -> Dict[str, Dict[str, int]]:
    """Table I(b) as nested dicts: ``{event: {policy: bits}}``."""
    comps = {p: ReplacementComplexity(p, geometry, num_cores) for p in _POLICIES}
    part_mode = {"lru": "masks", "nru": "masks", "bt": "btvectors"}
    return {
        "tag_comparison": {p: c.tag_comparison_bits() for p, c in comps.items()},
        "update_unpartitioned": {
            p: c.update_bits_unpartitioned() for p, c in comps.items()
        },
        "update_partitioned": {
            p: c.update_bits_partitioned(part_mode[p]) for p, c in comps.items()
        },
        "data_hit": {p: c.data_bits() for p, c in comps.items()},
        "profiling_read": {p: c.profiling_read_bits() for p, c in comps.items()},
    }
