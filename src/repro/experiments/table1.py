"""Table I — complexity of the LRU, NRU and BT replacement schemes.

Pure arithmetic over the paper's bracketed configuration (16-way 2 MB L2
with 128 B lines, 2 cores, 47 tag bits); the numbers reproduce the paper
exactly (one flagged inconsistency — see
:mod:`repro.hwmodel.complexity`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cache.geometry import CacheGeometry
from repro.hwmodel.area import format_area
from repro.hwmodel.complexity import (
    ReplacementComplexity,
    event_bits_table,
    storage_bits_table,
)
from repro.reporting.model import DataPoint, Reference, TableBlock

PAPER_GEOMETRY = CacheGeometry(size_bytes=2 * 1024 * 1024, assoc=16,
                               line_bytes=128)
PAPER_CORES = 2


@dataclass
class Table1Data:
    """Table I's storage-bit and event-bit counts (exact arithmetic)."""

    storage: Dict[str, Dict[str, int]]
    events: Dict[str, Dict[str, int]]


def policy_state_bits(geometry: CacheGeometry = PAPER_GEOMETRY):
    """Replacement-state storage for **every** registered policy.

    The paper's hardware-cost argument (Table I(a)) compares LRU, NRU and
    BT; this extends the same accounting to the extension policies so the
    report can rank them all.  Returns a list of dicts with ``policy``,
    ``per_set`` (bits per set, :meth:`ReplacementPolicy.state_bits_per_set`),
    ``per_cache`` (state shared by all sets: the NRU pointer, DIP's PSEL)
    and ``total`` (``per_set × num_sets + per_cache``), sorted by total.
    """
    from repro.cache.replacement.base import POLICY_REGISTRY, make_policy

    rows = []
    for name in sorted(POLICY_REGISTRY):
        policy = make_policy(name, geometry.num_sets, geometry.assoc)
        per_set = policy.state_bits_per_set()
        per_cache = 0
        if hasattr(policy, "pointer_bits"):
            per_cache += policy.pointer_bits()
        if hasattr(policy, "monitor_bits"):
            per_cache += policy.monitor_bits()
        rows.append({
            "policy": name,
            "per_set": per_set,
            "per_cache": per_cache,
            "total": per_set * geometry.num_sets + per_cache,
        })
    rows.sort(key=lambda r: (r["total"], r["policy"]))
    return rows


def _storage(comp: ReplacementComplexity) -> int:
    return comp.storage_bits_total("none")


#: (point suffix, label, expected bits, policy, getter) — the exact
#: quantities Table I states and where the model computes each; the report
#: and ``repro campaign run table1`` grade them with zero tolerance (pure
#: arithmetic).
_PAPER_BITS = (
    ("storage_bits/lru", "LRU replacement storage", 8 * 8 * 1024,
     "lru", _storage),
    ("storage_bits/nru", "NRU replacement storage (incl. pointer)",
     2 * 8 * 1024 + 4, "nru", _storage),
    ("storage_bits/bt", "BT replacement storage", int(1.875 * 8 * 1024),
     "bt", _storage),
    ("tag_compare_bits", "tag comparison per lookup", 752,
     "lru", ReplacementComplexity.tag_comparison_bits),
    ("update_bits/lru", "LRU update per hit", 64,
     "lru", ReplacementComplexity.update_bits_unpartitioned),
    ("update_bits/nru", "NRU update per hit", 19,
     "nru", ReplacementComplexity.update_bits_unpartitioned),
    ("update_bits/bt", "BT update per hit", 4,
     "bt", ReplacementComplexity.update_bits_unpartitioned),
    ("data_hit_bits", "data bits per hit", 1024,
     "lru", ReplacementComplexity.data_bits),
    ("profiling_read_bits/lru", "LRU profiling read", 4,
     "lru", ReplacementComplexity.profiling_read_bits),
    ("profiling_read_bits/nru", "NRU profiling read", 16,
     "nru", ReplacementComplexity.profiling_read_bits),
    ("profiling_read_bits/bt", "BT profiling read", 16,
     "bt", ReplacementComplexity.profiling_read_bits),
)


def matrix(scale=None) -> list:
    """Table I's campaign matrix: empty — it is closed-form arithmetic.

    Declared anyway so the section registry treats the tables uniformly
    with the figures (zero simulation jobs, render-only).
    """
    return []


def assemble(scale, results) -> Table1Data:
    """Table I's data at the paper geometry (no campaign results needed)."""
    return Table1Data(
        storage=storage_bits_table(PAPER_GEOMETRY, PAPER_CORES),
        events=event_bits_table(PAPER_GEOMETRY, PAPER_CORES),
    )


def references() -> List[Reference]:
    """Table I's quoted numbers, graded exactly (zero tolerance)."""
    return [
        Reference(point=f"table1/{suffix}", expected=float(expected),
                  rel_warn=0.0, rel_fail=0.0, source="Table I")
        for suffix, _, expected, _, _ in _PAPER_BITS
    ]


def points(data: Table1Data = None) -> List[DataPoint]:
    """Computed Table I quantities matching :func:`references`.

    ``data`` is accepted for builder uniformity but unused — the values
    are closed-form arithmetic over the paper geometry.
    """
    comp = {p: ReplacementComplexity(p, PAPER_GEOMETRY, PAPER_CORES)
            for p in ("lru", "nru", "bt")}
    return [
        DataPoint(id=f"table1/{suffix}", label=label,
                  value=float(getter(comp[policy])), unit="bits")
        for suffix, label, _, policy, getter in _PAPER_BITS
    ]


def tables(data: Table1Data) -> List[TableBlock]:
    """Table I(a), Table I(b) and the all-registered-policies extension."""
    storage_rows = tuple(
        (policy.upper(), mode, str(bits), format_area(bits))
        for policy, modes in data.storage.items()
        for mode, bits in modes.items()
    )
    event_rows = tuple(
        (event,) + tuple(str(per_policy[p]) for p in ("lru", "nru", "bt"))
        for event, per_policy in data.events.items()
    )
    state_rows = tuple(
        (row["policy"], str(row["per_set"]), str(row["per_cache"]),
         str(row["total"]), format_area(row["total"]))
        for row in policy_state_bits()
    )
    return [
        TableBlock(
            title=("Table I(a): replacement + partitioning storage "
                   f"({PAPER_GEOMETRY}, {PAPER_CORES} cores)"),
            headers=("policy", "partitioning", "bits", "area"),
            rows=storage_rows,
        ),
        TableBlock(
            title="Table I(b): bits read/updated per event",
            headers=("event (bits touched)", "LRU", "NRU", "BT"),
            rows=event_rows,
        ),
        TableBlock(
            title=("Replacement state storage, all registered policies "
                   f"({PAPER_GEOMETRY}; per-cache = NRU pointer / "
                   "DIP PSEL)"),
            headers=("policy", "bits/set", "per-cache bits", "total bits",
                     "area"),
            rows=state_rows,
        ),
    ]
