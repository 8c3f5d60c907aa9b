"""Table II — baseline processor configuration and workload list."""

from __future__ import annotations

from typing import List

from repro.config import ProcessorConfig
from repro.reporting.model import DataPoint, Reference, TableBlock
from repro.workloads.mixes import WORKLOADS_2T, WORKLOADS_4T, WORKLOADS_8T


def matrix(scale=None) -> list:
    """Table II's campaign matrix: empty — it lists static configuration.

    Declared so the section registry treats the tables uniformly with the
    figures (zero simulation jobs, render-only).
    """
    return []


def assemble(scale, results) -> None:
    """Table II has no data object: everything it shows is configuration."""
    return None


#: (point suffix, label, getter, expected) — the Table II facts the
#: report verifies exactly against the paper.
def _facts():
    proc = ProcessorConfig()
    mixes = len(WORKLOADS_2T) + len(WORKLOADS_4T) + len(WORKLOADS_8T)
    return (
        ("l2_bytes", "shared L2 capacity", float(proc.l2.size_bytes),
         float(2 * 1024 * 1024)),
        ("l2_assoc", "shared L2 associativity", float(proc.l2.assoc), 16.0),
        ("line_bytes", "cache line size", float(proc.l2.line_bytes), 128.0),
        ("l2_hit_penalty", "L2 hit penalty (cycles)",
         float(proc.l2_hit_penalty), 11.0),
        ("memory_penalty", "memory penalty (cycles)",
         float(proc.memory_penalty), 250.0),
        ("num_mixes", "multiprogrammed mixes", float(mixes), 49.0),
    )


def references() -> List[Reference]:
    """Table II's stated configuration, graded exactly."""
    return [
        Reference(point=f"table2/{suffix}", expected=expected,
                  rel_warn=0.0, rel_fail=0.0, source="Table II")
        for suffix, _, _, expected in _facts()
    ]


def points(data=None) -> List[DataPoint]:
    """Configured Table II values matching :func:`references`."""
    return [
        DataPoint(id=f"table2/{suffix}", label=label, value=value)
        for suffix, label, value, _ in _facts()
    ]


def tables(data=None) -> List[TableBlock]:
    """The baseline processor (left half) and the 49 mixes (right half)."""
    proc = ProcessorConfig()
    processor = TableBlock(
        title="Table II (left): baseline processor",
        headers=("component", "configuration"),
        rows=(
            ("L1 I-cache", str(proc.l1i)),
            ("L1 D-cache", str(proc.l1d)),
            ("L2 (shared)", str(proc.l2)),
            ("L2 hit penalty", f"{proc.l2_hit_penalty} cycles"),
            ("Memory penalty", f"{proc.memory_penalty} cycles"),
        ),
    )
    mix_rows = tuple(
        (name, ", ".join(table[name]))
        for table in (WORKLOADS_2T, WORKLOADS_4T, WORKLOADS_8T)
        for name in sorted(table)
    )
    mixes = TableBlock(
        title="Table II (right): 49 multiprogrammed mixes",
        headers=("workload", "benchmarks"), rows=mix_rows,
    )
    return [processor, mixes]
