"""ASCII reporting helpers for the experiment harness and benches."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Fixed-width ASCII table."""
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_tables(blocks: Iterable) -> str:
    """Every ``TableBlock`` of a section as ASCII, blank-line separated —
    the one text rendering behind the serial verbs, ``campaign run`` and
    the benches (the report's emitters render the same blocks)."""
    return "\n\n".join(
        format_table(block.headers, block.rows, title=block.title)
        for block in blocks
    )


def fmt_rel(value: float) -> str:
    """Format a relative value the way the paper's y-axes read (0.973)."""
    return f"{value:.3f}"
