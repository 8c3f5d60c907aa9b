"""Terminal renderers for the paper's figures: bar charts and line plots.

The experiment harness reports numbers as tables; these helpers add the
visual layer — horizontal bar charts for Figure 6/7/9-style grouped
relative values and multi-series line plots for Figure 8-style capacity
sweeps — using plain ASCII so output survives logs, CI and Markdown
code blocks.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple


def bar_chart(items: Sequence[Tuple[str, float]], width: int = 50,
              title: str = "", baseline: Optional[float] = None,
              fmt: str = "{:.3f}") -> str:
    """Horizontal bar chart.

    Parameters
    ----------
    items:
        ``(label, value)`` pairs, drawn top to bottom.
    width:
        Character budget for the longest bar.
    baseline:
        Optional reference drawn as a ``|`` marker on every row (e.g. 1.0
        for relative-to-baseline charts).
    """
    if not items:
        raise ValueError("need at least one (label, value) pair")
    if width < 8:
        raise ValueError("width must be at least 8 columns")
    values = [v for _, v in items]
    if any(v < 0 for v in values):
        raise ValueError("bar_chart draws non-negative values only")
    top = max(values + ([baseline] if baseline is not None else []))
    top = top if top > 0 else 1.0
    label_w = max(len(label) for label, _ in items)

    lines: List[str] = []
    if title:
        lines.append(title)
    marker = None
    if baseline is not None:
        # Clamp into the drawable band so a baseline at the maximum still
        # renders at the last column.
        marker = min(width - 1, int(round(baseline / top * width)))
    for label, value in items:
        filled = min(width, int(round(value / top * width)))
        bar = "#" * filled + " " * (width - filled)
        if marker is not None and marker < width:
            bar = bar[:marker] + "|" + bar[marker + 1:]
        lines.append(f"{label.ljust(label_w)} {bar} {fmt.format(value)}")
    return "\n".join(lines)


def line_plot(series: Mapping[str, Sequence[Tuple[float, float]]],
              width: int = 60, height: int = 16, title: str = "",
              x_label: str = "", y_label: str = "") -> str:
    """Multi-series scatter/line plot on a character grid.

    Each series is a list of ``(x, y)`` points; the k-th series is drawn
    with the k-th marker from ``A B C ...`` and listed in the legend.
    Points from later series overwrite earlier ones on collisions; markers
    are placed on nearest-cell positions with linear interpolation between
    consecutive points.
    """
    if not series:
        raise ValueError("need at least one series")
    if width < 10 or height < 4:
        raise ValueError("plot needs width >= 10 and height >= 4")
    points = [p for pts in series.values() for p in pts]
    if not points:
        raise ValueError("series contain no points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def cell(x: float, y: float) -> Tuple[int, int]:
        cx = int(round((x - x_lo) / (x_hi - x_lo) * (width - 1)))
        cy = int(round((y - y_lo) / (y_hi - y_lo) * (height - 1)))
        return cx, (height - 1) - cy

    grid = [[" "] * width for _ in range(height)]
    markers = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    legend: List[str] = []
    for k, (name, pts) in enumerate(series.items()):
        mark = markers[k % len(markers)]
        legend.append(f"{mark} = {name}")
        ordered = sorted(pts)
        # Interpolated path between consecutive points.
        for (x0, y0), (x1, y1) in zip(ordered, ordered[1:]):
            steps = max(2, width // max(1, len(ordered) - 1))
            for i in range(steps + 1):
                f = i / steps
                cx, cy = cell(x0 + f * (x1 - x0), y0 + f * (y1 - y0))
                if grid[cy][cx] == " ":
                    grid[cy][cx] = "."
        for x, y in ordered:
            cx, cy = cell(x, y)
            grid[cy][cx] = mark

    lines: List[str] = []
    if title:
        lines.append(title)
    top_label = f"{y_hi:g}"
    bottom_label = f"{y_lo:g}"
    pad = max(len(top_label), len(bottom_label))
    for row_index, row in enumerate(grid):
        prefix = " " * pad
        if row_index == 0:
            prefix = top_label.rjust(pad)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(pad)
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * pad + " +" + "-" * width)
    x_axis = f"{x_lo:g}".ljust(width - len(f"{x_hi:g}")) + f"{x_hi:g}"
    lines.append(" " * pad + "  " + x_axis)
    if x_label or y_label:
        lines.append(" " * pad + f"  x: {x_label}   y: {y_label}".rstrip())
    lines.append(" " * pad + "  " + "   ".join(legend))
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """One-line trend summary using block characters."""
    if not values:
        raise ValueError("need at least one value")
    blocks = " .:-=+*#%@"
    lo, hi = min(values), max(values)
    if hi == lo:
        return blocks[len(blocks) // 2] * len(values)
    scale = (len(blocks) - 1) / (hi - lo)
    return "".join(blocks[int(round((v - lo) * scale))] for v in values)
