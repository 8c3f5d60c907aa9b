"""Stdlib-only SVG renderers for the reproduction report.

Renders the :class:`~repro.reporting.model.BarChart` and
:class:`~repro.reporting.model.LineChart` specs into self-contained SVG
strings — no matplotlib, no dependencies — so ``report.html`` can inline
every figure of the paper.

Output is deterministic (stable float formatting, no randomness, no
timestamps), which is what lets the test suite pin golden files
byte-for-byte (``tests/test_reporting/golden/``).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple
from xml.sax.saxutils import escape

from repro.reporting.model import BarChart, LineChart

#: Fill colors cycled across series (colorblind-safe Okabe–Ito subset).
SERIES_COLORS = ("#0072b2", "#e69f00", "#009e73", "#cc79a7",
                 "#56b4e9", "#d55e00", "#f0e442", "#999999")

_FONT = "font-family=\"Helvetica,Arial,sans-serif\""


def _fmt(value: float) -> str:
    """Stable coordinate formatting: trim trailing zeros, 2 decimals."""
    text = f"{value:.2f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


def _nice_ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi] (1/2/2.5/5 x 10^k steps)."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(1, target)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _value_span(values: Sequence[float],
                baseline: Optional[float]) -> Tuple[float, float]:
    """Padded y range covering the data (and the baseline, if any)."""
    pool = list(values) + ([baseline] if baseline is not None else [])
    lo, hi = min(pool), max(pool)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = (hi - lo) * 0.08
    lo = min(0.0, lo) if lo >= 0 and lo <= (hi - lo) * 0.5 else lo - pad
    return lo, hi + pad


class _Canvas:
    """Accumulates SVG elements with shared geometry bookkeeping."""

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self._parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        ]

    def add(self, element: str) -> None:
        self._parts.append(element)

    def text(self, x: float, y: float, content: str, size: int = 11,
             anchor: str = "start", color: str = "#333333",
             bold: bool = False) -> None:
        weight = ' font-weight="bold"' if bold else ""
        self.add(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{color}" {_FONT}{weight}>'
            f"{escape(content)}</text>"
        )

    def line(self, x1: float, y1: float, x2: float, y2: float,
             color: str = "#cccccc", width: float = 1.0,
             dash: str = "") -> None:
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.add(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"{extra}/>'
        )

    def rect(self, x: float, y: float, w: float, h: float,
             fill: str) -> None:
        self.add(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}"/>'
        )

    def render(self) -> str:
        return "\n".join(self._parts + ["</svg>"])


def _draw_frame(canvas: _Canvas, plot: Tuple[float, float, float, float],
                y_lo: float, y_hi: float, title: str, y_label: str,
                baseline: Optional[float]) -> None:
    """Title, y grid/ticks, axis frame and optional baseline rule."""
    left, top, right, bottom = plot
    canvas.text(canvas.width / 2, 18, title, size=13, anchor="middle",
                color="#111111", bold=True)
    span = y_hi - y_lo

    def y_pos(v: float) -> float:
        return bottom - (v - y_lo) / span * (bottom - top)

    for tick in _nice_ticks(y_lo, y_hi):
        y = y_pos(tick)
        canvas.line(left, y, right, y, color="#eeeeee")
        canvas.text(left - 6, y + 3.5, f"{tick:g}", size=10, anchor="end",
                    color="#666666")
    if baseline is not None and y_lo <= baseline <= y_hi:
        canvas.line(left, y_pos(baseline), right, y_pos(baseline),
                    color="#888888", dash="4,3")
    canvas.line(left, top, left, bottom, color="#333333")
    canvas.line(left, bottom, right, bottom, color="#333333")
    if y_label:
        canvas.add(
            f'<text x="14" y="{_fmt((top + bottom) / 2)}" font-size="11" '
            f'text-anchor="middle" fill="#333333" {_FONT} '
            f'transform="rotate(-90 14 {_fmt((top + bottom) / 2)})">'
            f"{escape(y_label)}</text>"
        )


def _draw_legend(canvas: _Canvas, names: Sequence[str], left: float,
                 y: float) -> None:
    x = left
    for k, name in enumerate(names):
        color = SERIES_COLORS[k % len(SERIES_COLORS)]
        canvas.rect(x, y - 9, 10, 10, fill=color)
        canvas.text(x + 14, y, name, size=10)
        x += 14 + 7 * len(name) + 18


def render_bar_chart(spec: BarChart, width: int = 640,
                     height: int = 320) -> str:
    """Render a grouped-bars spec into an SVG string."""
    if not spec.groups or not spec.series:
        raise ValueError("bar chart needs at least one group and one series")
    left, top, right, bottom = 56.0, 34.0, width - 16.0, height - 56.0
    values = [v for _, series in spec.series for v in series]
    y_lo, y_hi = _value_span(values, spec.baseline)

    canvas = _Canvas(width, height)
    _draw_frame(canvas, (left, top, right, bottom), y_lo, y_hi,
                spec.title, spec.y_label, spec.baseline)

    span = y_hi - y_lo
    n_groups, n_series = len(spec.groups), len(spec.series)
    group_w = (right - left) / n_groups
    bar_w = group_w * 0.8 / n_series

    def y_pos(v: float) -> float:
        return bottom - (v - y_lo) / span * (bottom - top)

    zero_y = y_pos(max(y_lo, min(0.0, y_hi)))
    for g, group in enumerate(spec.groups):
        cluster_left = left + g * group_w + group_w * 0.1
        for s, (name, series_values) in enumerate(spec.series):
            v = series_values[g]
            x = cluster_left + s * bar_w
            y = y_pos(v)
            top_y, h = (y, zero_y - y) if v >= 0 else (zero_y, y - zero_y)
            canvas.rect(x, top_y, bar_w * 0.92, max(h, 0.5),
                        fill=SERIES_COLORS[s % len(SERIES_COLORS)])
        canvas.text(left + g * group_w + group_w / 2, bottom + 16,
                    group, size=11, anchor="middle")
    _draw_legend(canvas, [name for name, _ in spec.series], left,
                 height - 14)
    return canvas.render()


def render_line_chart(spec: LineChart, width: int = 640,
                      height: int = 320) -> str:
    """Render a multi-series line spec into an SVG string."""
    points = [p for _, pts in spec.series for p in pts]
    if not points:
        raise ValueError("line chart needs at least one point")
    left, top, right, bottom = 56.0, 34.0, width - 16.0, height - 56.0
    xs = [p[0] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo, y_hi = _value_span([p[1] for p in points], spec.baseline)

    canvas = _Canvas(width, height)
    _draw_frame(canvas, (left, top, right, bottom), y_lo, y_hi,
                spec.title, spec.y_label, spec.baseline)

    def pos(x: float, y: float) -> Tuple[float, float]:
        px = left + (x - x_lo) / (x_hi - x_lo) * (right - left)
        py = bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - top)
        return px, py

    for tick in _nice_ticks(x_lo, x_hi):
        px = pos(tick, y_lo)[0]
        canvas.text(px, bottom + 16, f"{tick:g}", size=10, anchor="middle")
    if spec.x_label:
        canvas.text((left + right) / 2, bottom + 34, spec.x_label,
                    size=11, anchor="middle")

    for k, (name, pts) in enumerate(spec.series):
        color = SERIES_COLORS[k % len(SERIES_COLORS)]
        ordered = sorted(pts)
        path = " ".join(
            f"{'M' if i == 0 else 'L'} {_fmt(pos(x, y)[0])} "
            f"{_fmt(pos(x, y)[1])}"
            for i, (x, y) in enumerate(ordered)
        )
        if len(ordered) > 1:
            canvas.add(f'<path d="{path}" fill="none" stroke="{color}" '
                       f'stroke-width="2"/>')
        for x, y in ordered:
            px, py = pos(x, y)
            canvas.add(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" '
                       f'fill="{color}"/>')
    _draw_legend(canvas, [name for name, _ in spec.series], left,
                 height - 14)
    return canvas.render()


def render_chart(spec, width: int = 640, height: int = 320) -> str:
    """Dispatch a chart spec to the matching renderer."""
    if isinstance(spec, BarChart):
        return render_bar_chart(spec, width, height)
    if isinstance(spec, LineChart):
        return render_line_chart(spec, width, height)
    raise TypeError(f"not a chart spec: {type(spec).__name__}")
