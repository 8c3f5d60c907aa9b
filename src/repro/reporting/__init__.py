"""Reproduction report subsystem: render + verify every paper artifact.

One pipeline for all of Figures 6–9 and Tables I–II::

    declare matrix  ->  campaign assemble  ->  render  ->  verify

* :mod:`.model` — pure data types (chart specs, data points, paper
  references, verdicts).  Experiment modules import *only* this module,
  which is why it must stay free of ``repro`` imports.
* :mod:`.svg` — stdlib-only SVG renderers for the chart specs (no
  matplotlib anywhere in the repo).
* :mod:`.sections` — the one name -> figure/table registry: a spec per
  artefact turns results into structured tables + charts + graded points,
  for the serial verbs, ``campaign run`` and the report alike.
* :mod:`.build` — the campaign-store adapter (cache hits, ``--jobs N``)
  and the run→build manifest handoff.
* :mod:`.emit` — ``report.html`` / ``report.md`` / ``report.json``.

CLI: ``python -m repro report run|build|check`` (see :mod:`repro.cli`).

Import discipline: this ``__init__`` exports only the dependency-free
model and SVG layers.  :mod:`.sections` imports the experiment modules,
which themselves import :mod:`.model` — importing sections here would
close that loop into a cycle, so builders are reached explicitly via
``from repro.reporting import sections`` (or ``.build``).
"""

from repro.reporting.model import (
    BarChart,
    DataPoint,
    LineChart,
    Reference,
    Report,
    Section,
    TableBlock,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_WARN,
    grade_points,
    relative_error,
    verdict_for,
)
from repro.reporting.svg import render_bar_chart, render_chart, render_line_chart

__all__ = [
    "BarChart",
    "DataPoint",
    "LineChart",
    "Reference",
    "Report",
    "Section",
    "TableBlock",
    "VERDICT_FAIL",
    "VERDICT_PASS",
    "VERDICT_WARN",
    "grade_points",
    "relative_error",
    "verdict_for",
    "render_bar_chart",
    "render_chart",
    "render_line_chart",
]
