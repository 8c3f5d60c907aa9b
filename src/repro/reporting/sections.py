"""Report sections: the one name -> figure/table registry of the repo.

A :class:`SectionSpec` couples an experiment module's job matrix with a
builder that turns campaign results (the ``{Job: RunOutcome}`` mapping a
:class:`repro.campaign.runner.Campaign` returns, or ``run_serial``, its
reference in the tests) into a :class:`~repro.reporting.model.Section`:
structured tables, SVG-able chart specs, and paper-graded data points.
Everything a section shows is declared once, in its module (``matrix`` /
``assemble`` / ``tables`` / ``charts`` / ``points`` / ``references``);
``repro campaign run`` and the report both resolve a name here and render
the same :class:`Section` — as text through :func:`section_text`, as
html/md/json through :mod:`repro.reporting.emit` — so their numbers
cannot drift apart (pinned by ``tests/test_reporting/test_identity.py``
and ``tests/test_cli.py``)::

    declare matrix -> campaign run -> assemble -> render -> verify

A new figure is one experiment module plus one row of ``SECTIONS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.campaign.jobs import Job
from repro.experiments import fig6, fig7, fig8, fig9, table1, table2
from repro.experiments.common import ExperimentScale
from repro.experiments.report import format_tables
from repro.reporting.model import (
    Reference,
    Section,
    VERDICT_PASS,
    grade_points,
)


@dataclass(frozen=True)
class SectionSpec:
    """One registered section (a figure or table of the paper)."""

    name: str
    #: Campaign job matrix at a scale (empty for the static tables).
    matrix: Callable[[ExperimentScale], List[Job]]
    #: ``(scale, results) -> Section`` — pure function of campaign results.
    build: Callable[[ExperimentScale, Mapping[Job, Any]], Section]
    #: The section's checked-in paper values.
    references: Callable[[], List[Reference]]


def _spec(name: str, title: str, kind: str, summary: str,
          module) -> SectionSpec:
    """SectionSpec over an experiment module's declared surface (pinned by
    the ``experiment-contract`` lint rule; only figures chart)."""
    def build(scale: ExperimentScale, results: Mapping[Job, Any]) -> Section:
        data = module.assemble(scale, results)
        return Section(
            name=name, title=title, kind=kind, summary=summary,
            tables=module.tables(data),
            charts=list(module.charts(data)) if kind == "figure" else [],
            points=grade_points(module.points(data), module.references()),
        )
    return SectionSpec(name, module.matrix, build, module.references)


#: Every section, in the render order of the full report.
SECTIONS: Dict[str, SectionSpec] = {
    spec.name: spec for spec in (
        _spec(
            "fig6", "Figure 6 — pseudo-LRU policies on shared caches",
            "figure",
            ("NRU and BT against LRU on non-partitioned shared L2s; the "
             "paper expects both pseudo-LRU schemes to trail LRU by a few "
             "percent at most."),
            fig6),
        _spec(
            "fig7", "Figure 7 — dynamic partitioning on pseudo-LRU",
            "figure",
            ("The central result: masks/counters enforcement with LRU, NRU "
             "and BT replacement, all metrics relative to the C-L "
             "baseline."),
            fig7),
        _spec(
            "fig8", "Figure 8 — partitioning gain vs L2 capacity",
            "figure",
            ("Partitioned vs non-partitioned throughput as the shared L2 "
             "shrinks; gains grow with contention."),
            fig8),
        _spec(
            "fig9", "Figure 9 — power and energy",
            "figure",
            ("Power/energy of every Figure 7 configuration relative to C-L "
             "plus the 2-core component breakdown; profiling must stay "
             "under 0.3% of total power."),
            fig9),
        _spec(
            "table1", "Table I — replacement scheme complexity",
            "table",
            ("Storage and event-cost arithmetic of LRU, NRU and BT at "
             "the paper's bracketed geometry; every quoted number is "
             "graded exactly."),
            table1),
        _spec(
            "table2", "Table II — processor configuration and mixes",
            "table",
            ("Baseline machine parameters and the 49 multiprogrammed "
             "mixes; configuration facts are graded exactly."),
            table2),
    )
}

SECTION_ORDER: Tuple[str, ...] = tuple(SECTIONS)


def resolve_sections(names: Sequence[str] = ()) -> List[SectionSpec]:
    """Map section names to specs (empty / ``all`` -> every section)."""
    if not names or list(names) == ["all"]:
        return list(SECTIONS.values())
    specs = []
    for name in names:
        if name not in SECTIONS:
            raise KeyError(
                f"unknown section {name!r}; known: {list(SECTION_ORDER)}"
            )
        specs.append(SECTIONS[name])
    return specs


def all_references() -> List[Reference]:
    """Every checked-in paper reference, across all sections."""
    return [ref for spec in SECTIONS.values() for ref in spec.references()]


def section_text(section: Section) -> str:
    """The command line's rendering of a section: its tables and, for the
    table sections (arithmetic and configuration, graded with zero
    tolerance), the tally of exactly reproduced paper values."""
    text = format_tables(section.tables)
    if section.kind == "table":
        ok = section.verdict_counts()[VERDICT_PASS]
        text += (f"\n\npaper checkpoints: {ok}/{len(section.points)} "
                 f"reproduced exactly")
    return text
