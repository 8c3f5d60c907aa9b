"""``repro campaign`` targets: the report sections plus the ``smoke`` matrix.

Figures and tables are not registered here — a campaign target *is* a
section of :mod:`repro.reporting.sections` (its job matrix, and its tables
rendered as text), so ``campaign run``, the serial verbs and the report
share one declaration per figure.  Several targets may run in one campaign,
in which case their matrices are unioned and content-hash deduplication
makes shared points (e.g. Figure 9 reusing Figure 7's runs, Figure 8's
2 MB column overlapping Figure 7's 2-core points) simulate exactly once.
The only target of its own is ``smoke``, the smallest end-to-end campaign.

This module imports the experiment modules, which import
:mod:`repro.campaign` for :class:`Job` — keep it out of the package
``__init__`` to avoid the cycle (see the package docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping

from repro.campaign.jobs import Job, outcome_job
from repro.config import config_unpartitioned
from repro.experiments.common import ExperimentScale
from repro.experiments.report import format_table
from repro.reporting.sections import (
    SECTION_ORDER,
    SectionSpec,
    resolve_sections,
    section_text,
)


@dataclass(frozen=True)
class CampaignTarget:
    """One runnable campaign target (a report section or ``smoke``)."""

    name: str
    matrix: Callable[[ExperimentScale], List[Job]]
    render: Callable[[ExperimentScale, Mapping[Job, Any]], str]


def _section_target(spec: SectionSpec) -> CampaignTarget:
    return CampaignTarget(
        spec.name, spec.matrix,
        lambda scale, results: section_text(spec.build(scale, results)))


# ----------------------------------------------------------------------
# Smoke target: the smallest end-to-end campaign (CI uses it)
# ----------------------------------------------------------------------
#: The two policies of the smoke matrix (1-core crafty, LRU vs NRU).
SMOKE_BENCHMARK = "crafty"
SMOKE_POLICIES = ("lru", "nru")


def smoke_matrix(scale: ExperimentScale) -> List[Job]:
    """A deliberately tiny 2-job matrix exercising the full pipeline."""
    return [
        outcome_job(scale, SMOKE_BENCHMARK, config_unpartitioned(policy),
                    benchmarks=(SMOKE_BENCHMARK,))
        for policy in SMOKE_POLICIES
    ]


def _render_smoke(scale: ExperimentScale, results: Mapping[Job, Any]) -> str:
    rows = []
    for job in smoke_matrix(scale):
        outcome = results[job]
        rows.append([outcome.acronym, f"{outcome.throughput:.4f}"])
    return format_table(["policy", "IPC"], rows,
                        title=f"smoke: 1-core {SMOKE_BENCHMARK}")


SMOKE = CampaignTarget("smoke", smoke_matrix, _render_smoke)


def resolve_targets(names) -> List[CampaignTarget]:
    """Map CLI target names (section names, ``all``, ``smoke``) to targets,
    de-duplicated in first-mention order."""
    targets: Dict[str, CampaignTarget] = {}
    known = [*SECTION_ORDER, "all", SMOKE.name]
    for name in names:
        if name not in known:
            raise KeyError(f"unknown target {name!r}; known: {known}")
        found = ([SMOKE] if name == SMOKE.name else
                 [_section_target(spec) for spec in resolve_sections([name])])
        for target in found:
            targets.setdefault(target.name, target)
    return list(targets.values())
