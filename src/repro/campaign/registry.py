"""``repro campaign`` targets: the report sections plus the ``smoke`` matrix.

A target *is* a :class:`~repro.reporting.sections.SectionSpec`: the figures
and tables resolve to the report's own specs, so ``campaign run`` and the
report share one declaration per figure.  Several targets may run in one
campaign, in which case their matrices are unioned and content-hash
deduplication makes shared points (e.g. Figure 9 reusing Figure 7's runs,
Figure 8's 2 MB column overlapping Figure 7's 2-core points) simulate
exactly once.  The only target of its own is ``smoke``, the smallest
end-to-end campaign: a spec kept outside ``SECTIONS``, so it never reaches
a report.

This module imports the experiment modules, which import
:mod:`repro.campaign` for :class:`Job` — keep it out of the package
``__init__`` to avoid the cycle (see the package docstring).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.campaign.jobs import Job, outcome_job
from repro.config import config_unpartitioned
from repro.experiments.common import ExperimentScale
from repro.reporting.model import Section, TableBlock
from repro.reporting.sections import (
    SECTION_ORDER,
    SectionSpec,
    resolve_sections,
)

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


def _build_smoke(scale: ExperimentScale,
                 results: Mapping[Job, Any]) -> Section:
    rows = tuple((results[job].acronym, f"{results[job].throughput:.4f}")
                 for job in smoke_matrix(scale))
    title = f"smoke: 1-core {SMOKE_BENCHMARK}"
    return Section(name="smoke", title=title, kind="figure",
                   tables=[TableBlock(title, ("policy", "IPC"), rows)])


#: No paper value is graded on smoke: its references are ``list()``.
SMOKE = SectionSpec("smoke", smoke_matrix, _build_smoke, references=list)


def resolve_targets(names) -> List[SectionSpec]:
    """Map CLI target names (section names, ``all``, ``smoke``) to specs,
    de-duplicated in first-mention order."""
    targets: Dict[str, SectionSpec] = {}
    known = [*SECTION_ORDER, "all", SMOKE.name]
    for name in names:
        if name not in known:
            raise KeyError(f"unknown target {name!r}; known: {known}")
        found = [SMOKE] if name == SMOKE.name else resolve_sections([name])
        for spec in found:
            targets.setdefault(spec.name, spec)
    return list(targets.values())
