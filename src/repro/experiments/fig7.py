"""Figure 7 — dynamic cache partitioning on LRU, NRU and BT.

The paper's central result: the six configurations ``C-L``, ``M-L``,
``M-1.0N``, ``M-0.75N``, ``M-0.5N`` and ``M-BT`` on 2-, 4- and 8-core CMPs,
every metric relative to the ``C-L`` baseline.  Expected shape (§V-B):

* ``M-L`` within ~0.5 % of ``C-L`` (masks ≈ counters);
* ``M-0.75N`` the best NRU point: −0.3 / −3.6 / −7.3 % throughput for
  2/4/8 cores;
* ``M-BT``: −1.4 / −3.4 / −9.7 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.campaign.jobs import Job, outcome_job
from repro.campaign.runner import run_serial
from repro.config import paper_figure7_configs
from repro.experiments.common import (
    ExperimentScale,
    RunOutcome,
    WorkloadRunner,
    geometric_mean,
)
from repro.experiments.report import fmt_rel
from repro.reporting.model import BarChart, DataPoint, Reference, TableBlock

METRICS = ("throughput", "hmean", "wspeedup")
CORE_COUNTS = (2, 4, 8)
ACRONYMS = ("C-L", "M-L", "M-1.0N", "M-0.75N", "M-0.5N", "M-BT")

#: Paper's quoted throughput degradations vs C-L (EXPERIMENTS.md record).
PAPER_REL_THROUGHPUT = {
    "M-0.75N": {2: 0.997, 4: 0.964, 8: 0.927},
    "M-BT": {2: 0.986, 4: 0.966, 8: 0.903},
}


@dataclass
class Fig7Data:
    """Relative metric per (metric, cores, acronym), C-L == 1.0."""

    relative: Dict[str, Dict[int, Dict[str, float]]]
    outcomes: Dict[Tuple[int, str, str], RunOutcome] = field(default_factory=dict)


def matrix(scale: ExperimentScale) -> List[Job]:
    """Figure 7's run matrix as declarative campaign jobs."""
    return [
        outcome_job(scale, mix, config)
        for cores in CORE_COUNTS
        for mix in scale.mixes_for(cores)
        for config in paper_figure7_configs()
    ]


def assemble(scale: ExperimentScale,
             results: Mapping[Job, RunOutcome]) -> Fig7Data:
    """Aggregate campaign results into :class:`Fig7Data` (same float
    operand order as the serial loop — byte-identical tables)."""
    relative: Dict[str, Dict[int, Dict[str, float]]] = {m: {} for m in METRICS}
    data = Fig7Data(relative=relative)
    configs = paper_figure7_configs()

    for cores in CORE_COUNTS:
        per_metric: Dict[str, Dict[str, List[float]]] = {
            m: {a: [] for a in ACRONYMS} for m in METRICS
        }
        for mix in scale.mixes_for(cores):
            outcomes: Dict[str, RunOutcome] = {}
            for config in configs:
                outcome = results[outcome_job(scale, mix, config)]
                outcomes[outcome.acronym] = outcome
                data.outcomes[(cores, mix, outcome.acronym)] = outcome
            base = outcomes["C-L"]
            for metric in METRICS:
                base_value = base.metric(metric)
                for acronym in ACRONYMS:
                    per_metric[metric][acronym].append(
                        outcomes[acronym].metric(metric) / base_value
                    )
        for metric in METRICS:
            relative[metric][cores] = {
                a: geometric_mean(per_metric[metric][a]) for a in ACRONYMS
            }
    return data


def references() -> List[Reference]:
    """Paper-quoted Figure 7 throughput degradations vs C-L (§V-B)."""
    refs = []
    for acronym, per_cores in PAPER_REL_THROUGHPUT.items():
        for cores, expected in per_cores.items():
            refs.append(Reference(
                point=f"fig7/throughput/{cores}c/{acronym}",
                expected=expected, rel_warn=0.02, rel_fail=0.05,
                source="§V-B",
            ))
    return refs


def points(data: Fig7Data) -> List[DataPoint]:
    """Measured values matching :func:`references`."""
    out: List[DataPoint] = []
    for acronym, per_cores in PAPER_REL_THROUGHPUT.items():
        for cores in per_cores:
            value = data.relative.get("throughput", {}).get(cores, {}).get(acronym)
            out.append(DataPoint(
                id=f"fig7/throughput/{cores}c/{acronym}",
                label=f"{acronym} relative throughput, {cores} cores",
                value=value, unit="x vs C-L",
            ))
    return out


def tables(data: Fig7Data) -> List[TableBlock]:
    """One cores × configuration grid per metric."""
    blocks = []
    for metric in METRICS:
        rows = tuple(
            (str(cores),) + tuple(fmt_rel(data.relative[metric][cores][a])
                                  for a in ACRONYMS)
            for cores in sorted(data.relative[metric])
        )
        blocks.append(TableBlock(
            title=f"Figure 7 ({metric}): partitioned configs relative to C-L",
            headers=("cores",) + ACRONYMS, rows=rows,
        ))
    return blocks


def charts(data: Fig7Data) -> List[BarChart]:
    """Grouped-bar spec per metric (cores on the x axis, one bar/config)."""
    specs = []
    for metric in METRICS:
        core_counts = sorted(data.relative[metric])
        specs.append(BarChart(
            title=f"Figure 7 ({metric}): partitioned configs vs C-L",
            groups=tuple(f"{c} cores" for c in core_counts),
            series=tuple(
                (a, tuple(data.relative[metric][c][a] for c in core_counts))
                for a in ACRONYMS
            ),
            y_label=f"{metric} vs C-L", baseline=1.0,
        ))
    return specs


def run(scale: ExperimentScale, runner: WorkloadRunner = None) -> Fig7Data:
    """Regenerate Figure 7 at the given scale (serial reference path)."""
    if runner is None:
        runner = WorkloadRunner(scale)
    return assemble(scale, run_serial(matrix(scale), runner))

