"""Figure 6 — pseudo-LRU schemes on non-partitioned caches.

The paper compares NRU and BT against LRU on unpartitioned shared L2s for
1-, 2-, 4- and 8-core CMPs, reporting relative throughput, harmonic mean
and weighted speedup.  Expected shape (paper §V-A): both pseudo-LRU schemes
trail LRU slightly; NRU stays within ~2 %; BT loses more, up to ~5 % at 8
cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.campaign.jobs import Job, outcome_job
from repro.config import config_unpartitioned
from repro.experiments.common import (
    ExperimentScale,
    RunOutcome,
    geometric_mean,
)
from repro.experiments.report import fmt_rel
from repro.reporting.model import BarChart, DataPoint, Reference, TableBlock

POLICIES = ("lru", "nru", "bt")
METRICS = ("throughput", "hmean", "wspeedup")
CORE_COUNTS = (1, 2, 4, 8)

#: Paper values for EXPERIMENTS.md comparison: relative throughput of each
#: policy per core count (LRU == 1.0 by construction).
PAPER_REL_THROUGHPUT = {
    "nru": {1: 0.994, 2: 0.995, 4: 0.985, 8: 0.979},  # "<= 2.1 % degradation"
    "bt": {1: 0.978, 2: 0.984, 4: 0.981, 8: 0.947},   # 2.2/1.6/1.9/5.3 %
}


@dataclass
class Fig6Data:
    """Relative metric per (metric, cores, policy), LRU == 1.0."""

    relative: Dict[str, Dict[int, Dict[str, float]]]
    outcomes: Dict[Tuple[int, str, str], RunOutcome] = field(default_factory=dict)


def _points(scale: ExperimentScale,
            cores: int) -> List[Tuple[str, Optional[Tuple[str, ...]]]]:
    """(mix label, explicit benchmarks) points for one core count."""
    if cores == 1:
        return [(name, (name,)) for name in scale.benchmarks_1t]
    return [(mix, None) for mix in scale.mixes_for(cores)]


def matrix(scale: ExperimentScale) -> List[Job]:
    """Figure 6's run matrix as declarative campaign jobs."""
    jobs: List[Job] = []
    for cores in CORE_COUNTS:
        for mix, benchmarks in _points(scale, cores):
            for policy in POLICIES:
                jobs.append(outcome_job(scale, mix,
                                        config_unpartitioned(policy),
                                        benchmarks=benchmarks))
    return jobs


def assemble(scale: ExperimentScale,
             results: Mapping[Job, RunOutcome]) -> Fig6Data:
    """Aggregate campaign results into :class:`Fig6Data`.

    Iterates points in the same order as the old serial loop so the
    geometric means see identical operand sequences — the campaign path is
    byte-identical to ``run()``, not merely approximately equal.
    """
    relative: Dict[str, Dict[int, Dict[str, float]]] = {
        m: {} for m in METRICS
    }
    data = Fig6Data(relative=relative)

    for cores in CORE_COUNTS:
        per_metric: Dict[str, Dict[str, List[float]]] = {
            m: {p: [] for p in POLICIES} for m in METRICS
        }
        for mix, benchmarks in _points(scale, cores):
            outcomes = {}
            for policy in POLICIES:
                job = outcome_job(scale, mix, config_unpartitioned(policy),
                                  benchmarks=benchmarks)
                outcome = results[job]
                outcomes[policy] = outcome
                data.outcomes[(cores, mix, policy)] = outcome
            base = outcomes["lru"]
            metrics = METRICS if cores > 1 else ("throughput",)
            for metric in metrics:
                base_value = base.metric(metric)
                for policy in POLICIES:
                    per_metric[metric][policy].append(
                        outcomes[policy].metric(metric) / base_value
                    )
        for metric in METRICS:
            if not per_metric[metric]["lru"]:
                continue
            relative[metric][cores] = {
                p: geometric_mean(per_metric[metric][p]) for p in POLICIES
            }
    return data


def references() -> List[Reference]:
    """Paper-reported Figure 6 values with tolerance bands.

    The paper quotes relative throughput of NRU and BT per core count
    (§V-A); the bands are generous because the default scales shrink the
    machine — see docs/reproducing.md ("How to read verdicts").
    """
    refs = []
    for policy, per_cores in PAPER_REL_THROUGHPUT.items():
        for cores, expected in per_cores.items():
            refs.append(Reference(
                point=f"fig6/throughput/{cores}c/{policy}",
                expected=expected, rel_warn=0.02, rel_fail=0.05,
                source="§V-A",
            ))
    return refs


def points(data: Fig6Data) -> List[DataPoint]:
    """Measured values matching :func:`references`, straight from the data."""
    out: List[DataPoint] = []
    for policy, per_cores in PAPER_REL_THROUGHPUT.items():
        for cores in per_cores:
            value = data.relative.get("throughput", {}).get(cores, {}).get(policy)
            out.append(DataPoint(
                id=f"fig6/throughput/{cores}c/{policy}",
                label=(f"{policy.upper()} relative throughput, {cores} "
                       f"core{'s' if cores > 1 else ''}"),
                value=value, unit="x vs LRU",
            ))
    return out


def tables(data: Fig6Data) -> List[TableBlock]:
    """One cores × policy grid per metric."""
    blocks = []
    for metric in METRICS:
        rows = tuple(
            (str(cores),) + tuple(fmt_rel(data.relative[metric][cores][p])
                                  for p in POLICIES)
            for cores in sorted(data.relative[metric])
        )
        blocks.append(TableBlock(
            title=f"Figure 6 ({metric}): relative to LRU, non-partitioned L2",
            headers=("cores",) + POLICIES, rows=rows,
        ))
    return blocks


def charts(data: Fig6Data) -> List[BarChart]:
    """Grouped-bar spec per metric (cores on the x axis, one bar/policy)."""
    specs = []
    for metric in METRICS:
        core_counts = sorted(data.relative[metric])
        specs.append(BarChart(
            title=f"Figure 6 ({metric}): relative to LRU",
            groups=tuple(f"{c} core{'s' if c > 1 else ''}"
                         for c in core_counts),
            series=tuple(
                (p.upper(), tuple(data.relative[metric][c][p]
                                  for c in core_counts))
                for p in POLICIES
            ),
            y_label=f"{metric} vs LRU", baseline=1.0,
        ))
    return specs

