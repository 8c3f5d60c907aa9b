"""Figure 9 — power and energy of the partitioned configurations.

(a) total power and the CPI×Power energy metric of every Figure 7
configuration, relative to ``C-L``; (b) per-component power breakdown for
the 2-core CMP.  Expected shape (§V-C): power/energy track performance —
slower configurations burn more main-memory dynamic power — and the
profiling logic stays below 0.3 % of total power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.campaign.jobs import Job
from repro.experiments import fig7
from repro.experiments.common import ExperimentScale, geometric_mean
from repro.experiments.report import fmt_rel
from repro.hwmodel.power import PowerModel
from repro.reporting.model import BarChart, DataPoint, Reference, TableBlock

ACRONYMS = fig7.ACRONYMS
CORE_COUNTS = fig7.CORE_COUNTS
COMPONENT_GROUPS = ("cores", "caches", "memory", "profiling")


@dataclass
class Fig9Data:
    """Relative power/energy per (cores, acronym) plus 2-core breakdown."""

    relative_power: Dict[int, Dict[str, float]]
    relative_energy: Dict[int, Dict[str, float]]
    breakdown_2core: Dict[str, Dict[str, float]]


def matrix(scale: ExperimentScale) -> List[Job]:
    """Figure 9 simulates nothing of its own: its jobs *are* Figure 7's.

    Power/energy are derived from the PowerReports already attached to the
    Figure 7 outcomes, so a campaign running both figures simulates each
    point exactly once.
    """
    return fig7.matrix(scale)


def assemble(scale: ExperimentScale,
             results: Mapping[Job, "fig7.RunOutcome"]) -> Fig9Data:
    """Derive Figure 9 from campaign results of Figure 7's matrix."""
    fig7_data = fig7.assemble(scale, results)

    relative_power: Dict[int, Dict[str, float]] = {}
    relative_energy: Dict[int, Dict[str, float]] = {}
    breakdown: Dict[str, Dict[str, float]] = {}

    for cores in CORE_COUNTS:
        mixes = scale.mixes_for(cores)
        power_ratios = {a: [] for a in ACRONYMS}
        energy_ratios = {a: [] for a in ACRONYMS}
        for mix in mixes:
            base = fig7_data.outcomes[(cores, mix, "C-L")].power
            for acronym in ACRONYMS:
                report = fig7_data.outcomes[(cores, mix, acronym)].power
                power_ratios[acronym].append(report.power / base.power)
                energy_ratios[acronym].append(
                    report.energy_metric / base.energy_metric
                )
        relative_power[cores] = {
            a: geometric_mean(power_ratios[a]) for a in ACRONYMS
        }
        relative_energy[cores] = {
            a: geometric_mean(energy_ratios[a]) for a in ACRONYMS
        }

    # Component shares for the 2-core CMP, averaged across mixes.
    for acronym in ACRONYMS:
        sums = {g: 0.0 for g in COMPONENT_GROUPS}
        total = 0.0
        for mix in scale.mixes_for(2):
            report = fig7_data.outcomes[(2, mix, acronym)].power
            grouped = PowerModel.grouped(report)
            for g in COMPONENT_GROUPS:
                sums[g] += grouped[g]
            total += sum(grouped.values())
        breakdown[acronym] = {g: sums[g] / total for g in COMPONENT_GROUPS}

    return Fig9Data(relative_power=relative_power,
                    relative_energy=relative_energy,
                    breakdown_2core=breakdown)


def references() -> List[Reference]:
    """The paper's Figure 9 claim: profiling burns < 0.3 % of total power.

    Encoded as an expected share of 0 with an absolute 0.003 pass band
    (``relative_error`` falls back to absolute error when expected is 0),
    one point per partitioned configuration on the 2-core breakdown.
    """
    return [
        Reference(point=f"fig9/profiling_share/2c/{acronym}",
                  expected=0.0, rel_warn=0.003, rel_fail=0.006,
                  source="§V-C")
        for acronym in ACRONYMS
    ]


def points(data: Fig9Data) -> List[DataPoint]:
    """Measured 2-core profiling power shares matching :func:`references`."""
    return [
        DataPoint(
            id=f"fig9/profiling_share/2c/{acronym}",
            label=f"{acronym} profiling power share, 2 cores",
            value=data.breakdown_2core.get(acronym, {}).get("profiling"),
            unit="fraction of total",
        )
        for acronym in ACRONYMS
    ]


def tables(data: Fig9Data) -> List[TableBlock]:
    """The relative power/energy grid (9a) and the 2-core shares (9b)."""
    rows = []
    for cores in sorted(data.relative_power):
        rows.append((f"{cores} power",) + tuple(
            fmt_rel(data.relative_power[cores][a]) for a in ACRONYMS))
        rows.append((f"{cores} energy",) + tuple(
            fmt_rel(data.relative_energy[cores][a]) for a in ACRONYMS))
    relative = TableBlock(
        title="Figure 9(a): power & energy (CPI x Power) relative to C-L",
        headers=("cores/metric",) + ACRONYMS, rows=tuple(rows),
    )
    breakdown = TableBlock(
        title="Figure 9(b): component power shares, 2-core CMP",
        headers=("config",) + COMPONENT_GROUPS,
        rows=tuple(
            (a,) + tuple(f"{data.breakdown_2core[a][g] * 100:.1f}%"
                         for g in COMPONENT_GROUPS)
            for a in ACRONYMS
        ),
    )
    return [relative, breakdown]


def charts(data: Fig9Data) -> List[BarChart]:
    """Relative power/energy bars plus the 2-core component breakdown."""
    core_counts = sorted(data.relative_power)
    specs = [
        BarChart(
            title="Figure 9(a): total power relative to C-L",
            groups=tuple(f"{c} cores" for c in core_counts),
            series=tuple(
                (a, tuple(data.relative_power[c][a] for c in core_counts))
                for a in ACRONYMS
            ),
            y_label="power vs C-L", baseline=1.0,
        ),
        BarChart(
            title="Figure 9(a): energy (CPI x Power) relative to C-L",
            groups=tuple(f"{c} cores" for c in core_counts),
            series=tuple(
                (a, tuple(data.relative_energy[c][a] for c in core_counts))
                for a in ACRONYMS
            ),
            y_label="energy vs C-L", baseline=1.0,
        ),
        BarChart(
            title="Figure 9(b): component power shares, 2-core CMP",
            groups=tuple(ACRONYMS),
            series=tuple(
                (group, tuple(data.breakdown_2core[a][group]
                              for a in ACRONYMS))
                for group in COMPONENT_GROUPS
            ),
            y_label="share of total power",
        ),
    ]
    return specs

