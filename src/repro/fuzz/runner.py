"""Fuzz campaign driver: generate, cross-check, shrink, emit repros.

A campaign is fully described by ``(seed, budget)``: case ``i`` is
``generate_case(seed, i)`` for ``i`` in ``range(budget)``, so two runs
with the same arguments check the same cases in the same order.  An
optional wall-clock bound stops *between* cases (never mid-case), which
keeps a time-bounded CI run deterministic in everything except how far
it got.

Each divergent case is reduced with the ddmin shrinker and written to
the output directory as a ``repro-fuzz-case/1`` JSON file, ready to be
checked into ``tests/corpus/`` as a regression replay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from repro.config import ENGINE_REFERENCE
from repro.fuzz.case import FuzzCase
from repro.fuzz.generators import generate_case
from repro.fuzz.oracle import CaseReport, run_case
from repro.fuzz.shrink import shrink_case


@dataclass
class Finding:
    """One divergence: the original report plus its shrunk repro."""

    index: int
    report: CaseReport
    shrunk: Optional[FuzzCase] = None
    path: Optional[Path] = None


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    seed: int
    budget: int
    cases_run: int = 0
    accesses_checked: int = 0
    engine_runs: int = 0
    findings: List[Finding] = field(default_factory=list)
    elapsed: float = 0.0
    time_limited: bool = False

    @property
    def clean(self) -> bool:
        """True when every checked case agreed across all engine pairs
        and met its partition post-conditions."""
        return not self.findings

    def summary(self) -> str:
        """Multi-line human summary (what the CLI prints last)."""
        lines = [
            f"fuzz seed={self.seed} budget={self.budget}: "
            f"{self.cases_run} case(s), {self.engine_runs} engine run(s), "
            f"{self.accesses_checked} access(es) cross-checked "
            f"in {self.elapsed:.1f}s"
            + (" [stopped at time limit]" if self.time_limited else ""),
        ]
        if self.clean:
            lines.append("no divergence: all engines bit-identical "
                         "and every partition post-condition held "
                         "on every case")
        else:
            lines.append(f"{len(self.findings)} DIVERGENT case(s):")
            for finding in self.findings:
                lines.append(f"  case {finding.index}: "
                             f"{finding.report.summary()}")
                if finding.shrunk is not None:
                    lines.append(
                        f"    shrunk to {finding.shrunk.total_accesses()} "
                        f"access(es)"
                        + (f" -> {finding.path}" if finding.path else ""))
        return "\n".join(lines)


def run_fuzz(seed: int, budget: int,
             out_dir: Optional[Path] = None,
             shrink: bool = True,
             time_limit: Optional[float] = None,
             progress: Optional[Callable[[str], None]] = None) -> FuzzReport:
    """Run the ``(seed, budget)`` campaign; shrink and save divergences.

    ``progress`` (e.g. ``print``) receives one line per case.  With a
    ``time_limit`` (seconds) the campaign stops early between cases.
    """
    started = time.monotonic()
    fuzz = FuzzReport(seed=seed, budget=budget)
    for index in range(budget):
        if time_limit is not None and time.monotonic() - started > time_limit:
            fuzz.time_limited = True
            break
        case = generate_case(seed, index)
        report = run_case(case)
        fuzz.cases_run += 1
        fuzz.accesses_checked += case.total_accesses()
        fuzz.engine_runs += report.engine_runs
        if progress is not None:
            progress(f"[{index + 1}/{budget}] {case.shape or 'case'} "
                     f"{case.partitioning.acronym} "
                     f"cores={case.num_cores}: {report.summary()}")
        if not report.divergent:
            continue
        finding = Finding(index=index, report=report)
        fuzz.findings.append(finding)
        if shrink and report.error is None:
            bad = report.divergent_engines()
            engines = (ENGINE_REFERENCE,) + tuple(bad)
            if progress is not None:
                progress(f"  shrinking case {index} "
                         f"({case.total_accesses()} accesses) ...")
            finding.shrunk = shrink_case(case, engines=engines)
            finding.shrunk.note = (
                f"shrunk from fuzz {case.origin}; "
                f"diverged: {', '.join(bad)}")
            if progress is not None:
                progress(f"  shrunk to "
                         f"{finding.shrunk.total_accesses()} access(es)")
        if out_dir is not None:
            to_save = finding.shrunk if finding.shrunk is not None else case
            path = Path(out_dir) / f"div-seed{seed}-case{index}.json"
            finding.path = to_save.save(path)
    fuzz.elapsed = time.monotonic() - started
    return fuzz
