#!/usr/bin/env python
"""Same-process A/B of a spec edit: the stock renderings against a
candidate's, job by job.

``CANDIDATE`` is a Python file defining ``apply(policies, schemes,
templates)``, which edits copies of ``transitions.POLICIES`` /
``SCHEMES`` / ``TEMPLATES`` in place (a rewritten fragment, a new
template).  Each side keeps its own ``native.load`` memo — a
``functools.lru_cache`` over ``native.load.__wrapped__`` that renders
and translates from that side's tables — and the tool points
``native.load`` at whichever side is running, from outside ``src/``,
the way ``kernel_traffic.py`` wraps ``bind``.  A kernel is bound when
its cache, ATD or L1 is built, so every simulation a side runs uses that
side's objects (the candidate's are built into the same object cache,
named by their own rendering).

The job list mirrors a ``benchmarks/e2e`` workload: ``fig7`` (mixes
2T_05 and 4T_01 under every Figure 7 configuration, ``small``), ``fig6``
(Figure 6's matrix over 2T_05 / 4T_04 / 8T_05, ``small``) or ``micro``
(every report section's jobs at ``micro``), each with its isolation
dependencies, run in process on one ``WorkloadRunner`` per side and
scale.

1. Every job runs once per side.  The first job whose
   ``SimulationResult`` (outcome jobs) or ``ThreadResult`` (isolation
   jobs) differs between the sides is named, and the exit status is 1.
2. Then ``--rounds`` timing rounds run every job once per side, job by
   job, alternating which side goes first, on the warm runners (traces
   and isolation results memoised, as in a campaign worker).  Printed
   as JSON: each side's median seconds per round, and the median, min
   and max over rounds of candidate / stock.

Run from the repo root (``cc`` on ``PATH``)::

    python tools/render_ab.py CANDIDATE [--jobs fig6|fig7|micro] [--rounds N]
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import json
import runpy
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cache import native, transitions  # noqa: E402
from repro.campaign import KIND_ISOLATION, outcome_job, plan_jobs  # noqa: E402
from repro.campaign.runner import execute_job  # noqa: E402
from repro.config import paper_figure7_configs  # noqa: E402
from repro.experiments import fig6  # noqa: E402
from repro.experiments.common import WorkloadRunner, scale_preset  # noqa: E402
from repro.reporting.sections import resolve_sections  # noqa: E402


def _fig7_jobs() -> list:
    scale = scale_preset("small")
    return [outcome_job(scale, mix, config) for mix in ("2T_05", "4T_01")
            for config in paper_figure7_configs()]


def _fig6_jobs() -> list:
    return fig6.matrix(replace(scale_preset("small"), mixes_2t=("2T_05",),
                               mixes_4t=("4T_04",), mixes_8t=("8T_05",)))


def _micro_jobs() -> list:
    scale = scale_preset("micro")
    return [job for spec in resolve_sections() for job in spec.matrix(scale)]


JOBS: Dict[str, Callable[[], list]] = {
    "fig7": _fig7_jobs, "fig6": _fig6_jobs, "micro": _micro_jobs}


def planned(jobs: Sequence) -> list:
    """``jobs`` with their isolation dependencies, each once, isolation
    first — the order a campaign executes them in."""
    plan = plan_jobs(jobs)
    return [job for _key, job in plan.isolation + plan.outcome]


#: The memo-free loader every side's own memo wraps.
_WRAPPED_LOAD = native.load.__wrapped__
#: The tables ``render`` and ``translate`` read by default.
_LIVE = (transitions.POLICIES, transitions.SCHEMES, transitions.TEMPLATES)


@contextlib.contextmanager
def _tables(tables):
    """``transitions``' live tables holding ``tables`` for the block."""
    saved = [dict(live) for live in _LIVE]
    try:
        for live, table in zip(_LIVE, tables):
            live.clear()
            live.update(table)
        yield
    finally:
        for live, table in zip(_LIVE, saved):
            live.clear()
            live.update(table)


class Side:
    """One set of tables: its ``native.load`` memo and, per scale, the
    runner its jobs execute on."""

    def __init__(self, name: str, tables) -> None:
        self.name = name
        self.tables = tables
        self.load = functools.lru_cache(maxsize=None)(self._load)
        self.runners: Dict[object, WorkloadRunner] = {}

    def _load(self, rendering, key):
        with _tables(self.tables):
            return _WRAPPED_LOAD(rendering, key)

    def run(self, job):
        """``job``'s result on this side's runner for its scale, every
        kernel its simulation binds loaded through this side's memo."""
        native.load = self.load
        runner = self.runners.get(job.scale)
        if runner is None:
            runner = self.runners[job.scale] = WorkloadRunner(job.scale)
        return execute_job(job, runner)


def sides(candidate: Path) -> Tuple[Side, Side]:
    """The stock side, and the tables ``candidate``'s ``apply`` leaves
    in copies of the stock ones."""
    stock, edited = (tuple(copy.deepcopy(live) for live in _LIVE)
                     for _side in range(2))
    runpy.run_path(str(candidate))["apply"](*edited)
    return Side("stock", stock), Side("candidate", edited)


def compared(job, value):
    """What must match between the sides: the simulation itself."""
    return value if job.kind == KIND_ISOLATION else value.result


def first_difference(jobs: Sequence, pair: Sequence[Side]) -> Optional[str]:
    """Label of the first job whose results differ between the sides."""
    for job in jobs:
        stock, candidate = (compared(job, side.run(job)) for side in pair)
        if stock != candidate:
            return job.label
    return None


def timed_rounds(jobs: Sequence, pair: Sequence[Side],
                 rounds: int) -> Dict[str, List[float]]:
    """Seconds per round per side, job by job, the side that goes first
    alternating from one job to the next and one round to the next."""
    seconds = {side.name: [0.0] * rounds for side in pair}
    for index in range(rounds):
        for position, job in enumerate(jobs):
            order = pair if (index + position) % 2 == 0 else pair[::-1]
            for side in order:
                started = time.perf_counter()
                side.run(job)
                seconds[side.name][index] += time.perf_counter() - started
    return seconds


def summary(seconds: Dict[str, List[float]]) -> dict:
    ratios = [c / s for c, s in zip(seconds["candidate"], seconds["stock"])]
    return {"stock_s": statistics.median(seconds["stock"]),
            "candidate_s": statistics.median(seconds["candidate"]),
            "ratio": {"median": statistics.median(ratios),
                      "min": min(ratios), "max": max(ratios)}}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("candidate", type=Path,
                        help="file defining apply(policies, schemes, "
                             "templates)")
    parser.add_argument("--jobs", choices=sorted(JOBS), default="fig7")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    pair = sides(args.candidate)
    jobs = planned(JOBS[args.jobs]())
    load = native.load
    try:
        differs = first_difference(jobs, pair)
        if differs is not None:
            print(f"render_ab: {differs}: the candidate's results differ "
                  f"from the stock renderings'", file=sys.stderr)
            return 1
        seconds = timed_rounds(jobs, pair, args.rounds)
    finally:
        native.load = load
    print(json.dumps(dict(jobs=args.jobs, count=len(jobs),
                          rounds=args.rounds, **summary(seconds)), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
