#!/usr/bin/env python
"""Same-process A/B of two trees: a revision's ``src/repro`` against the
working tree's, job by job.

``REV``'s ``src/repro`` (``git archive``) is unpacked into a temporary
directory as the package ``repro_rev``, its ``import repro`` /
``from repro`` lines renamed, and imported beside this tree's ``repro``:
both sides run in one process, in whatever speed phase the host puts it
in, each on its own modules, kernels and runners, so a change anywhere
in ``src/`` is measured.  Kernel objects are named by their rendering,
so a key both trees render alike is one object in the kernel cache.

The job list mirrors a ``benchmarks/e2e`` workload: ``fig7`` (mixes
2T_05 and 4T_01 under every Figure 7 configuration, ``small``), ``fig6``
(Figure 6's matrix over 2T_05 / 4T_04 / 8T_05, ``small``) or ``micro``
(every report section's jobs at ``micro``), with their isolation
dependencies, each side building its own and running it on one
``WorkloadRunner`` per scale.

1. Every job runs once per side.  The results are compared as plain
   values (class names, fields, floats by ``repr``), so the two
   packages' classes compare; the first job whose results differ is
   named, and the exit status is 1.
2. Then ``--rounds`` rounds run every job once per side, job by job,
   alternating which side goes first, on the warm runners (traces and
   isolation results memoised, as in a campaign worker), each job timed
   in process CPU seconds (``time.process_time``: time the host gives
   other processes is not a side's).  Printed as JSON: each side's
   median seconds per round and the median, quartiles and range over
   rounds of tree / ``REV``.  Against ``HEAD`` on a clean tree it reads
   the host's noise floor.

Run from the repo root (``git`` and ``cc`` on ``PATH``)::

    python tools/tree_ab.py REV [--jobs fig6|fig7|micro] [--rounds N]
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import importlib
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: The package name ``REV``'s tree is imported under.
REV_PACKAGE = "repro_rev"

_IMPORT = re.compile(r"^(\s*)(from|import) repro(?=[.\s])", re.MULTILINE)


def export(rev: str, root: Path) -> None:
    """``rev``'s ``src/repro`` under ``root`` as :data:`REV_PACKAGE`."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src/repro"],
        check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(root, filter="data")
    package = root / REV_PACKAGE
    (root / "src" / "repro").rename(package)
    for path in package.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        path.write_text(_IMPORT.sub(rf"\1\2 {REV_PACKAGE}", text),
                        encoding="utf-8")


def _jobs(side, which: str) -> list:
    scale = side.module("experiments.common").scale_preset(
        "micro" if which == "micro" else "small")
    if which == "fig7":
        outcome_job = side.module("campaign").outcome_job
        return [outcome_job(scale, mix, config) for mix in ("2T_05", "4T_01")
                for config in side.module("config").paper_figure7_configs()]
    if which == "fig6":
        return side.module("experiments.fig6").matrix(dataclasses.replace(
            scale, mixes_2t=("2T_05",), mixes_4t=("4T_04",),
            mixes_8t=("8T_05",)))
    sections = side.module("reporting.sections").resolve_sections()
    return [job for spec in sections for job in spec.matrix(scale)]


class Side:
    """One tree: its package, its planned jobs and, per scale, the
    runner they execute on."""

    def __init__(self, name: str, package: str, which: str) -> None:
        self.name = name
        self.package = package
        self.runners: Dict[object, object] = {}
        plan = self.module("campaign").plan_jobs(_jobs(self, which))
        self.jobs = [job for _key, job in plan.isolation + plan.outcome]

    def module(self, name: str):
        return importlib.import_module(f"{self.package}.{name}")

    def run(self, job):
        """``job``'s result on this side's runner for its scale."""
        runner = self.runners.get(job.scale)
        if runner is None:
            runner = self.runners[job.scale] = \
                self.module("experiments.common").WorkloadRunner(job.scale)
        return self.module("campaign.runner").execute_job(job, runner)


def plain(value):
    """``value`` as nested tuples of builtins, free of either package's
    classes: equal for equal results from either tree."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (field.name, plain(getattr(value, field.name)))
            for field in dataclasses.fields(value))
    if isinstance(value, enum.Enum):
        return type(value).__name__, value.name
    if isinstance(value, dict):
        return ("dict",) + tuple(map(plain, value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(map(plain, value))
    if hasattr(value, "tolist"):                   # numpy arrays / scalars
        return plain(value.tolist())
    return repr(value) if isinstance(value, float) else value


def first_difference(pair: Sequence[Side]) -> Optional[str]:
    """Label of the first job whose results differ between the sides."""
    for jobs in zip(*(side.jobs for side in pair), strict=True):
        base, tree = (plain(side.run(job)) for side, job in zip(pair, jobs))
        if base != tree or jobs[0].label != jobs[1].label:
            return jobs[0].label
    return None


def timed_rounds(pair: Sequence[Side], rounds: int) -> Dict[str, List[float]]:
    """CPU seconds per round per side, job by job, the side that goes
    first alternating from one job to the next and one round to the
    next."""
    seconds = {side.name: [0.0] * rounds for side in pair}
    for index in range(rounds):
        for position, jobs in enumerate(zip(*(side.jobs for side in pair))):
            order = list(zip(pair, jobs))
            for side, job in order[::-1] if (index + position) % 2 else order:
                started = time.process_time()
                side.run(job)
                seconds[side.name][index] += time.process_time() - started
    return seconds


def summary(seconds: Dict[str, List[float]]) -> dict:
    ratios = [t / b for t, b in zip(seconds["tree"], seconds["rev"])]
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    return {"rev_s": statistics.median(seconds["rev"]),
            "tree_s": statistics.median(seconds["tree"]),
            "ratio": {"median": median, "q1": q1, "q3": q3,
                      "min": min(ratios), "max": max(ratios)}}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    parser.add_argument("--jobs", choices=("fig6", "fig7", "micro"),
                        default="fig7")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory(prefix="tree_ab-") as tmp:
        try:
            export(args.rev, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"tree_ab: git archive {args.rev}: "
                  f"{exc.stderr.decode(errors='replace').strip()}",
                  file=sys.stderr)
            return 2
        sys.path.insert(0, tmp)
        try:
            pair = (Side("rev", REV_PACKAGE, args.jobs),
                    Side("tree", "repro", args.jobs))
            differs = first_difference(pair)
            if differs is not None:
                print(f"tree_ab: {differs}: the tree's results differ "
                      f"from {args.rev}'s", file=sys.stderr)
                return 1
            seconds = timed_rounds(pair, args.rounds)
        finally:
            sys.path.remove(tmp)
            for name in [name for name in sys.modules
                         if name.split(".")[0] == REV_PACKAGE]:
                del sys.modules[name]
    print(json.dumps(dict(rev=args.rev, jobs=args.jobs,
                          count=len(pair[1].jobs), rounds=args.rounds,
                          **summary(seconds)), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
