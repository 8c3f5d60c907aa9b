#!/usr/bin/env python3
"""Compare result files written by ``run.py --json``.

One set of runs prints, per workload and end-to-end metric, the median,
the quartiles and the spread (quartile distance over median) against the
bound in BENCHMARK.json::

    python benchmarks/e2e/compare.py RUN1.json RUN2.json ...

Two sets (two commits, measured in alternating pairs — the i-th parent
file and the i-th change file form a pair) add a verdict per row::

    python benchmarks/e2e/compare.py --parent P1.json P2.json ... \\
                                     --change C1.json C2.json ...

``regressed``: the change's median is worse than the parent's by more than
the bound.  ``unresolved`` (never *unchanged*): a side's spread exceeds the
bound, unless every run of the change reads better than every run of the
parent.  ``gain``: at least ten pairs, the change wins nine tenths of
them (ties count for neither) and the medians differ by more than the
parent's own quartile distance.  Anything else is ``within bound``.
Simulated counts must be identical inside a set; between the two sets a
difference is reported, because a change to the simulator's results is
never a performance result.

``--self-check N`` runs the whole suite N times on the current tree and
fails unless the N sets agree within the bounds and in every count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

Key = Tuple[str, str]  # (workload, metric)


def load(paths: Sequence[Path]) -> Tuple[Dict[Key, List[float]],
                                         Dict[str, List[dict]]]:
    """Untraced end-to-end values and counts of a set of result files."""
    values: Dict[Key, List[float]] = {}
    counts: Dict[str, List[dict]] = {}
    for path in paths:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        for result in payload["results"]:
            if result["traced"]:
                continue
            if result["jobs_failed"]:
                raise SystemExit(f"{path}: {result['workload']} has "
                                 f"{result['jobs_failed']} failed job(s)")
            counts.setdefault(result["workload"], []).append(
                result["counts"])
            for metric, value in result["end_to_end"].items():
                values.setdefault((result["workload"], metric),
                                  []).append(value)
    return values, counts


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median, third quartile (one value: all equal)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def worsening(parent: float, change: float, better: str) -> float:
    """Share of ``parent`` by which ``change`` is worse (negative: better)."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> str:
    """Row verdict of a two-set comparison (see the module docstring)."""
    sign = 1 if better == "lower" else -1
    if max(spread(parent), spread(change)) > bound:
        if max(sign * v for v in change) < min(sign * v for v in parent):
            return "better in every run"
        return "unresolved"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    if worsening(p_med, c_med, better) > bound:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "gain"
    return "within bound"


def count_problems(label: str, counts: Dict[str, List[dict]]) -> List[str]:
    """Workloads whose simulated counts differ inside one set."""
    return [f"{label}: simulated counts of {workload} differ between runs"
            for workload, seen in counts.items()
            if any(c != seen[0] for c in seen)]


def compare(benchmark: dict, parent_paths: Sequence[Path],
            change_paths: Sequence[Path] = ()) -> int:
    """Print the table; returns the number of problems found."""
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    parent, parent_counts = load(parent_paths)
    problems = count_problems("parent" if change_paths else "runs",
                              parent_counts)
    change: Dict[Key, List[float]] = {}
    if change_paths:
        change, change_counts = load(change_paths)
        problems += count_problems("change", change_counts)
        problems += [
            f"simulated counts of {workload} differ between parent and "
            f"change" for workload in parent_counts
            if workload in change_counts
            and parent_counts[workload][0] != change_counts[workload][0]]
    header = (f"{'workload':<20} {'metric':<12} {'n':>3} {'q1':>11} "
              f"{'median':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    print(header + ("  change-median  worse-by  verdict" if change else
                    "  verdict"))
    for (workload, metric), values in sorted(parent.items()):
        spec = metrics[metric]
        q1, q2, q3 = quartiles(values)
        row = (f"{workload:<20} {metric:<12} {len(values):>3} {q1:>11.4f} "
               f"{q2:>11.4f} {q3:>11.4f} {spread(values):>7.3f} "
               f"{spec['bound']:>6.2f}")
        other = change.get((workload, metric))
        if other:
            c_med = quartiles(other)[1]
            outcome = verdict(values, other, spec["better"], spec["bound"])
            row += (f"  {c_med:>13.4f}  "
                    f"{worsening(q2, c_med, spec['better']):>+8.3f}  "
                    f"{outcome}")
            if outcome == "regressed":
                problems.append(f"{workload} {metric} regressed")
        elif spread(values) > spec["bound"]:
            row += "  unresolved (spread exceeds the bound)"
        elif spread(values) > spec["bound"] / 3:
            row += "  noisy (spread above a third of the bound)"
        else:
            row += "  steady"
        print(row)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return len(problems)


def self_check(benchmark: dict, sets: int) -> int:
    """Run the suite ``sets`` times; the sets must agree (see docstring)."""
    work = ROOT / ".bench_e2e" / f"self-check-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        paths = []
        for index in range(sets):
            path = work / f"set-{index}.json"
            subprocess.run([sys.executable, str(HERE / "run.py"),
                            "--json", str(path)], check=True, cwd=ROOT)
            paths.append(path)
        problems = compare(benchmark, paths)
        bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
        values, _counts = load(paths)
        for (workload, metric), seen in sorted(values.items()):
            bound = bounds[metric]
            disagreement = (max(seen) - min(seen)) / min(seen)
            if disagreement > bound:
                problems += 1
                print(f"PROBLEM: {workload} {metric}: the sets differ by "
                      f"{disagreement:.3f}, more than the bound {bound}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("self-check: " + ("sets agree" if not problems
                            else f"{problems} problem(s)"))
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("runs", nargs="*", type=Path,
                        help="result files of one set of runs")
    parser.add_argument("--parent", nargs="+", type=Path, default=[])
    parser.add_argument("--change", nargs="+", type=Path, default=[])
    parser.add_argument("--self-check", type=int, metavar="N")
    args = parser.parse_args(argv)
    benchmark = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.self_check:
        return 1 if self_check(benchmark, args.self_check) else 0
    if bool(args.parent) != bool(args.change) or \
            bool(args.runs) == bool(args.parent):
        parser.error("give either one set of result files, or --parent "
                     "and --change sets")
    problems = compare(benchmark, args.parent or args.runs, args.change)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
