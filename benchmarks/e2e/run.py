#!/usr/bin/env python3
"""End-to-end benchmark of cold campaign and report runs.

One command runs every workload and prints every metric by name with its
unit, failing on any wrong result::

    python benchmarks/e2e/run.py [--workload NAME] [--seed S] [--traced]
                                 [--json OUT]

The benchmark driver's form measures one workload and prints one JSON
object as its last line::

    python benchmarks/e2e/run.py --workload NAME --seed S --seconds N
                                 --trace 0|1

Each iteration of a workload is a fresh subprocess (``workloads.py``):
closed loop, one client, ``REPRO_*`` variables scrubbed, BLAS threads
capped, a temp store under ``.bench_e2e/`` that this script creates and
removes.  A workload is repeated while another iteration still fits in
``--seconds`` (at least once) and every metric is the median over the
iterations; ``setup_s`` is the median over several set-ups.

This host's speed drifts by tens of percent over minutes, so the harness
probes it (:func:`probe`) while each subprocess runs and reports the times
*at nominal host speed*: measured seconds divided by the slowdown probed
during the measurement.  Raw seconds are printed beside them.  See
README.md in this directory for the workload and metric catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from heapq import heappop, heappush
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from digest import GOLDEN_PATH, load_golden, save_golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SCRATCH = ROOT / ".bench_e2e"

#: Set-ups measured per untraced run (iterations included).
SETUP_SAMPLES = 5
#: A child that runs longer than this is killed with its process group.
CHILD_TIMEOUT_S = 170
#: Seconds between two host-speed probes while a workload runs.
PROBE_PERIOD_S = 0.1
#: CPU seconds one probe takes on the quiet reference box.  It only fixes
#: the unit of the reported times ("seconds at nominal host speed") and
#: must never change once a baseline has been recorded.
NOMINAL_PROBE_S = 0.0022
#: ``REPRO_*`` variables that would change what a workload computes; the
#: others only feed ``ExperimentScale.from_env`` / the default store path,
#: which the workloads never consult, and are scrubbed.
ALTERING_ENV = ("REPRO_KERNEL_BACKEND",)


def load_benchmark() -> dict:
    """The benchmark contract (workloads, metrics, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env() -> Dict[str, str]:
    """Environment of a workload subprocess (see the module docstring)."""
    altering = [name for name in ALTERING_ENV if os.environ.get(name)]
    if altering:
        raise SystemExit(
            f"refusing to run: {', '.join(altering)} would alter the "
            f"workloads; unset it")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # numpy must not oversubscribe the two cores; a fixed hash seed keeps
    # the scheduler's set iteration (and so its counters) repeatable.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def environment() -> Dict[str, Any]:
    """Where the numbers were taken (recorded in ``--json``)."""
    versions = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, importlib.util as u;"
         "print(json.dumps({'numpy': numpy.__version__,"
         "'numba': u.find_spec('numba') is not None}))"],
        env=child_env(), capture_output=True, text=True, check=True)
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "scrubbed": sorted(k for k in os.environ if k.startswith("REPRO_")),
        **json.loads(versions.stdout),
    }


# ----------------------------------------------------------------------
# Subprocess handling
# ----------------------------------------------------------------------
_PROBE_LINES = [random.Random(7).randrange(1 << 13) for _ in range(6000)]


def probe() -> float:
    """CPU seconds of the host-speed probe.

    The probe is a frozen miniature of the simulator's hot loop -- a heap
    of thread clocks, a tag dict, per-set recency lists -- because what
    slows this shared host (neighbours on the same core and cache) slows
    interpreter-bound code with that shape about twice as much as a bare
    arithmetic loop; measured against ``fig7_partitioned`` the probe's
    time moves one-for-one with the workload's.  It owns no ``repro``
    code, so a change to the program cannot move it.  CPU time, not wall
    time: a probe descheduled behind the workload must not read as a slow
    host.
    """
    start = time.process_time()
    tags: Dict[int, int] = {}
    recency: List[List[int]] = [[] for _ in range(512)]
    heap = [(0.0, t) for t in range(4)]
    for line in _PROBE_LINES:
        now, thread = heappop(heap)
        ways = recency[line & 511]
        if line in tags:
            ways.remove(line)
            ways.append(line)
            clock = now + 11.0
        else:
            if len(ways) >= 8:
                del tags[ways.pop(0)]
            ways.append(line)
            tags[line] = thread
            clock = now + 261.0
        heappush(heap, (clock + 1.5, thread))
    return time.process_time() - start


def spawn(name: str, seed: int, work: Path, **flags: int) -> dict:
    """Run one ``workloads.py`` subprocess; returns its result record.

    While the child runs, this process probes the host speed every
    ``PROBE_PERIOD_S`` on the CPUs the child may run on, in turn: a
    one-worker workload pins itself to ``--cpu``, the pool workload keeps
    them all.  The record's ``host_slowdown`` is the mean probe time over
    the nominal one: 1.0 on the quiet reference box, higher while the
    host is slow.
    """
    work.mkdir(parents=True)
    out = work / "result.json"
    cpus = os.sched_getaffinity(0)
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", name, "--seed", str(seed),
               "--store", str(work / "stores"), "--out", str(out),
               "--cpu", str(max(cpus)), "--spawned-at", repr(time.time())]
    for flag, value in flags.items():
        command += [f"--{flag.replace('_', '-')}", str(int(value))]
    child = subprocess.Popen(command, env=child_env(), cwd=ROOT,
                             start_new_session=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    probes: List[float] = []
    try:
        while True:
            try:
                target = sorted(os.sched_getaffinity(child.pid))
                os.sched_setaffinity(0, {target[len(probes) % len(target)]})
            except ProcessLookupError:
                pass  # the child has just ended
            probes.append(probe())
            try:
                code = child.wait(timeout=PROBE_PERIOD_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    raise
    except BaseException:
        # Take pool workers down with the child, then reap it.
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    finally:
        os.sched_setaffinity(0, cpus)
    if code != 0:
        raise SystemExit(f"{name}: workload process exited with {code}")
    record = json.loads(out.read_text(encoding="utf-8"))
    record["host_slowdown"] = statistics.fmean(probes) / NOMINAL_PROBE_S
    return record


def at_nominal_speed(raw: Dict[str, float], slowdown: float
                     ) -> Dict[str, float]:
    """End-to-end metrics of one subprocess at nominal host speed.

    The host drifts by tens of percent over minutes; dividing a time by
    the slowdown probed *while it was measured* is what makes runs taken
    minutes (or commits) apart comparable.  The raw values stay in the
    result under ``raw``.
    """
    return {
        "setup_s": raw["setup_s"] / slowdown,
        "wall_s": raw["wall_s"] / slowdown,
        "cpu_s": raw["cpu_s"] / slowdown,
        "refs_per_s": raw["refs_per_s"] * slowdown,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def measure(name: str, seed: int, seconds: float, traced: bool,
            smoke: bool = False, use_golden: bool = True) -> dict:
    """Measure one workload: iterations while they fit, medians reported."""
    work = SCRATCH / f"run-{os.getpid()}"
    records: List[dict] = []
    durations: List[float] = []
    try:
        while True:
            start = time.perf_counter()
            records.append(spawn(name, seed, work / f"iter-{len(records)}",
                                 traced=traced, smoke=smoke,
                                 golden=use_golden))
            durations.append(time.perf_counter() - start)
            if sum(durations) + statistics.median(durations) > seconds:
                break
        setups = [r["end_to_end"]["setup_s"] / r["host_slowdown"]
                  for r in records]
        if not traced and not smoke:
            while len(setups) < SETUP_SAMPLES:
                record = spawn(name, seed, work / f"setup-{len(setups)}",
                               setup_only=True)
                setups.append(record["setup_s"] / record["host_slowdown"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it
    return aggregate(records, setups)


def aggregate(records: Sequence[dict], setups: Sequence[float]) -> dict:
    """Medians over the iterations of one run; counts must be identical."""
    first = records[0]
    failures = [f for r in records for f in r["failures"]]
    failed = sum(r["jobs_failed"] for r in records)
    if any(r["counts"] != first["counts"] for r in records):
        failures.append("simulated counts differ between iterations")
        failed += 1

    def median_of(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
        return {metric: statistics.median(row[metric] for row in rows)
                for metric in rows[0]}

    result = {key: first[key] for key in
              ("workload", "seed", "traced", "smoke", "golden", "counts",
               "pool", "kernel_backend", "digests")}
    result.update(
        iterations=len(records), setup_samples=len(setups),
        jobs_attempted=sum(r["jobs_attempted"] for r in records),
        jobs_failed=failed, failures=failures[:20],
        host_slowdown=statistics.median(r["host_slowdown"] for r in records),
        raw=median_of([r["end_to_end"] for r in records]),
        end_to_end=median_of([at_nominal_speed(r["end_to_end"],
                                               r["host_slowdown"])
                              for r in records]))
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    if first["traced"]:
        result["per_layer"] = median_of([
            {**r["per_layer"], "bench.host_slowdown": r["host_slowdown"]}
            for r in records])
        result["predictions"] = records[-1]["predictions"]
        result["spans"] = records[-1]["spans"]
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def metric_lines(result: dict, benchmark: dict) -> List[str]:
    """``name value unit`` lines of every metric the run produced."""
    units = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer")
             for m in benchmark[group]}
    group = "per_layer" if result["traced"] else "end_to_end"
    lines = [f"  {metric:<44} {value:>16.6f} {units[metric]}"
             for metric, value in result[group].items()]
    lines.append(f"  {'jobs_failed':<44} {result['jobs_failed']:>16d} "
                 f"of {result['jobs_attempted']} attempted")
    return lines


def report(result: dict, benchmark: dict) -> None:
    """Print one run's metrics, failures and failed predictions."""
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']} seed={result['seed']} {mode} "
          f"iterations={result['iterations']} pool={result['pool']['name']}"
          f"x{result['pool']['workers']} "
          f"kernels={result['kernel_backend']} "
          f"golden={'yes' if result['golden'] else 'no (oracle)'}")
    for line in metric_lines(result, benchmark):
        print(line)
    print(f"  host_slowdown {result['host_slowdown']:.4f}; raw: "
          + ", ".join(f"{k}={v:.4f}" for k, v in result["raw"].items()))
    for prediction in result.get("predictions", ()):
        verdict = "holds" if prediction["holds"] else "FAILS (a finding)"
        print(f"  prediction: {prediction['prediction']}: {verdict}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def contract_line(result: dict, benchmark: dict) -> str:
    """The driver's result object (last line of standard output)."""
    group = "per_layer" if result["traced"] else "end_to_end"
    metrics = {m["name"]: {"value": result[group][m["name"]],
                           "unit": m["unit"]}
               for m in benchmark[group]}
    return json.dumps({
        "correct": result["jobs_failed"] == 0,
        "attempted": result["jobs_attempted"],
        "failed": result["jobs_failed"],
        "metrics": metrics,
    })


def regen_golden(results: Sequence[dict]) -> None:
    """Rewrite golden.json with the digests of the given runs."""
    golden = load_golden()
    for result in results:
        seeds = golden.setdefault(result["workload"], {})
        seeds[str(result["seed"])] = result["digests"]
    save_golden(golden)
    print(f"wrote {GOLDEN_PATH}")


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to the preset's own seed (default 0)")
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="repeat a workload while another iteration "
                             "fits in this budget")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: one pass (1 = traced), result "
                             "object on the last line")
    parser.add_argument("--traced", action="store_true",
                        help="add the traced pass after the untraced one")
    parser.add_argument("--json", type=Path, metavar="OUT",
                        help="write environment and all results here")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite golden.json from an oracle-checked run")
    parser.add_argument("--smoke", action="store_true",
                        help="same code paths on micro-sized job lists")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace measures one workload: give --workload")
    if args.regen_golden and args.smoke:
        parser.error("golden.json holds full-size results, not --smoke ones")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} is missing: nothing to measure",
              file=sys.stderr)
        return 2

    selected = [args.workload] if args.workload else names
    if args.trace is not None:
        passes = [bool(args.trace)]
    else:
        passes = [False, True] if args.traced else [False]
    results = []
    for name in selected:
        untraced_wall = None
        for traced in passes:
            result = measure(name, args.seed, args.seconds, traced,
                             smoke=args.smoke,
                             use_golden=not args.regen_golden)
            report(result, benchmark)
            if not traced:
                untraced_wall = result["end_to_end"]["wall_s"]
            elif untraced_wall is not None:
                ratio = (result["end_to_end"]["wall_s"] / untraced_wall)
                result["trace_overhead_ratio"] = ratio
                print(f"  {'bench.trace_overhead_ratio':<44} {ratio:>16.6f} "
                      f"ratio (traced wall_s / untraced wall_s)")
            results.append(result)
    failed = sum(r["jobs_failed"] for r in results)
    if args.regen_golden and not failed:
        regen_golden(results)
    if args.json is not None:
        for result in results:
            del result["digests"]
        args.json.write_text(json.dumps(
            {"environment": environment(), "results": results}, indent=1)
            + "\n", encoding="utf-8")
    if args.trace is not None:
        print(contract_line(results[0], benchmark))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
