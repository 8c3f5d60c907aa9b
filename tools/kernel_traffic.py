#!/usr/bin/env python
"""Kernel traffic audit: which registered kernel kinds does a report build?

Wraps every factory in the three kernel tables — ``_HIT_KERNELS`` and
``_OBSERVE_MANY_KERNELS`` of ``repro.cache.state``, ``_ARRAY_KERNELS`` of
``repro.cache.kernels.array`` — from outside ``src/``, runs one cold
serial ``repro report run --scale SCALE`` into a temporary store and
prints, as JSON, how many kernels each kind built (a factory call that
returned a kernel; a ``None`` return is a delegation, not a build) and
how many times each fast engine's ``run`` was entered (a vector run that
delegates to solo counts under both).

A registered kind that builds nothing over a whole report is dead weight
— that is how the four non-paper hit kernels and the FIFO array path were
found — so the exit status is 1 when any kind has zero builds.  It is
also 1 when the vector runs and the array-kernel builds differ: the
vector engine hands whole windows to the kernel untouched because every
shipped single-thread run gets an array kernel, which does its own
grouping.  CI runs this at ``micro`` in the ``campaign-smoke`` job.

Run from the repo root::

    python tools/kernel_traffic.py [--scale micro|small|paper]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import cli  # noqa: E402
from repro.cache import state  # noqa: E402
from repro.cache.kernels import array  # noqa: E402
from repro.cmp.engine import BatchedEngine, SoloEngine, VectorEngine  # noqa: E402

TABLES = {
    "hit": state._HIT_KERNELS,
    "observe_many": state._OBSERVE_MANY_KERNELS,
    "array": array._ARRAY_KERNELS,
}
ENGINES = (VectorEngine, SoloEngine, BatchedEngine)


def _counting(factory, counts, kind):
    def build(owner):
        kernel = factory(owner)
        if kernel is not None:
            counts[kind] += 1
        return kernel

    return build


def _counting_run(run, counts, name):
    def counted(self):
        counts[name] += 1
        return run(self)

    return counted


def measure(scale: str) -> dict:
    """Builds per table per kind, and runs per engine, over one cold
    serial report run."""
    builds = {}
    runs = dict.fromkeys((engine.name for engine in ENGINES), 0)
    for engine in ENGINES:
        engine.run = _counting_run(engine.run, runs, engine.name)
    for name, table in TABLES.items():
        builds[name] = counts = dict.fromkeys(table, 0)
        for kind, factory in table.items():
            table[kind] = _counting(factory, counts, kind)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="kernel-traffic-") as store:
        with contextlib.redirect_stdout(sys.stderr):
            status = cli.main(["report", "run", "--scale", scale,
                               "--jobs", "1", "--store", store])
    if status:
        raise SystemExit(f"report run --scale {scale} exited {status}")
    return {"scale": scale,
            "wall_s": round(time.perf_counter() - start, 1),
            "builds": builds,
            "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="micro",
                        help="report scale to run (default: micro)")
    args = parser.parse_args(argv)
    result = measure(args.scale)
    print(json.dumps(result, indent=2))
    unused = [f"{name}:{kind}" for name, counts in result["builds"].items()
              for kind, n in counts.items() if not n]
    if unused:
        print(f"kernel kinds with zero builds at {args.scale}: "
              f"{', '.join(unused)}", file=sys.stderr)
        return 1
    array_builds = sum(result["builds"]["array"].values())
    if array_builds != result["runs"]["vector"]:
        print(f"{result['runs']['vector']} vector runs but {array_builds} "
              f"array-kernel builds at {args.scale}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
