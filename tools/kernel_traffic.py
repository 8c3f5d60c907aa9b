#!/usr/bin/env python
"""Kernel traffic audit: which spec fragments does a report render?

Wraps ``repro.cache.transitions.bind`` — the one entry point every
rendered kernel is built through — from outside ``src/``, runs one cold
serial ``repro report run --scale SCALE`` into a temporary store and
prints, as JSON, how many kernels each ``(policy, scheme)`` key built per
rendering (``hit`` / ``observe`` / ``loop``; ``call`` is the call-form
loop), the same counts per *policy fragment* and per *scheme fragment*,
and how many times ``BatchedEngine.run`` was entered per thread count
(``"1"`` is the isolation jobs and the one-core figure points).

A registered fragment that renders nothing over a whole report is dead
weight — that is how the four non-paper hit kernels and the FIFO array
path were found — so the exit status is 1 when a policy of
``transitions.POLICIES`` has zero builds in any rendering or a scheme of
``transitions.SCHEMES`` has zero ``hit`` or ``loop`` builds.
``targets`` is ``transitions.target_stats()``: per stock ``loop`` key —
the ``*/none`` keys the single-thread runs bind included — and per
``observe`` key the runs bound for their ATD drains, the target its
calls got (``c`` or ``python``), whether the object came from the cache
or was built, and why it fell back; with ``cc`` on ``PATH`` a stock loop
or drain on the Python target is a failed or disabled build, and so is a
policy whose drains were never bound at all: the exit status is 1.  CI
runs this at ``micro`` in the ``campaign-smoke`` job.

Run from the repo root::

    python tools/kernel_traffic.py [--scale micro|small|paper]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import cli  # noqa: E402
from repro.cache import transitions  # noqa: E402
from repro.cmp.engine import BatchedEngine  # noqa: E402

#: Renderings a fragment of each table must reach.
RENDERINGS = {"policy": ("hit", "observe", "loop"),
              "scheme": ("hit", "loop")}


def _counting_bind(bind, builds, fragments):
    def counted(rendering, key, owner, *args, **kwargs):
        label = "call" if key is None else "/".join(key)
        per_key = builds[rendering]
        per_key[label] = per_key.get(label, 0) + 1
        if key is not None:
            policy, scheme = key
            fragments["policy"][policy][rendering] += 1
            if rendering in RENDERINGS["scheme"]:
                fragments["scheme"][scheme][rendering] += 1
        return bind(rendering, key, owner, *args, **kwargs)

    return counted


def _counting_run(run, counts):
    def counted(self):
        threads = str(self.n)
        counts[threads] = counts.get(threads, 0) + 1
        return run(self)

    return counted


def measure(scale: str) -> dict:
    """Builds per rendering per key and per fragment, and batched runs
    per thread count, over one cold serial report run."""
    runs = {}
    BatchedEngine.run = _counting_run(BatchedEngine.run, runs)
    builds = {rendering: {} for rendering in RENDERINGS["policy"]}
    fragments = {
        "policy": {name: dict.fromkeys(RENDERINGS["policy"], 0)
                   for name in transitions.POLICIES},
        "scheme": {name: dict.fromkeys(RENDERINGS["scheme"], 0)
                   for name in transitions.SCHEMES},
    }
    transitions.bind = _counting_bind(transitions.bind, builds, fragments)
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
            "fragments": fragments,
            "runs": runs,
            "cc": shutil.which("cc"),
            "targets": {f"{rendering} {'/'.join(key)}": entry
                        for (rendering, key), entry
                        in sorted(transitions.target_stats().items())}}


def problems(result: dict) -> list:
    """What makes the exit status 1 (module docstring), as messages."""
    found = []
    unused = [f"{table}:{name}:{rendering}"
              for table, names in result["fragments"].items()
              for name, counts in names.items()
              for rendering, n in counts.items() if not n]
    if unused:
        found.append(f"registered fragments with zero builds at "
                     f"{result['scale']}: {', '.join(unused)}")
    interpreted = [f"{label} ({entry.get('reason', 'no reason recorded')})"
                   for label, entry in result["targets"].items()
                   if entry["target"] != "c"]
    if result["cc"] and interpreted:
        found.append(f"{result['cc']} is on PATH but stock kernels ran on "
                     f"the Python target at {result['scale']}: "
                     f"{', '.join(interpreted)}")
    undrained = [policy for policy in result["fragments"]["policy"]
                 if f"observe {policy}/none" not in result["targets"]]
    if undrained:
        found.append(f"no run at {result['scale']} bound a drain kernel "
                     f"for: {', '.join(undrained)}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="micro",
                        help="report scale to run (default: micro)")
    args = parser.parse_args(argv)
    result = measure(args.scale)
    print(json.dumps(result, indent=2))
    found = problems(result)
    for message in found:
        print(message, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
