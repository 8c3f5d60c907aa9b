#!/usr/bin/env python
"""Kernel traffic audit: which spec fragments does a report render?

Wraps ``repro.cache.transitions.bind`` — the one entry point every
rendered kernel is built through — from outside ``src/``, runs one cold
serial ``repro report run --scale SCALE`` into a temporary store and
prints, as JSON, how many kernels each ``(policy, scheme)`` key built per
rendering (``observe`` / ``loop``, and the L1s' ``prefilter``, which
holds no fragment), the same counts per *policy fragment* and per
*scheme fragment*, and how many
times ``BatchedEngine.run`` was entered per thread count (``"1"`` is the
isolation jobs and the one-core figure points).  ``walks`` counts the L1
window walks (``SmallLRUCache.access_lines_hit``) beside the ``windows``
the engine loaded (``BatchedEngine._load_chunk``), and
``one_window_max`` is the most walks any run gave one thread whose trace
is a single window: the engine walks such a trace at most twice a run
(its *fixed window*), so more is exit status 1.

A registered fragment that renders nothing over a whole report is dead
weight — that is how the four non-paper hit kernels, the FIFO array path
and finally the per-access ``hit`` rendering itself were found — so the
exit status is 1 when a policy of ``transitions.POLICIES`` has zero
builds in either rendering or a scheme of ``transitions.SCHEMES`` has
zero ``loop`` builds.
``targets`` is ``transitions.target_stats()``: per stock ``loop`` key —
the ``*/none`` keys the single-thread runs bind included — per
``observe`` key the ATDs bound for their drains, and the L1s'
``prefilter``: ``c`` where the compiled kernel loaded, else
``unavailable (reason)``, and whether the object came from the cache or
was built; with ``cc`` on ``PATH`` a stock loop, drain or prefilter that
did not load is a failed or disabled build, and so is a policy whose
drains were never bound at all, or a report whose L1s never bound the
prefilter: the exit status is 1.  ``warm`` is the same ``targets`` from
a second report run in a fresh process against the same object cache
(``cc`` hosts only): a compiled object is found by its rendering, so
every key there must be a ``hit`` — one that was built again, or did not
load, is exit status 1.
CI runs this at ``micro`` in the ``campaign-smoke`` job.

Run from the repo root::

    python tools/kernel_traffic.py [--scale micro|small|paper]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
import weakref
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import cli  # noqa: E402
from repro.cache import transitions  # noqa: E402
from repro.cache.l1 import SmallLRUCache  # noqa: E402
from repro.cmp.engine import BatchedEngine, batched  # noqa: E402

#: Renderings a fragment of each table must reach.
RENDERINGS = {"policy": ("observe", "loop"),
              "scheme": ("loop",)}


def _counting_bind(bind, builds, fragments):
    def counted(rendering, key, owner, *args):
        label = "/".join(key)
        per_key = builds[rendering]
        per_key[label] = per_key.get(label, 0) + 1
        if rendering in RENDERINGS["policy"]:
            policy, scheme = key
            fragments["policy"][policy][rendering] += 1
            if rendering in RENDERINGS["scheme"]:
                fragments["scheme"][scheme][rendering] += 1
        return bind(rendering, key, owner, *args)

    return counted


def _counting_run(run, counts):
    def counted(self):
        threads = str(self.n)
        counts[threads] = counts.get(threads, 0) + 1
        return run(self)

    return counted


def _counting_walk(walk, walks):
    def counted(self, lines):
        walks["walks"] += 1
        return walk(self, lines)

    return counted


def _counting_load(load, walks):
    """Counts windows, and the walks of each one-window thread per run
    (per engine: one engine runs once)."""
    per_run = weakref.WeakKeyDictionary()

    def counted(self, t):
        walks["windows"] += 1
        before = walks["walks"]
        streaming = load(self, t)
        if self.lengths[t] <= batched.CHUNK_SIZE:
            threads = per_run.setdefault(self, [0] * self.n)
            threads[t] += walks["walks"] - before
            walks["one_window_max"] = max(walks["one_window_max"],
                                          threads[t])
        return streaming

    return counted


def measure(scale: str) -> dict:
    """Builds per rendering per key and per fragment, batched runs per
    thread count and L1 walks per window, over one cold serial report
    run."""
    runs = {}
    BatchedEngine.run = _counting_run(BatchedEngine.run, runs)
    walks = {"walks": 0, "windows": 0, "one_window_max": 0}
    SmallLRUCache.access_lines_hit = _counting_walk(
        SmallLRUCache.access_lines_hit, walks)
    BatchedEngine._load_chunk = _counting_load(BatchedEngine._load_chunk,
                                               walks)
    builds = {rendering: {}
              for rendering in RENDERINGS["policy"] + ("prefilter",)}
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
            "walks": walks,
            "cc": shutil.which("cc"),
            "targets": {f"{rendering} {'/'.join(key)}": dict(
                            entry, target=entry["target"]
                            or f"unavailable ({entry['reason']})")
                        for (rendering, key), entry
                        in sorted(transitions.target_stats().items())}}


def warm_targets(scale: str) -> dict:
    """``targets`` of a second :func:`measure` in a fresh process: what a
    warm object cache gives a process that has loaded nothing yet."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import kernel_traffic; "
            "result = kernel_traffic.measure(sys.argv[2]); "
            "print(json.dumps(result['targets']))")
    done = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent), scale],
        check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


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
    unavailable = [f"{label}: {entry['target']}"
                   for label, entry in result["targets"].items()
                   if entry["target"] != "c"]
    if result["cc"] and unavailable:
        found.append(f"{result['cc']} is on PATH but stock kernels did not "
                     f"load at {result['scale']}: {', '.join(unavailable)}")
    undrained = [policy for policy in result["fragments"]["policy"]
                 if f"observe {policy}/none" not in result["targets"]]
    if undrained:
        found.append(f"no run at {result['scale']} bound a drain kernel "
                     f"for: {', '.join(undrained)}")
    if result["walks"]["one_window_max"] > 2:
        found.append(f"a run at {result['scale']} walked a one-window "
                     f"thread {result['walks']['one_window_max']} times "
                     f"(at most 2: its fixed window)")
    prefilter = "prefilter " + "/".join(transitions.PREFILTER_KEY)
    if prefilter not in result["targets"]:
        found.append(f"no L1 at {result['scale']} bound the prefilter")
    unwarmed = [f"{label}: {entry.get('cache') or entry['target']}"
                for label, entry in result["warm"].items()
                if entry.get("cache") != "hit"]
    if result["cc"] and unwarmed:
        found.append(f"a second run at {result['scale']} on the same object "
                     f"cache did not load every key as a hit: "
                     f"{', '.join(unwarmed)}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="micro",
                        help="report scale to run (default: micro)")
    args = parser.parse_args(argv)
    result = measure(args.scale)
    result["warm"] = warm_targets(args.scale) if result["cc"] else {}
    print(json.dumps(result, indent=2))
    found = problems(result)
    for message in found:
        print(message, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
