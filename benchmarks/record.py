"""Record benchmark rates to machine-readable JSON (CI perf canary).

Two recording modes::

    PYTHONPATH=src python benchmarks/record.py engine          # BENCH_engine.json
    PYTHONPATH=src python benchmarks/record.py campaign        # BENCH_campaign.json

``engine`` measures the end-to-end reference vs batched engine wall-clock
on the 4-core mix of ``bench_engine.py`` and the **six configs, one mix**
composite (``bench_engine.run_six_configs``), ATD drains of 2 K and of
130 sampled lines (``micro``'s median drain) per paper policy through
the compiled ``observe`` rendering and through the class's per-line
``ATD.observe`` (:func:`drain_rates`), and one 64 Ki-reference L1 window
through the compiled ``prefilter`` and through the class's per-access
``SmallLRUCache.access_line_hit`` (:func:`prefilter_rates`) — the class
paths are what a host without ``cc`` runs, on the reference engine —
each a best-of-``--repeats`` ``perf_counter``
loop, and how fast a fresh process loads the compiled kernels of every
stock key from a cold and from a warm object cache
(:func:`kernel_load_rates`), and each engine's best wall time per L2
access of its run (``ns_per_l2_access``, no floor).  (Single-thread runs
are the same engine and the same loop with one clock; their end-to-end
number is ``benchmarks/e2e``'s ``isolation_paper`` workload, not a row
here.)  ``campaign`` races the worker-pool implementations of
``bench_campaign.py --pool-modes`` (serial, persistent process pool,
remote loopback) and carries no floor.  The per-access rates of the
building blocks are ``bench_core_structures.py``'s, under
pytest-benchmark, with no floor: no report job calls a per-access kernel.

Every output file carries machine metadata (platform, CPU count, python and
numpy versions) so recorded rates are comparable only within a machine.

Compare mode (the CI perf-smoke gate)::

    python benchmarks/record.py engine --baseline benchmarks/BENCH_engine.json

exits nonzero when any floor key (``--floor-keys``, default
:data:`DEFAULT_ENGINE_FLOOR_KEYS`) falls below its floor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

#: Default floor keys for the ``engine`` target.  A ``cur/base`` entry
#: compares the *current* ``cur`` rate against the *baseline* ``base``
#: rate; a ``.`` prefix on the denominator (``cur/.base``) reads it from
#: the *current* recording instead — a same-machine, same-run ratio.
#: All four engine floors are of that kind, so the baseline file only
#: supplies the ``speedup_vs_baseline`` block: the batched engine against
#: the reference loop at ``bench_engine.SMOKE_FLOOR``; the drains'
#: canaries — over the three paper policies a compiled drain of 2 K
#: lines must run at 5x the class's per-line ``ATD.observe`` or better,
#: and one of 130 lines, where the call's fixed cost weighs most, at 8x
#: or better (the floors were set against the Python rendering the
#: kernels once had, measured ~72x and ~29x; the class path is the
#: slower denominator); and the L1 prefilter's — the compiled walk of a
#: window must run at 5x the per-access ``access_line_hit`` or better;
#: and a fresh process must load a kernel from a warm object cache at 2x
#: the rate it builds one from a cold cache or better — a warm load that
#: translates (or compiles) again falls toward 1x.  A host without
#: ``cc`` has no compiled kernel to time and fails here, it is never
#: skipped.
DEFAULT_ENGINE_FLOOR_KEYS = (
    "engine_batched/.engine_reference:5.0",
    "drain_compiled/.drain_classes:5.0",
    "drain_compiled_short/.drain_classes_short:8.0",
    "prefilter_compiled/.prefilter_classes:5.0",
    "kernel_load_warm/.kernel_load_cold:2.0",
)


def _machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "recorded_unix": int(time.time()),
    }


def _rate(setup, op, n_ops: int, repeats: int) -> float:
    """Best ops/sec over ``repeats`` runs; ``setup()`` re-arms each run."""
    best = float("inf")
    for _ in range(repeats):
        state = setup()
        start = time.perf_counter()
        op(state)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return n_ops / best


def drain_rates(repeats: int, batch_lines: int = 2048,
                short_lines: int = 130) -> dict:
    """Lines/sec of ATD drains per paper policy — ``drain_compiled_<p>``
    through the compiled ``observe`` kernel an ATD binds for its drains,
    ``drain_classes_<p>`` through the class's per-line ``ATD.observe``
    (a ``kernels=False`` ATD's ``observe_many``: what a host without
    ``cc`` runs) — and both composites over the three policies; batches
    of ``batch_lines`` and, as ``drain_*_short``, of ``short_lines`` (the
    median drain of a ``micro`` report), both as the ``array('q')`` the
    batched engine hands a drain.  The ATD is ``small``'s (and
    ``micro``'s): a 16-set 16-way directory."""
    from array import array

    from repro.cache.geometry import CacheGeometry
    from repro.profiling.atd import ATD
    from repro.profiling.profilers import make_profiler

    geometry = CacheGeometry(128 * 16 * 128, 16, 128)
    lines = np.random.default_rng(7).integers(
        0, 3000, size=batch_lines).astype(np.int64) * 8
    rates = {}
    for suffix, size, calls in (("", batch_lines, 20),
                                ("_short", short_lines, 300)):
        batch = array("q", lines[:size].tobytes())
        for policy in ("lru", "nru", "bt"):
            for side, kernels in (("compiled", True), ("classes", False)):
                def setup(policy=policy, kernels=kernels):
                    atd = ATD(geometry, 8, policy,
                              make_profiler(policy, 0.75), kernels=kernels)
                    atd.observe_many(array("q", lines.tobytes()))
                    return atd.observe_many

                def op(drain, calls=calls, batch=batch):
                    for _ in range(calls):
                        drain(batch)

                rates[f"drain_{side}{suffix}_{policy}"] = _rate(
                    setup, op, calls * size, repeats)
        for side in ("compiled", "classes"):
            rates[f"drain_{side}{suffix}"] = 3.0 / sum(
                1.0 / rates[f"drain_{side}{suffix}_{p}"]
                for p in ("lru", "nru", "bt"))
    return {key: round(value, 1) for key, value in rates.items()}


def prefilter_rates(repeats: int, window: int = 1 << 16) -> dict:
    """References/sec of one L1 window — ``prefilter_compiled`` through
    the compiled ``prefilter`` kernel a ``SmallLRUCache`` binds,
    ``prefilter_classes`` through its per-access ``access_line_hit``
    (what the reference engine steps, the only path on a host without
    ``cc``) — and both as ns per reference.  The L1 is the paper's
    (Table II: 128 sets, 2 ways), the window the first of a paper-scale
    ``mcf`` trace, walked over an L1 its previous repeat left warm."""
    from repro.cache.l1 import SmallLRUCache
    from repro.config import ProcessorConfig
    from repro.workloads.generator import generate_trace

    processor = ProcessorConfig(num_cores=1)
    lines = generate_trace("mcf", window, processor.l2.num_lines,
                           seed=42).lines
    listed = lines.tolist()
    windows = 20

    def compiled(l1):
        for _ in range(windows):
            l1.access_lines_hit(lines)

    def classes(l1):
        hit = l1.access_line_hit
        for line in listed:
            hit(line)

    rates = {}
    for side, op, calls in (("compiled", compiled, windows),
                            ("classes", classes, 1)):
        l1 = SmallLRUCache(processor.l1d)
        rates[f"prefilter_{side}"] = _rate(lambda l1=l1: l1, op,
                                           calls * window, repeats)
    return {"rates": {key: round(value, 1) for key, value in rates.items()},
            "ns_per_ref": {side: round(1e9 / rates[f"prefilter_{side}"], 2)
                           for side in ("compiled", "classes")}}


#: One fresh process's loads of every stock key's compiled kernel.
_LOAD_KEYS = """
import json, time
from repro.cache import native, transitions

keys = transitions.rendering_keys()
start = time.perf_counter()
for entry in keys:
    native.load(*entry)
print(json.dumps([time.perf_counter() - start, len(keys)]))
"""


def kernel_load_rates(repeats: int) -> dict:
    """Keys/sec at which a fresh process loads the compiled kernel of
    every stock key (:func:`repro.cache.native.load`) —
    ``kernel_load_cold`` on an empty object cache (render, translate,
    ``cc``, open), ``kernel_load_warm`` on the cache the cold process
    left (render, open, read the member table) — and both as ms per
    key.  Each repeat starts from its own empty temporary cache."""
    import subprocess
    import tempfile

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    best = {"cold": float("inf"), "warm": float("inf")}
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="kernel-load-") as home:
            for phase in ("cold", "warm"):
                done = subprocess.run(
                    [sys.executable, "-c", _LOAD_KEYS], check=True,
                    env=dict(env, XDG_CACHE_HOME=home),
                    stdout=subprocess.PIPE, text=True)
                seconds, keys = json.loads(done.stdout)
                best[phase] = min(best[phase], seconds / keys)
    return {"rates": {f"kernel_load_{phase}": round(1.0 / seconds, 1)
                      for phase, seconds in best.items()},
            "ms_per_key": {phase: round(seconds * 1e3, 2)
                           for phase, seconds in best.items()}}


def record_engine(accesses: int, repeats: int) -> dict:
    from bench_engine import run_once, run_six_configs

    timings, l2_accesses = {}, {}
    for engine in ("reference", "batched"):
        best = float("inf")
        for _ in range(repeats):
            elapsed, result = run_once(engine, accesses)
            if elapsed < best:
                best = elapsed
        timings[engine] = best
        l2_accesses[engine] = result.events.l2_accesses

    rates = {f"engine_{k}": round(4 * accesses / v, 1)
             for k, v in timings.items()}
    # Six configurations of the mix in one process (a figure sweep in
    # miniature).
    six_seconds, six_refs = run_six_configs(accesses)
    rates["engine_six_configs"] = round(six_refs / six_seconds, 1)
    rates.update(drain_rates(repeats))
    prefilter = prefilter_rates(repeats)
    rates.update(prefilter["rates"])
    loads = kernel_load_rates(repeats)
    rates.update(loads["rates"])
    return {
        "kind": "engine", "unit": "seconds", "machine": _machine(),
        "accesses_per_thread": accesses,
        "seconds": {k: round(v, 4) for k, v in timings.items()},
        # The engine's own cost per unit of simulated work, independent
        # of the L1 hit rate: best wall time over the run's L2 accesses.
        "ns_per_l2_access": {k: round(1e9 * v / l2_accesses[k], 2)
                             for k, v in timings.items()},
        "rates": rates,
        "prefilter_ns_per_ref": prefilter["ns_per_ref"],
        "kernel_load_ms_per_key": loads["ms_per_key"],
        "batched_speedup": round(timings["reference"] / timings["batched"], 3),
    }


def record_campaign(repeats: int, jobs: int = 2) -> dict:
    from bench_campaign import (
        POOL_BENCH_SCALE,
        bench_pool_modes,
        plan_jobs,
        pool_bench_matrix,
    )

    scale = POOL_BENCH_SCALE
    total = plan_jobs(pool_bench_matrix(scale)).total
    seconds = bench_pool_modes(scale, jobs=jobs, repeats=repeats,
                               echo=lambda msg: print(f"  {msg}"))
    rates = {f"campaign_{mode}": round(total / best, 2)
             for mode, best in seconds.items()}
    return {
        "kind": "campaign", "unit": "jobs/sec", "machine": _machine(),
        "jobs_total": total, "workers": jobs,
        "accesses_per_trace": scale.accesses,
        "seconds": {k: round(v, 4) for k, v in seconds.items()},
        "rates": rates,
        "persistent_vs_serial": round(
            seconds["serial"] / seconds["persistent"], 3),
    }


def check_floor(current: dict, baseline_path: Path, default_floor: float,
                keys) -> int:
    """Grade current rates against a baseline recording.

    ``keys`` entries are ``name`` or ``name:floor``; a bare name uses
    ``default_floor``.  A ``cur/base`` name compares the current ``cur``
    rate against the baseline's ``base`` rate; ``cur/.base`` reads the
    denominator from the *current* recording instead — a same-machine,
    same-run ratio floor.  Returns nonzero when any rate falls short.
    """
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    base_rates = baseline["rates"]
    cur_rates = current["rates"]
    failures = []
    for entry in keys:
        key, _, floor_text = entry.partition(":")
        floor = float(floor_text) if floor_text else default_floor
        cur_key, _, base_key = key.partition("/")
        base_key = base_key or cur_key
        if base_key.startswith("."):
            base_key = base_key[1:]
            denom_rates, denom_name = cur_rates, "current"
        else:
            denom_rates, denom_name = base_rates, "baseline"
        if base_key not in denom_rates or cur_key not in cur_rates:
            print(f"  floor: {key}: missing "
                  f"({denom_name} {base_key}: {base_key in denom_rates}, "
                  f"current {cur_key}: {cur_key in cur_rates})")
            failures.append(key)
            continue
        speedup = cur_rates[cur_key] / denom_rates[base_key]
        status = "ok" if speedup >= floor else "FAIL"
        print(f"  floor: {key}: {speedup:.2f}x vs {denom_name} "
              f"(floor {floor:.2f}x) {status}")
        if speedup < floor:
            failures.append(key)
    if failures:
        print(f"FAIL: {len(failures)} rate(s) below their floor "
              f"against {baseline_path}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+",
                        choices=("engine", "campaign"),
                        help="which recordings to produce")
    parser.add_argument("--out-dir", default=str(Path(__file__).parent),
                        help="directory for BENCH_*.json (default: benchmarks/)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions; best run is recorded")
    parser.add_argument("--engine-accesses", type=int,
                        default=int(os.environ.get("REPRO_ENGINE_ACCESSES",
                                                   "60000")),
                        help="references per thread for the engine recording")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to grade the rates against")
    parser.add_argument("--floor", type=float, default=2.0,
                        help="default minimum current/baseline rate ratio")
    parser.add_argument("--floor-keys", default=None,
                        help="comma-separated key[:floor] entries to check "
                             "(default: per-target floor sets)")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.baseline and len(dict.fromkeys(args.targets)) > 1:
        parser.error("--baseline grades one target at a time")
    status = 0
    for target in dict.fromkeys(args.targets):
        if target == "campaign":
            payload = record_campaign(args.repeats)
            out = out_dir / "BENCH_campaign.json"
            default_keys = ()
        else:
            payload = record_engine(args.engine_accesses, args.repeats)
            out = out_dir / "BENCH_engine.json"
            default_keys = DEFAULT_ENGINE_FLOOR_KEYS
        if args.baseline:
            # Self-contained recording: embed the baseline rates and the
            # measured speedups next to the current numbers.
            base = json.loads(
                Path(args.baseline).read_text(encoding="utf-8"))
            payload["baseline"] = str(args.baseline)
            payload["baseline_rates"] = base["rates"]
            payload["speedup_vs_baseline"] = {
                k: round(v / base["rates"][k], 3)
                for k, v in payload["rates"].items()
                if k in base["rates"] and base["rates"][k]
            }
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"wrote {out}")
        for key in sorted(payload["rates"]):
            print(f"  {key}: {payload['rates'][key]:,.0f} ops/sec")
        if target == "campaign":
            print(f"  persistent vs serial: "
                  f"{payload['persistent_vs_serial']:.2f}x")
        if target == "engine":
            print(f"  batched speedup: {payload['batched_speedup']:.2f}x")
        if args.baseline:
            keys = [k.strip()
                    for k in (args.floor_keys.split(",")
                              if args.floor_keys else default_keys)
                    if k.strip()]
            status |= check_floor(payload, Path(args.baseline), args.floor,
                                  keys)
    return status


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    sys.exit(main())
