"""Record benchmark rates to machine-readable JSON (CI perf canary).

Two recording modes::

    PYTHONPATH=src python benchmarks/record.py core            # BENCH_core.json
    PYTHONPATH=src python benchmarks/record.py engine          # BENCH_engine.json
    PYTHONPATH=src python benchmarks/record.py campaign        # BENCH_campaign.json
    PYTHONPATH=src python benchmarks/record.py core engine     # both

``core`` measures the raw operation rates of the building blocks (cache
accesses under each replacement policy, ATD observation, the L1 paths) with
a best-of-``--repeats`` ``perf_counter`` loop — the same setups as
``bench_core_structures.py`` but without the pytest-benchmark harness, so it
runs in seconds and emits stable ops/sec numbers.  ``campaign`` races the
worker-pool implementations of ``bench_campaign.py --pool-modes`` (serial,
persistent process pool, remote loopback) and carries no floor.
``engine`` measures the
end-to-end reference vs batched engine wall-clock on the 4-core mix of
``bench_engine.py`` and the **six configs, one mix** composite
(``bench_engine.run_six_configs``) with its window-cache lookups and
hits, and one ATD drain of 2 K sampled lines per paper policy through
both targets of the ``observe`` rendering (:func:`drain_rates`).
(Single-thread runs are the same engine and the same loop at a
heap of one; their end-to-end number is ``benchmarks/e2e``'s
``isolation_paper`` workload, not a row here.)

Every output file carries machine metadata (platform, CPU count, python and
numpy versions) so recorded rates are comparable only within a machine.

Compare mode (the CI perf-smoke gate)::

    python benchmarks/record.py core --baseline benchmarks/BENCH_core_seed.json \
        --floor 2.0 --floor-keys cache_access_lru,atd_observe_lru

exits nonzero when any ``--floor-keys`` rate is below ``floor x`` the
baseline's rate.  ``benchmarks/BENCH_core_seed.json`` is the committed
pre-refactor (per-object tag/policy state) recording the flat array core is
graded against.
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

#: Default floor-checked keys (``key:floor``; a bare key uses ``--floor``).
#: The headline array-core targets are the *composite* cache-access and
#: ATD-observe rates over the paper's three policies (total ops / total
#: time for lru+nru+bt) at >=2x; the per-policy entries are regression
#: guards at a level that stays clear of timing noise (NRU's seed state
#: was already a flat bitmask, so it has the least Python overhead to
#: shed — its per-policy ratio sits around 1.8-2.0x).
DEFAULT_FLOOR_KEYS = (
    "cache_access_core3:2.0",
    "atd_observe_core3:2.0",
    "cache_access_lru:1.4",
    "cache_access_nru:1.4",
    "cache_access_bt:1.4",
    "atd_observe_lru:1.4",
    "atd_observe_nru:1.4",
    "atd_observe_bt:1.4",
)

#: Default floor keys for the ``engine`` target.  A ``cur/base`` entry
#: compares the *current* ``cur`` rate against the *baseline* ``base``
#: rate; a ``.`` prefix on the denominator (``cur/.base``) reads it from
#: the *current* recording instead — a same-machine, same-run ratio.
#: Both engine floors are of that kind, so the baseline file only
#: supplies the ``speedup_vs_baseline`` block: the batched engine against
#: the reference loop at ``bench_engine.SMOKE_FLOOR``, and a floor on a
#: *count*, not a speed — over six configurations of one mix at least
#: 75 % of the window-cache lookups must hit (measured 90 %; a key that
#: starts to include anything per-job leaves only the within-run
#: recurrences, ~42 %), so a change that silently stops sharing windows
#: across configurations fails here instead of passing unnoticed.  The
#: third is the drains' canary: over the three paper policies a compiled
#: drain of 2 K lines — state copied in and out included — must run at
#: 5x the Python rendering or better (measured ~8x; a host without ``cc``
#: drains in Python and fails here, it is never skipped).
DEFAULT_ENGINE_FLOOR_KEYS = (
    "engine_batched/.engine_reference:5.0",
    "six_configs_window_hits/.six_configs_window_lookups:0.75",
    "drain_compiled/.drain_python:5.0",
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


def record_core(repeats: int) -> dict:
    from repro.cache.cache import SetAssociativeCache
    from repro.cache.geometry import CacheGeometry
    from repro.cache.l1 import SmallLRUCache
    from repro.profiling.atd import ATD
    from repro.profiling.profilers import make_profiler

    geometry = CacheGeometry(128 * 16 * 128, 16, 128)   # 128 sets x 16 ways
    stream = [int(x) for x in
              np.random.default_rng(0).integers(0, 4096, size=20_000)]
    stream_arr = np.asarray(stream, dtype=np.int64)
    n = len(stream)
    rates = {}

    # The three kernelised policies, plus ``fifo`` as the one row of the
    # generic object-protocol path every other policy runs.
    for policy in ("lru", "nru", "bt", "fifo"):
        def setup(policy=policy):
            cache = SetAssociativeCache(geometry, policy,
                                        rng=np.random.default_rng(1))
            return cache.access_line_hit

        def op(access):
            for line in stream:
                access(line)

        rates[f"cache_access_{policy}"] = _rate(setup, op, n, repeats)

    # ATD observation is measured two ways: ``atd_observe_<p>`` feeds a
    # fully-sampled stream (every line lands in a sampled set) and measures
    # the tag-directory + profiler machinery itself — the floor-checked
    # quantity; ``atd_observe_mixed_<p>`` feeds the natural 1-in-8 stream
    # whose skipped accesses cost only a mask test (hoisted into
    # ``ProfilingSystem.observe`` on the simulator path).
    sampled_stream = [int(x) * 8 for x in
                      np.random.default_rng(7).integers(0, 512, size=20_000)]
    for policy in ("lru", "nru", "bt"):
        def setup(policy=policy):
            atd = ATD(geometry, 8, policy, make_profiler(policy),
                      rng=np.random.default_rng(2))
            return atd.observe

        def op_sampled(observe):
            for line in sampled_stream:
                observe(line)

        def op_mixed(observe):
            for line in stream:
                observe(line)

        rates[f"atd_observe_{policy}"] = _rate(setup, op_sampled, n, repeats)
        rates[f"atd_observe_mixed_{policy}"] = _rate(setup, op_mixed, n,
                                                     repeats)

    l1_geometry = CacheGeometry(32 * 2 * 128, 2, 128)

    def l1_setup():
        return SmallLRUCache(l1_geometry).access_line_hit

    def l1_op(access):
        for line in stream:
            access(line)

    rates["l1_access"] = _rate(l1_setup, l1_op, n, repeats)

    def l1_bulk_setup():
        return SmallLRUCache(l1_geometry).access_lines_hit

    def l1_bulk_op(access_lines):
        access_lines(stream_arr)

    rates["l1_bulk_access"] = _rate(l1_bulk_setup, l1_bulk_op, n, repeats)

    # Composite rates over the paper's three policies: total operations /
    # total wall-clock — the headline quantity the >=2x floor applies to.
    for composite, prefix in (("cache_access_core3", "cache_access_"),
                              ("atd_observe_core3", "atd_observe_")):
        rates[composite] = 3.0 / sum(1.0 / rates[prefix + p]
                                     for p in ("lru", "nru", "bt"))

    return {"kind": "core", "unit": "ops/sec", "machine": _machine(),
            "rates": {k: round(v, 1) for k, v in rates.items()}}


def drain_rates(repeats: int, batch_lines: int = 2048) -> dict:
    """Lines/sec of one ATD drain per paper policy on each target of the
    ``observe`` rendering — ``drain_compiled_<p>`` is the kernel
    ``BatchedEngine.run`` binds for its drains (per-call state copy
    included), ``drain_python_<p>`` the rendering the ATD keeps for
    itself — and both composites over the three policies.  The ATD is
    ``small``'s: a 128-set 16-way L2 sampled 1 in 8."""
    from repro.cache import transitions
    from repro.cache.geometry import CacheGeometry
    from repro.profiling.atd import ATD
    from repro.profiling.profilers import make_profiler

    geometry = CacheGeometry(128 * 16 * 128, 16, 128)
    batch = np.random.default_rng(7).integers(
        0, 3000, size=batch_lines).astype(np.int64) * 8
    rates = {}
    for policy in ("lru", "nru", "bt"):
        def setup(policy=policy):
            atd = ATD(geometry, 8, policy, make_profiler(policy, 0.75))
            compiled = transitions.bind("observe", (policy, "none"), atd)
            warm = batch if hasattr(compiled, "ints") else batch.tolist()
            compiled(warm)                  # directory past its cold fill
            return atd.observe_many, compiled, warm

        def op_compiled(state):
            _python, compiled, lines = state
            for _ in range(20):
                compiled(lines)

        def op_python(state):
            python, _compiled, _lines = state
            lines = batch.tolist()
            for _ in range(20):
                python(lines)

        n = 20 * batch_lines
        rates[f"drain_compiled_{policy}"] = _rate(setup, op_compiled, n,
                                                  repeats)
        rates[f"drain_python_{policy}"] = _rate(setup, op_python, n, repeats)
    for target in ("compiled", "python"):
        rates[f"drain_{target}"] = 3.0 / sum(
            1.0 / rates[f"drain_{target}_{p}"] for p in ("lru", "nru", "bt"))
    return {key: round(value, 1) for key, value in rates.items()}


def record_engine(accesses: int, repeats: int) -> dict:
    from bench_engine import run_once, run_six_configs

    timings = {}
    for engine in ("reference", "batched"):
        best = float("inf")
        for _ in range(repeats):
            elapsed, _ = run_once(engine, accesses)
            if elapsed < best:
                best = elapsed
        timings[engine] = best

    rates = {f"engine_{k}": round(4 * accesses / v, 1)
             for k, v in timings.items()}
    # Six configurations of the mix in one process (a figure sweep in
    # miniature).
    six_seconds, six_refs, cache = run_six_configs(accesses)
    rates["engine_six_configs"] = round(six_refs / six_seconds, 1)
    rates["six_configs_window_lookups"] = cache["lookups"]
    rates["six_configs_window_hits"] = cache["hits"]
    rates.update(drain_rates(repeats))
    return {
        "kind": "engine", "unit": "seconds", "machine": _machine(),
        "accesses_per_thread": accesses,
        "seconds": {k: round(v, 4) for k, v in timings.items()},
        "rates": rates,
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
                        choices=("core", "engine", "campaign"),
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
                        help="baseline JSON to grade the 'core' rates against")
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
        if target == "core":
            payload = record_core(args.repeats)
            out = out_dir / "BENCH_core.json"
            default_keys = DEFAULT_FLOOR_KEYS
        elif target == "campaign":
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
