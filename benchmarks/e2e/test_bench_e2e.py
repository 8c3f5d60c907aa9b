"""Tier-1 checks of the end-to-end benchmark harness (seconds, not minutes).

The workloads themselves are far too long for the test suite; these tests
pin the harness around them: names, the BENCHMARK.json <-> registry <->
printed-metric agreement, span and digest arithmetic, and a ``--smoke``
pass (same code paths, micro-sized job lists) that must leave nothing
behind.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import digest  # noqa: E402
import run as harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = harness.load_benchmark()
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# BENCHMARK.json <-> registry
# ----------------------------------------------------------------------
def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             + END_TO_END + PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"]
                 if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_workloads_agree_with_registry():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    registered = {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert declared == registered
    for why in declared.values():
        assert "\n" not in why and len(why) <= 200


# ----------------------------------------------------------------------
# Smoke: same code paths on micro-sized job lists
# ----------------------------------------------------------------------
def _wrapped_attributes():
    from repro.campaign import hashing, runner
    from repro.campaign.store import ResultStore
    from repro.cmp.engine.batched import BatchedEngine
    from repro.profiling.atd import ATD
    return [(BatchedEngine, "run"), (ATD, "__init__"), (ResultStore, "get"),
            (runner, "job_key"), (runner, "execute_job"),
            (hashing, "job_key")]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_iteration(name, tmp_path):
    before = [owner.__dict__[attr] for owner, attr in _wrapped_attributes()]
    untraced = workloads.run_iteration(name, 0, tmp_path / "untraced",
                                       smoke=True)
    traced = workloads.run_iteration(name, 0, tmp_path / "traced",
                                     traced=True, smoke=True)
    after = [owner.__dict__[attr] for owner, attr in _wrapped_attributes()]
    assert all(a is b for a, b in zip(before, after)), "wrapper left behind"

    for record in (untraced, traced):
        assert record["jobs_failed"] == 0, record["failures"]
        assert record["jobs_attempted"] > 0
        assert list(record["end_to_end"]) == END_TO_END
        assert all(v > 0 for k, v in record["end_to_end"].items()
                   if k != "setup_s")  # no interpreter start in process
    assert "per_layer" not in untraced and "spans" not in untraced
    # The harness adds the host-speed probe's reading to the child's layers.
    assert (set(traced["per_layer"]) | {"bench.host_slowdown"}
            == set(PER_LAYER))
    # Tracing must not change what is simulated.
    assert traced["counts"] == untraced["counts"]
    layers = traced["per_layer"]
    assert layers["oracle.checked"] == 1 and layers["oracle.mismatches"] == 0
    assert layers["cmp.engine.refs"] == traced["counts"]["cmp.engine.refs"]
    assert layers["bench.spans"] == len(traced["spans"]) > 0
    assert set(traced["spans"][0]) == {"name", "start", "end", "parent",
                                       "job", "n"}
    if name == "micro_report_pool2":
        assert traced["pool"] == {"name": "process", "workers": 2}
        assert layers["reporting.points"] > 0
        assert layers["campaign.pool.parallel_eff"] > 0
    else:
        assert traced["pool"] == {"name": "serial", "workers": 1}
        # Serial runs see every layer: the instrument agrees with the
        # simulator's own counters.
        assert (layers["core.controller.boundary.calls"]
                == traced["counts"]["core.controller.repartitions"])
        assert (layers["campaign.store.put.calls"]
                == traced["jobs_attempted"] - layers["oracle.checked"])
        assert layers["campaign.store.put.bytes"] > 0


def test_driver_form_prints_every_metric_and_cleans_up():
    scratch = ROOT / ".bench_e2e"
    before = set(scratch.glob("*"))
    for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
             "isolation_paper", "--seed", "3", "--seconds", "1",
             "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT)
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == expected
        units = {m["name"]: m["unit"] for m in
                 BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
        for metric, entry in result["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == units[metric]
        printed = {line.split()[0] for line in lines[:-1]
                   if line.startswith("  ") and len(line.split()) >= 3}
        assert set(expected) <= printed
        assert "jobs_failed" in printed
    assert set(scratch.glob("*")) == before, "temp store left behind"


def test_refuses_without_the_program_and_with_altering_environment(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    command = [sys.executable, str(bare / "benchmarks" / "e2e" / "run.py"),
               "--workload", "fig7_partitioned", "--seed", "0",
               "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=bare)
    assert done.returncode != 0 and done.stdout == ""

    env = dict(os.environ, REPRO_KERNEL_BACKEND="python")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
         "isolation_paper", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, env=env)
    assert done.returncode != 0
    assert "REPRO_KERNEL_BACKEND" in done.stderr


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _span(name, start, end, parent=-1, n=0):
    return [name, float(start), float(end), parent, None, n]


def test_self_time_with_overlapping_children():
    parent = _span("p", 0, 10)
    children = [_span("a", 1, 4), _span("b", 3, 6),   # overlap 3..4
                _span("c", 8, 12),                    # overhangs the parent
                _span("d", 2, 3)]                     # inside a
    assert tracing.child_cover(parent, children) == pytest.approx(7.0)
    assert tracing.self_time(parent, children) == pytest.approx(3.0)
    assert tracing.self_time(parent, []) == pytest.approx(10.0)


def test_layer_totals_count_outermost_spans_once():
    spans = [
        _span(tracing.TIMED, 0, 100),
        _span("cmp.engine.batched.run", 10, 50, parent=0, n=4),
        _span("cache.l1.prefilter", 12, 20, parent=1, n=1000),  # rw ...
        _span("cache.l1.prefilter", 13, 19, parent=2, n=1000),  # ... -> hit
        _span("core.controller.boundary", 30, 35, parent=1),
        _span("cmp.engine.batched.run", 60, 70, parent=0, n=2),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["cache.l1.prefilter"] == {
        "calls": 1, "s": 8.0, "self_s": 2.0, "n": 1000}
    batched = totals["cmp.engine.batched.run"]
    assert (batched["calls"], batched["s"]) == (2, 50.0)
    assert batched["self_s"] == pytest.approx(50.0 - 8.0 - 5.0)
    assert totals["cmp.engine.batched.run.4t"]["self_s"] == pytest.approx(27)
    assert totals["cmp.engine.batched.run.2t"]["self_s"] == pytest.approx(10)


def test_tracer_restores_what_it_wraps():
    class Layer:
        def work(self, lines):
            return len(lines)

    original = Layer.__dict__["work"]
    tracer = tracing.Tracer(True)
    tracer._wrap_method(Layer, "work", "layer.work",
                        measure=lambda args, result: result)
    with tracer.span("outer"):
        assert Layer().work([1, 2, 3]) == 3
    tracer.uninstall()
    assert Layer.__dict__["work"] is original
    assert [s[tracing.NAME] for s in tracer.spans] == ["outer", "layer.work"]
    assert tracer.spans[1][tracing.PARENT] == 0
    assert tracer.spans[1][tracing.N] == 3
    off = tracing.Tracer(False)
    with off.span("ignored"):
        pass
    assert off.spans == []


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
class ThreadResult:  # same name as the program's class, fields reordered
    def __init__(self, **fields):
        for name in reversed(digest.FIELDS["ThreadResult"]):
            setattr(self, name, fields[name])
        self.added_later = "ignored"


def test_digest_is_stable_under_reordering():
    fields = dict(name="mcf", instructions=1e6, cycles=2.5e6,
                  l1_accesses=10, l1_misses=4, l2_accesses=4, l2_misses=1)
    one = ThreadResult(**fields)
    other = ThreadResult(**dict(reversed(list(fields.items()))))
    assert digest.result_digest(one) == digest.result_digest(other)
    assert (digest.result_digest({"b": [1, 2.0], "a": one})
            == digest.result_digest({"a": other, "b": [1, 2.0]}))
    # Exact, not approximate: one ulp moves the digest; int != float.
    fields["cycles"] = 2.5e6 + 4.6566128730773926e-10
    assert digest.result_digest(ThreadResult(**fields)) \
        != digest.result_digest(one)
    assert digest.result_digest(1) != digest.result_digest(1.0)
    assert digest.diff_fields(one, ThreadResult(**fields)) == [".cycles"]
    with pytest.raises(TypeError):
        digest.result_digest(object())


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def test_compare_reports_unresolved_not_unchanged():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    noisy = [10.0, 14.0, 8.0, 12.0, 9.0, 13.0, 8.5, 11.0, 10.0, 12.5]
    assert compare.verdict(steady, steady, "lower", 0.1) == "within bound"
    assert compare.verdict(steady, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(steady, [v * 1.3 for v in steady],
                           "lower", 0.1) == "regressed"
    assert compare.verdict(steady, [v * 0.5 for v in steady],
                           "lower", 0.1) == "gain"
    assert compare.verdict(steady[:4], [v * 0.5 for v in steady[:4]],
                           "lower", 0.1) == "within bound"  # too few pairs
    assert compare.verdict(noisy, [v * 0.2 for v in noisy],
                           "lower", 0.1) == "better in every run"
    assert compare.verdict(steady, [v * 0.7 for v in steady],
                           "higher", 0.1) == "regressed"
