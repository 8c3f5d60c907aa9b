"""Unit tests for tools/kernel_traffic.py (counting wrappers + verdict).

``measure`` patches ``BatchedEngine`` for the life of the process, so it
is exercised by CI's ``campaign-smoke`` job, not here.
"""

import importlib.util
from array import array
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cache import transitions
from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import SmallLRUCache
from repro.profiling.atd import ATD
from repro.profiling.profilers import make_profiler

_SPEC = importlib.util.spec_from_file_location(
    "kernel_traffic",
    Path(__file__).resolve().parents[2] / "tools" / "kernel_traffic.py",
)
kernel_traffic = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(kernel_traffic)


def clean_result():
    """The shape ``measure`` returns, with every count healthy."""
    return {
        "scale": "micro",
        "builds": {"observe": {"lru/none": 1}, "loop": {"lru/none": 3},
                   "prefilter": {"lru/none": 4}},
        "fragments": {
            "policy": {"lru": {"observe": 1, "loop": 3}},
            "scheme": {"none": {"loop": 3}},
        },
        "runs": {"1": 2, "2": 1},
        "walks": {"walks": 6, "windows": 9, "one_window_max": 2},
        "cc": "/usr/bin/cc",
        "targets": {name: {"target": "c", "cache": "hit",
                           "build_s": 0.001, "binds": 1, "compiled": 1}
                    for name in ("loop lru/none", "observe lru/none",
                                 "prefilter lru/none")},
        "warm": {name: {"target": "c", "cache": "hit", "build_s": 0.001,
                        "binds": 1, "compiled": 1}
                 for name in ("loop lru/none", "observe lru/none",
                              "prefilter lru/none")},
    }


class TestProblems:
    def test_clean_result_has_none(self):
        assert kernel_traffic.problems(clean_result()) == []

    def test_fragment_with_zero_builds_is_named(self):
        result = clean_result()
        result["fragments"]["policy"]["lru"]["observe"] = 0
        result["builds"]["observe"] = {}
        (message,) = kernel_traffic.problems(result)
        assert "policy:lru:observe" in message

    @pytest.mark.parametrize("name", ["loop lru/none", "observe lru/none",
                                      "prefilter lru/none"])
    def test_unavailable_kernel_beside_a_compiler_is_a_problem(self, name):
        result = clean_result()
        result["targets"][name] = {
            "target": "unavailable (cc exited 1: boom)",
            "reason": "cc exited 1: boom", "binds": 1, "compiled": 0}
        (message,) = kernel_traffic.problems(result)
        assert message == ("/usr/bin/cc is on PATH but stock kernels did "
                           "not load at micro: "
                           f"{name}: unavailable (cc exited 1: boom)")

    @pytest.mark.parametrize("entry", [
        {"target": "c", "cache": "built", "build_s": 0.09},
        {"target": "unavailable (cc exited 1: boom)",
         "reason": "cc exited 1: boom"}])
    def test_a_key_a_warm_second_run_did_not_hit_is_a_problem(self, entry):
        """A fresh process on the cache the first run left must find
        every object by its rendering."""
        result = clean_result()
        result["warm"]["loop lru/none"] = dict(entry, binds=1, compiled=0)
        (message,) = kernel_traffic.problems(result)
        state = entry.get("cache") or entry["target"]
        assert message == ("a second run at micro on the same object cache "
                           "did not load every key as a hit: "
                           f"loop lru/none: {state}")

    def test_unavailable_kernels_without_a_compiler_are_not(self):
        result = clean_result()
        result["cc"] = None
        result["warm"] = {}
        for name in result["targets"]:
            result["targets"][name] = {
                "target": "unavailable (no C compiler (cc) on PATH)",
                "reason": "no C compiler (cc) on PATH", "binds": 1,
                "compiled": 0}
        assert kernel_traffic.problems(result) == []

    def test_a_policy_whose_drains_were_never_bound_is_a_problem(self):
        """Never skipped green: an ATD built for the policy is not a
        drain run."""
        result = clean_result()
        del result["targets"]["observe lru/none"]
        (message,) = kernel_traffic.problems(result)
        assert message == "no run at micro bound a drain kernel for: lru"

    def test_a_one_window_thread_walked_three_times_is_a_problem(self):
        result = clean_result()
        result["walks"]["one_window_max"] = 3
        (message,) = kernel_traffic.problems(result)
        assert message == ("a run at micro walked a one-window thread 3 "
                           "times (at most 2: its fixed window)")

    def test_a_report_whose_l1s_never_bound_the_prefilter_is_a_problem(self):
        result = clean_result()
        del result["targets"]["prefilter lru/none"]
        (message,) = kernel_traffic.problems(result)
        assert message == "no L1 at micro bound the prefilter"


def test_wrappers_count_builds_per_key_and_runs_per_thread_count():
    geometry = CacheGeometry(8 * 4 * 128, 4, 128)
    builds = {rendering: {} for rendering in
              kernel_traffic.RENDERINGS["policy"]}
    fragments = {
        "policy": {name: dict.fromkeys(kernel_traffic.RENDERINGS["policy"], 0)
                   for name in transitions.POLICIES},
        "scheme": {name: dict.fromkeys(kernel_traffic.RENDERINGS["scheme"], 0)
                   for name in transitions.SCHEMES},
    }
    bind = kernel_traffic._counting_bind(transitions.bind, builds, fragments)
    original, transitions.bind = transitions.bind, bind
    try:
        # A cache binds nothing; an ATD binds its drain kernel.
        stock = SetAssociativeCache(geometry, "nru")
        SetAssociativeCache(geometry, "fifo", rng=np.random.default_rng(0))
        ATD(geometry, 2, "nru", make_profiler("nru"))
        column = np.zeros(1, dtype=np.int64)
        transitions.bind("loop", ("nru", "none"), stock, None,
                         transitions.LoopRun(
                             1, 1, 0.0, 0.0, column, column,
                             array("d", [0.0]), array("q", [0]),
                             array("q", [0]), array("d", [0.0]),
                             array("q", [0]), array("d", [0.0])))
    finally:
        transitions.bind = original
    assert builds == {"observe": {"nru/none": 1}, "loop": {"nru/none": 1}}
    assert fragments["policy"]["nru"] == {"observe": 1, "loop": 1}
    assert fragments["scheme"]["none"] == {"loop": 1}

    runs = {}
    counted = kernel_traffic._counting_run(lambda engine: "result", runs)
    assert counted(SimpleNamespace(n=1)) == "result" and runs == {"1": 1}


@pytest.mark.parametrize("chunk, one_window_max", [(1 << 16, 2), (512, 0)])
def test_wrappers_count_walks_and_windows(monkeypatch, chunk,
                                          one_window_max):
    """One 1 500-reference trace per thread, run for eight passes: walked
    twice, then its fixed window, while the windows keep coming.  Cut
    into 512-reference windows it is no one-window trace, and every
    window is walked."""
    from repro.cmp.engine import batched
    from repro.config import PartitioningConfig
    from repro.fuzz import FuzzCase
    from repro.workloads.trace import Trace

    monkeypatch.setattr(batched, "CHUNK_SIZE", chunk)
    walks = {"walks": 0, "windows": 0, "one_window_max": 0}
    monkeypatch.setattr(SmallLRUCache, "access_lines_hit",
                        kernel_traffic._counting_walk(
                            SmallLRUCache.access_lines_hit, walks))
    monkeypatch.setattr(batched.BatchedEngine, "_load_chunk",
                        kernel_traffic._counting_load(
                            batched.BatchedEngine._load_chunk, walks))
    traces = [Trace(f"t{core}", np.random.default_rng(core).integers(
                  0, 40, size=1500) + (core << 20), ipm=4.0, cpi_base=1.0)
              for core in range(2)]
    case = FuzzCase(traces=traces, l1_sets=2, l1_assoc=2, l2_sets=16,
                    l2_assoc=8, instructions_per_thread=8 * 1500 * 4,
                    per_thread_instructions=(8 * 1500 * 4,) * 2,
                    partitioning=PartitioningConfig(policy="lru",
                                                    enforcement="none"))
    case.simulator("batched").run()
    assert walks["one_window_max"] == one_window_max
    assert walks["windows"] >= 2 * 8 * 1500 // chunk
    if chunk > 1500:
        assert walks["walks"] == 4 < walks["windows"]
    else:
        assert walks["walks"] == walks["windows"]
