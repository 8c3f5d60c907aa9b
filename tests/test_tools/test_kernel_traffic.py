"""Unit tests for tools/kernel_traffic.py (counting wrappers + verdict).

``measure`` patches ``BatchedEngine`` for the life of the process, so it
is exercised by CI's ``campaign-smoke`` job, not here.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cache import transitions
from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry

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
        "builds": {"hit": {"lru/none": 3}, "observe": {"lru/none": 1},
                   "loop": {"lru/none": 3}},
        "fragments": {
            "policy": {"lru": {"hit": 3, "observe": 1, "loop": 3}},
            "scheme": {"none": {"hit": 3, "loop": 3}},
        },
        "runs": {"1": 2, "2": 1},
        "cc": "/usr/bin/cc",
        "targets": {name: {"target": "c", "cache": "hit",
                           "build_s": 0.001, "binds": {"c": 1, "python": 0}}
                    for name in ("loop lru/none", "observe lru/none")},
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

    @pytest.mark.parametrize("name", ["loop lru/none", "observe lru/none"])
    def test_python_target_beside_a_compiler_is_a_problem(self, name):
        result = clean_result()
        result["targets"][name] = {
            "target": "python", "reason": "cc exited 1: boom",
            "binds": {"c": 0, "python": 1}}
        (message,) = kernel_traffic.problems(result)
        assert message == ("/usr/bin/cc is on PATH but stock kernels ran on "
                           "the Python target at micro: "
                           f"{name} (cc exited 1: boom)")

    def test_python_target_without_a_compiler_is_not(self):
        result = clean_result()
        result["cc"] = None
        for name in result["targets"]:
            result["targets"][name] = {
                "target": "python", "reason": "no C compiler (cc) on PATH",
                "binds": {"c": 0, "python": 1}}
        assert kernel_traffic.problems(result) == []

    def test_a_policy_whose_drains_were_never_bound_is_a_problem(self):
        """Never skipped green: an ATD built for the policy is not a
        drain run on either target."""
        result = clean_result()
        del result["targets"]["observe lru/none"]
        (message,) = kernel_traffic.problems(result)
        assert message == "no run at micro bound a drain kernel for: lru"


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
        stock = SetAssociativeCache(geometry, "nru")
        SetAssociativeCache(geometry, "fifo", rng=np.random.default_rng(0))
        transitions.bind("loop", ("nru", "none"), stock, None)
        transitions.bind("loop", None, stock, None)
    finally:
        transitions.bind = original
    assert builds == {"hit": {"nru/none": 1}, "observe": {},
                      "loop": {"nru/none": 1, "call": 1}}
    assert fragments["policy"]["nru"] == {"hit": 1, "observe": 0, "loop": 1}
    assert fragments["scheme"]["none"] == {"hit": 1, "loop": 1}

    runs = {}
    counted = kernel_traffic._counting_run(lambda engine: "result", runs)
    assert counted(SimpleNamespace(n=1)) == "result" and runs == {"1": 1}
