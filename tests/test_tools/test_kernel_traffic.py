"""Unit tests for tools/kernel_traffic.py (counting wrappers + verdict).

``measure`` patches engine classes for the life of the process, so it is
exercised by CI's ``campaign-smoke`` job, not here.
"""

import importlib.util
from pathlib import Path

import numpy as np

from repro.cache import transitions
from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.state import build_set_run_kernel

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
        "builds": {"hit": {"lru/none": 3}, "window": {"lru/none": 2},
                   "observe": {"lru/none": 1}, "loop": {"lru/none": 1},
                   "derived": 1},
        "fragments": {
            "policy": {"lru": {"hit": 3, "window": 2, "observe": 1,
                               "loop": 1}},
            "scheme": {"none": {"hit": 3, "loop": 1}},
        },
        "runs": {"vector": 3, "solo": 0, "batched": 1},
        "cc": "/usr/bin/cc",
        "targets": {"lru/none": {"target": "c", "cache": "hit",
                                 "build_s": 0.001,
                                 "binds": {"c": 1, "python": 0}}},
    }


class TestProblems:
    def test_clean_result_has_none(self):
        assert kernel_traffic.problems(clean_result()) == []

    def test_fragment_with_zero_builds_is_named(self):
        result = clean_result()
        result["fragments"]["policy"]["lru"]["window"] = 0
        result["builds"]["window"] = {}
        result["builds"]["derived"] = 3
        (message,) = kernel_traffic.problems(result)
        assert "policy:lru:window" in message

    def test_vector_runs_must_equal_window_plus_derived_builds(self):
        result = clean_result()
        result["runs"]["vector"] = 4
        (message,) = kernel_traffic.problems(result)
        assert message.startswith("4 vector runs but 2 rendered-window "
                                  "+ 1 derived-loop builds")


    def test_python_target_beside_a_compiler_is_a_problem(self):
        result = clean_result()
        result["targets"]["lru/none"] = {
            "target": "python", "reason": "cc exited 1: boom",
            "binds": {"c": 0, "python": 1}}
        (message,) = kernel_traffic.problems(result)
        assert message.startswith("/usr/bin/cc is on PATH but stock loops "
                                  "ran on the Python target at micro: "
                                  "lru/none (cc exited 1: boom)")

    def test_python_target_without_a_compiler_is_not(self):
        result = clean_result()
        result["cc"] = None
        result["targets"]["lru/none"] = {
            "target": "python", "reason": "no C compiler (cc) on PATH",
            "binds": {"c": 0, "python": 1}}
        assert kernel_traffic.problems(result) == []


def test_wrappers_count_rendered_and_derived_windows():
    geometry = CacheGeometry(8 * 4 * 128, 4, 128)
    builds = {rendering: {} for rendering in
              kernel_traffic.RENDERINGS["policy"]}
    builds["derived"] = 0
    fragments = {
        "policy": {name: dict.fromkeys(kernel_traffic.RENDERINGS["policy"], 0)
                   for name in transitions.POLICIES},
        "scheme": {name: dict.fromkeys(kernel_traffic.RENDERINGS["scheme"], 0)
                   for name in transitions.SCHEMES},
    }
    bind = kernel_traffic._counting_bind(transitions.bind, builds, fragments)
    build = kernel_traffic._counting_derived(build_set_run_kernel, builds)
    stock = SetAssociativeCache(geometry, "nru")
    generic = SetAssociativeCache(geometry, "fifo",
                                  rng=np.random.default_rng(0))
    original, transitions.bind = transitions.bind, bind
    try:
        flags = bytearray(2)
        build(stock)([1, 1], flags)
        build(generic)([1, 1], bytearray(2))
    finally:
        transitions.bind = original
    assert bytes(flags) == b"\x00\x01"
    assert builds["window"] == {"nru/none": 1} and builds["derived"] == 1
    assert fragments["policy"]["nru"]["window"] == 1
