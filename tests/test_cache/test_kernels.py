"""Kernel-backend registry: resolution matrix and build delegation.

The registry's contract has two halves — *name resolution* (``auto`` /
env override / unknown-name errors) and *build delegation* (``array``
without a kernel for the cache at hand falls back to ``python`` without
error).
"""

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.kernels import (
    ENV_KERNEL_BACKEND,
    available_backends,
    build_set_run_kernel,
    resolve_kernel_backend,
)
from repro.cache.replacement.base import make_policy
from repro.config import SimulationConfig


def make_cache(policy_name="lru", num_sets=8, assoc=8):
    geometry = CacheGeometry(num_sets * assoc * 128, assoc, 128)
    policy = make_policy(policy_name, num_sets, assoc,
                         rng=np.random.default_rng(3))
    return SetAssociativeCache(geometry, policy, partition=None,
                               num_cores=1, kernels=True)


class TestResolution:
    def test_concrete_names_resolve_to_themselves(self):
        assert resolve_kernel_backend("python") == "python"
        assert resolve_kernel_backend("array") == "array"

    def test_auto_without_numba_is_array(self, monkeypatch):
        monkeypatch.delenv(ENV_KERNEL_BACKEND, raising=False)
        assert resolve_kernel_backend("auto") == "array"
        assert available_backends() == ("array", "python")

    def test_removed_numba_backend_is_rejected_everywhere(self, monkeypatch):
        """The backend is gone, not dormant: the name fails validation at
        every entry point, and the error lists what is left."""
        known = r"\['array', 'auto', 'python'\]"
        with pytest.raises(ValueError, match=known):
            resolve_kernel_backend("numba")
        with pytest.raises(ValueError, match=known):
            SimulationConfig(kernel_backend="numba")
        monkeypatch.setenv(ENV_KERNEL_BACKEND, "numba")
        with pytest.raises(ValueError,
                           match="REPRO_KERNEL_BACKEND.*" + known):
            resolve_kernel_backend("auto")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_kernel_backend("cython")

    def test_env_overrides_auto_only(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL_BACKEND, "python")
        assert resolve_kernel_backend("auto") == "python"
        # An explicit config value always wins over the environment.
        assert resolve_kernel_backend("array") == "array"

    def test_env_rejects_unknown_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL_BACKEND, "fortran")
        with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
            resolve_kernel_backend("auto")

    def test_blank_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL_BACKEND, "  ")
        assert resolve_kernel_backend("auto") == "array"

    def test_simulation_config_validates_backend(self):
        assert SimulationConfig().kernel_backend == "auto"
        assert SimulationConfig(kernel_backend="array").kernel_backend \
            == "array"
        with pytest.raises(ValueError):
            SimulationConfig(kernel_backend="cython")


class TestBuildDelegation:
    def test_python_backend_returns_loop_kernel(self):
        kernel = build_set_run_kernel(make_cache("lru"), "python")
        assert kernel.__module__ == "repro.cache.state"

    def test_array_backend_builds_for_eligible_kind(self):
        kernel = build_set_run_kernel(make_cache("lru"), "array")
        assert kernel is not None
        assert kernel.__module__ == "repro.cache.kernels.array"

    @pytest.mark.parametrize("policy_name",
                             ["random", "srrip", "dip", "fifo"])
    def test_ineligible_kind_falls_back_to_python(self, policy_name):
        cache = make_cache(policy_name)
        kernel = build_set_run_kernel(cache, "array")
        assert kernel is not None
        assert kernel.__module__ == "repro.cache.state"

    def test_auto_builds_the_array_kernel(self, monkeypatch):
        monkeypatch.delenv(ENV_KERNEL_BACKEND, raising=False)
        kernel = build_set_run_kernel(make_cache("lru"), "auto")
        assert kernel.__module__ == "repro.cache.kernels.array"

    def test_env_steers_default_config_to_python(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL_BACKEND, "python")
        kernel = build_set_run_kernel(make_cache("lru"), "auto")
        assert kernel.__module__ == "repro.cache.state"

    def test_backends_agree_on_a_shared_window(self):
        """End-to-end: both concrete local backends replay one window
        identically (the deep diff lives in test_state.py)."""
        caches = {b: make_cache("nru") for b in ("python", "array")}
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 150, size=900).tolist()
        flags = {}
        for backend, cache in caches.items():
            f = bytearray(len(lines))
            build_set_run_kernel(cache, backend)(lines, f)
            flags[backend] = bytes(f)
        assert flags["python"] == flags["array"]
        assert caches["python"].stats.misses == caches["array"].stats.misses
        assert [caches["python"].resident_lines(s) for s in range(8)] \
            == [caches["array"].resident_lines(s) for s in range(8)]
