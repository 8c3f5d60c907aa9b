"""Window-kernel selection: which ``build_set_run_kernel`` a cache gets.

There is no backend to name any more — a cache still running the
rendered hit kernel it recorded gets the ``window`` rendering of the
same spec, every other cache the derived loop over its
``access_line_hit`` (the deep state diffs live in ``test_state.py``).
"""

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.base import make_policy
from repro.cache.state import build_set_run_kernel


def make_cache(policy_name="lru", num_sets=8, assoc=8):
    geometry = CacheGeometry(num_sets * assoc * 128, assoc, 128)
    policy = make_policy(policy_name, num_sets, assoc,
                         rng=np.random.default_rng(3))
    return SetAssociativeCache(geometry, policy, partition=None,
                               num_cores=1, kernels=True)


def rebound(cache):
    """``cache`` with ``access_line_hit`` wrapped: it no longer runs the
    kernel it recorded, so only the derived loop is exact for it."""
    hit = cache.access_line_hit
    cache.access_line_hit = lambda line, core=0: hit(line, core)
    return cache


class TestBuildDelegation:
    """(Test names date from the backend registry this file used to
    cover; each now pins the surviving half of its theorem.)"""

    def test_python_backend_returns_loop_kernel(self):
        """The python loop is what a cache that rebound its kernel gets."""
        kernel = build_set_run_kernel(rebound(make_cache("lru")))
        assert kernel.__module__ == "repro.cache.state"

    def test_array_backend_builds_for_eligible_kind(self):
        """A stock cache of a paper kind gets the fast (rendered) window."""
        kernel = build_set_run_kernel(make_cache("lru"))
        assert kernel.__code__.co_filename == "<repro kernel lru/none window>"

    @pytest.mark.parametrize("policy_name",
                             ["random", "srrip", "dip", "fifo"])
    def test_ineligible_kind_falls_back_to_python(self, policy_name):
        """A policy without a kernel kind has no rendering: its window is
        the python loop over the generic ``access_line_hit``."""
        kernel = build_set_run_kernel(make_cache(policy_name))
        assert kernel.__module__ == "repro.cache.state"

    def test_backends_agree_on_a_shared_window(self):
        """End-to-end: the rendered window and the derived loop over the
        scalar hit kernel replay one window identically."""
        caches = {"rendered": make_cache("nru"),
                  "derived": rebound(make_cache("nru"))}
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 150, size=900).tolist()
        flags = {}
        for which, cache in caches.items():
            kernel = build_set_run_kernel(cache)
            assert (kernel.__module__ == "repro.cache.state") \
                == (which == "derived")
            f = bytearray(len(lines))
            kernel(lines, f)
            flags[which] = bytes(f)
        assert flags["rendered"] == flags["derived"]
        assert caches["rendered"].stats.misses \
            == caches["derived"].stats.misses
        assert caches["rendered"].stats.accesses \
            == caches["derived"].stats.accesses
        assert [caches["rendered"].resident_lines(s) for s in range(8)] \
            == [caches["derived"].resident_lines(s) for s in range(8)]


def test_benchmark_owned_stubs_keep_their_surface():
    """``benchmarks/e2e/workloads.py`` imports these two names and reads
    these keys; only a benchmark PR may stop it (ROADMAP item 3)."""
    from repro.cache.kernels import array, resolve_kernel_backend

    assert resolve_kernel_backend("auto") == "python"
    assert array.memo_stats() == {"cold_hits": 0, "cold_misses": 0,
                                  "cold_entries": 0}
