"""Loop selection at the cache level, and the benchmark-owned stubs.

There is no window kernel and no backend to name any more — one
thread's stream through a stock cache whose ``access_line_hit`` no
instance attribute shadows is executed by the compiled ``loop``
rendering of its key; a run over any other cache is the reference
engine's, stepping its ``access_line_hit`` (the deep state diffs live in
``test_state.py``).
"""

import numpy as np
import pytest

from loop_window import loop_window
from repro.cache.cache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.base import make_policy
from repro.cache.state import rendered_key
from repro.cmp.engine import BatchedEngine, resolve_engine_name
from repro.cmp.simulator import CMPSimulator
from repro.config import ProcessorConfig, SimulationConfig, config_unpartitioned
from repro.workloads.trace import Trace


def make_cache(policy_name="lru", num_sets=8, assoc=8):
    geometry = CacheGeometry(num_sets * assoc * 128, assoc, 128)
    policy = make_policy(policy_name, num_sets, assoc,
                         rng=np.random.default_rng(3))
    return SetAssociativeCache(geometry, policy, partition=None,
                               num_cores=1)


def rebound(cache):
    """``cache`` with ``access_line_hit`` shadowed by a wrapper on the
    instance, so only stepping the classes is exact for it."""
    hit = cache.access_line_hit
    cache.access_line_hit = lambda line, core=0: hit(line, core)
    return cache


def one_thread_sim(policy_name, rebind=False):
    """A one-thread simulator over an unpartitioned L2 of
    ``policy_name``, its ``access_line_hit`` ``rebound`` if asked."""
    geometry = CacheGeometry(8 * 8 * 128, 8, 128)
    processor = ProcessorConfig(num_cores=1, l1i=CacheGeometry(512, 2, 128),
                                l1d=CacheGeometry(512, 2, 128), l2=geometry)
    trace = Trace("t", np.arange(400, dtype=np.int64) % 150, ipm=4.0,
                  cpi_base=1.0)
    sim = CMPSimulator(processor, config_unpartitioned(policy_name), [trace],
                       SimulationConfig(instructions_per_thread=1_000))
    if rebind:
        rebound(sim.hierarchy.l2)
    return sim


def assert_reference_only(sim, reason):
    """``auto`` takes ``sim`` to the reference engine, and the batched
    engine refuses it naming ``reason``."""
    assert resolve_engine_name("auto", sim) == "reference"
    with pytest.raises(ValueError, match=reason):
        BatchedEngine(sim)


class TestBuildDelegation:
    """(Test names date from the backend registry this file used to
    cover; each now pins the surviving half of its theorem.)"""

    def test_python_backend_returns_loop_kernel(self):
        """A run over a cache that rebound its ``access_line_hit`` is the
        reference engine's."""
        assert rendered_key(rebound(make_cache("lru"))) is None
        assert_reference_only(one_thread_sim("lru", rebind=True),
                              "the L2's access_line_hit is rebound")

    def test_array_backend_builds_for_eligible_kind(self):
        """A stock cache of a paper kind gets the fused loop of its key."""
        assert rendered_key(make_cache("lru")) == ("lru", "none")
        assert resolve_engine_name("auto", one_thread_sim("lru")) \
            == "batched"

    @pytest.mark.parametrize("policy_name",
                             ["random", "srrip", "dip", "fifo"])
    def test_ineligible_kind_falls_back_to_python(self, policy_name):
        """A policy without a kernel kind has no rendering: a run over it
        is the reference engine's, over the generic
        ``access_line_hit``."""
        assert rendered_key(make_cache(policy_name)) is None
        assert_reference_only(one_thread_sim(policy_name),
                              "no rendering of the L2's .*Policy with scheme "
                              "none")

    def test_backends_agree_on_a_shared_window(self):
        """End-to-end: the fused loop and the classes replay one window
        identically."""
        caches = {"fused": make_cache("nru"),
                  "call": rebound(make_cache("nru"))}
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 150, size=900).tolist()
        flags = {}
        for which, cache in caches.items():
            assert (rendered_key(cache) is None) == (which == "call")
            f = bytearray(len(lines))
            loop_window(cache)(lines, f)
            flags[which] = bytes(f)
        assert flags["fused"] == flags["call"]
        assert caches["fused"].stats.misses == caches["call"].stats.misses
        assert caches["fused"].stats.accesses \
            == caches["call"].stats.accesses
        assert [caches["fused"].resident_lines(s) for s in range(8)] \
            == [caches["call"].resident_lines(s) for s in range(8)]


def test_benchmark_owned_stubs_keep_their_surface():
    """``benchmarks/e2e`` imports these names, reads these keys and wraps
    the ``run`` each engine stub holds in its own ``__dict__``
    (``Tracer._wrap_method``); only a benchmark PR may stop it (ROADMAP
    item 5).  Nothing registers, exports or selects the stubs."""
    import repro.cmp
    import repro.cmp.engine as engine
    from repro.cache.kernels import array, resolve_kernel_backend
    from repro.cmp.engine import vector
    from repro.cmp.engine.solo import SoloEngine

    assert resolve_kernel_backend("auto") == "python"
    assert array.memo_stats() == {"cold_hits": 0, "cold_misses": 0,
                                  "cold_entries": 0}
    assert vector.memo_stats() == {"l1_hits": 0, "l1_misses": 0}
    for stub in (SoloEngine, vector.VectorEngine):
        assert callable(stub.__dict__["run"])
        with pytest.raises(NotImplementedError, match="was removed"):
            stub().run()
        assert stub not in engine._ENGINES.values()
        for package in (engine, repro.cmp):
            assert stub.__name__ not in package.__all__
            assert not hasattr(package, stub.__name__)
