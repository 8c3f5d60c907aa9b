"""Benchmark-owned stub; the vector engine and its ``window`` kernels
are gone (``batched`` runs a single thread as a heap of one)."""

from repro.cmp.engine.common import window_cache_stats


def memo_stats() -> dict:
    """Counters of the window cache (:func:`.common.window_cache_stats`),
    the one prefilter cache the batched engine keeps, under
    ``window_cache``.  The flat ``l1_hits`` / ``l1_misses`` (= lookups -
    hits) repeat them only because ``benchmarks/e2e/workloads.py`` reads
    these keys and only a benchmark PR may edit it — ROADMAP item 5
    drops both."""
    cache = window_cache_stats()
    return {"l1_hits": cache["hits"],
            "l1_misses": cache["lookups"] - cache["hits"],
            "window_cache": cache}


class VectorEngine:
    """Kept only because ``benchmarks/e2e/tracing.py`` imports the class
    and wraps the ``run`` of its own ``__dict__`` — see
    :class:`repro.cmp.engine.solo.SoloEngine`."""

    def run(self):
        """Always raises: there is no vector engine to run."""
        raise NotImplementedError("the vector engine was removed; "
                                  "engine='batched' runs one thread")
