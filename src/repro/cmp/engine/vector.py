"""Benchmark-owned stub; the vector engine and its ``window`` kernels
are gone (``batched`` runs a single thread with one clock)."""


def memo_stats() -> dict:
    """Constant zeros: there is no L1 memo any more — the batched engine
    walks every window through the L1's compiled ``prefilter`` kernel,
    which costs less than a lookup did.  Kept only because
    ``benchmarks/e2e/workloads.py`` reads these keys and only a benchmark
    PR may edit it — ROADMAP item 7 drops the metric and this stub."""
    return {"l1_hits": 0, "l1_misses": 0}


class VectorEngine:
    """Kept only because ``benchmarks/e2e/tracing.py`` imports the class
    and wraps the ``run`` of its own ``__dict__`` — see
    :class:`repro.cmp.engine.solo.SoloEngine`."""

    def run(self):
        """Always raises: there is no vector engine to run."""
        raise NotImplementedError("the vector engine was removed; "
                                  "engine='batched' runs one thread")
