"""Benchmark-owned stub; the solo engine is gone (``batched`` runs a
single thread as a heap of one)."""


class SoloEngine:
    """Kept only because ``benchmarks/e2e/tracing.py`` imports the class
    and wraps the ``run`` of its own ``__dict__``, and only a benchmark
    PR may edit it — ROADMAP item 5 drops the layer and this stub.
    Unregistered: no ``engine`` value leads here."""

    def run(self):
        """Always raises: there is no solo engine to run."""
        raise NotImplementedError("the solo engine was removed; "
                                  "engine='batched' runs one thread")
