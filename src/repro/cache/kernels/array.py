"""Benchmark-owned stub; the numpy window kernels are gone."""


def memo_stats() -> dict:
    """Constant zeros: the cold-window memo is gone (0 hits over whole
    reports).  Kept only because ``benchmarks/e2e/workloads.py`` reads
    these keys and only a benchmark PR may edit it — ROADMAP item 5
    drops the metric and this stub."""
    return {"cold_hits": 0, "cold_misses": 0, "cold_entries": 0}
