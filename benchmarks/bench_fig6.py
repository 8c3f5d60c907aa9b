"""Regenerates Figure 6 — NRU and BT vs LRU on non-partitioned caches.

Expected shape (paper §V-A): pseudo-LRU trails LRU; NRU within ~2 %, BT
up to ~5 % down at 8 cores, gaps growing with core count.
"""

from benchmarks.conftest import SESSION_CACHE
from repro.experiments import fig6
from repro.experiments.report import format_tables


def test_fig6_regenerate(benchmark, scale, runner):
    data = benchmark.pedantic(
        lambda: fig6.run(scale, runner=runner), rounds=1, iterations=1)
    SESSION_CACHE["fig6"] = data
    print()
    print(format_tables(fig6.tables(data)))
    print()

    throughput = data.relative["throughput"]
    for cores in (2, 4, 8):
        for policy in ("nru", "bt"):
            rel = throughput[cores][policy]
            # Shape: pseudo-LRU does not beat LRU by more than noise, and
            # never collapses (paper: worst observed 5.3 %).
            assert rel < 1.05, f"{policy}@{cores}: {rel}"
            assert rel > 0.60, f"{policy}@{cores}: {rel}"
    # Growing-gap shape: the 8-core BT loss exceeds the 2-core loss.
    assert throughput[8]["bt"] <= throughput[2]["bt"] + 0.02
