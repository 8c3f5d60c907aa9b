"""Regenerates Figure 8 — partitioning gains vs L2 capacity (2-core CMP).

Expected shape (§V-B): partitioned/non-partitioned throughput ratio grows
as the cache shrinks (paper: LRU +8 % at 512 KB vs +0.2 % at 2 MB; BT
+8.1 % vs +0.5 %; NRU capped under ~2 % by eSDH estimation error).
"""

from benchmarks.conftest import SESSION_CACHE
from repro.experiments import fig8
from repro.experiments.report import format_tables


def test_fig8_regenerate(benchmark, scale, runner):
    data = benchmark.pedantic(
        lambda: fig8.run(scale, runner=runner), rounds=1, iterations=1)
    SESSION_CACHE["fig8"] = data
    print()
    print(format_tables(fig8.tables(data)))
    print()

    small, large = min(fig8.L2_SIZES), max(fig8.L2_SIZES)
    for _, _, panel in fig8.PAIRS:
        avg = data.average[panel]
        # Partitioning never collapses throughput on average.
        for size in fig8.L2_SIZES:
            assert avg[size] > 0.85, f"{panel}@{size}: {avg[size]}"
    # Directional sanity for LRU: partitioning gains at the small cache.
    # The paper's *average* decays monotonically toward 2 MB; on this
    # substrate the streamer mixes (mcf/art class) keep contention alive at
    # every capacity, so the average flattens instead of decaying — the
    # friendly mixes individually match the paper's shape.  EXPERIMENTS.md
    # records the per-mix tables and the gap.
    lru = data.average["M-L vs LRU"]
    assert lru[small] >= 1.0
    # Friendly mixes reproduce the paper's near-1.0 large-cache point.
    for mix in ("2T_05", "2T_21", "2T_22"):
        if mix in data.per_mix["M-L vs LRU"][large]:
            assert abs(data.per_mix["M-L vs LRU"][large][mix] - 1.0) < 0.06
