"""Regenerates Table II — baseline processor configuration and the 49
multiprogrammed workload mixes."""

from repro.experiments import table2
from repro.experiments.report import format_tables
from repro.workloads.mixes import ALL_WORKLOADS


def test_table2_regenerate(benchmark):
    blocks = benchmark(table2.tables)
    print()
    print(format_tables(blocks))
    assert len(blocks[1].rows) == len(ALL_WORKLOADS) == 49
