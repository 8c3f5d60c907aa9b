"""Integration tests of the experiment harness at micro scale.

These catch API regressions in the figure modules without bench-level
runtimes: a 1/16-scale machine, very short traces and one mix per core
count.  The numbers are meaningless at this scale — the assertions check
*plumbing* (all cells present, relative baselines exactly 1.0, caching).
"""

import pytest

from repro.campaign.runner import run_serial
from repro.experiments import fig6, fig7, fig8, fig9, table1, table2
from repro.experiments.common import ExperimentScale, WorkloadRunner
from repro.experiments.report import format_tables
from repro.reporting.model import VERDICT_PASS, grade_points

MICRO = ExperimentScale(
    scale=16, accesses=4_000, target_cycles=300_000.0,
    atd_sampling=4, interval_cycles=100_000, seed=7,
    mixes_2t=("2T_05",), mixes_4t=("4T_03",), mixes_8t=("8T_11",),
    mixes_fig8=("2T_05",),
    benchmarks_1t=("crafty",),
)


@pytest.fixture(scope="module")
def runner():
    return WorkloadRunner(MICRO)


def _serial_results(module):
    """A figure's matrix run store-less, on a fresh runner."""
    return run_serial(module.matrix(MICRO), WorkloadRunner(MICRO))


class TestFig6Micro:
    @pytest.fixture(scope="class")
    def data(self):
        return fig6.assemble(MICRO, _serial_results(fig6))

    def test_all_cells_present(self, data):
        for metric in fig6.METRICS:
            for cores in fig6.CORE_COUNTS:
                if metric != "throughput" and cores == 1:
                    continue  # relative metrics need co-runners
                for policy in fig6.POLICIES:
                    assert policy in data.relative[metric][cores]

    def test_lru_is_unity(self, data):
        for metric in fig6.METRICS:
            for cores, per_policy in data.relative[metric].items():
                assert per_policy["lru"] == pytest.approx(1.0)

    def test_tables_render(self, data):
        blocks = fig6.tables(data)
        assert len(blocks) == len(fig6.METRICS)
        for metric, block in zip(fig6.METRICS, blocks):
            text = format_tables([block])
            assert f"Figure 6 ({metric})" in text
            assert "lru" in text


class TestFig7Micro:
    @pytest.fixture(scope="class")
    def results(self):
        return _serial_results(fig7)

    @pytest.fixture(scope="class")
    def data(self, results):
        return fig7.assemble(MICRO, results)

    def test_baseline_is_unity(self, data):
        for metric in fig7.METRICS:
            for cores, per_acronym in data.relative[metric].items():
                assert per_acronym["C-L"] == pytest.approx(1.0)

    def test_all_acronyms_present(self, data):
        for cores in fig7.CORE_COUNTS:
            for acronym in fig7.ACRONYMS:
                assert acronym in data.relative["throughput"][cores]

    def test_outcomes_cached_for_fig9(self, results):
        fig9_data = fig9.assemble(MICRO, results)
        for cores in fig9.CORE_COUNTS:
            assert fig9_data.relative_power[cores]["C-L"] == pytest.approx(1.0)
            assert fig9_data.relative_energy[cores]["C-L"] == pytest.approx(1.0)
        shares = fig9_data.breakdown_2core["C-L"]
        assert sum(shares.values()) == pytest.approx(1.0)
        # Profiling hardware stays a tiny share (paper: < 0.3 %).
        assert shares["profiling"] < 0.05

    def test_tables_render(self, data):
        blocks = fig7.tables(data)
        assert [b.title.split(":")[0] for b in blocks] == [
            f"Figure 7 ({metric})" for metric in fig7.METRICS]
        assert "Figure 7 (throughput)" in format_tables(blocks)


class TestFig8Micro:
    def test_pairs_and_average(self):
        data = fig8.assemble(MICRO, _serial_results(fig8))
        blocks = fig8.tables(data)
        assert len(blocks) == len(fig8.PAIRS)
        for (_, _, panel), block in zip(fig8.PAIRS, blocks):
            for size in fig8.L2_SIZES:
                assert size in data.average[panel]
                assert data.average[panel][size] > 0
            assert f"Figure 8 ({panel})" in format_tables([block])
            assert block.rows[-1][0] == "AVG"


class TestTables:
    def test_table1_checkpoints_all_pass(self):
        graded = grade_points(table1.points(), table1.references())
        assert len(graded) == 11
        assert all(p.verdict == VERDICT_PASS for p in graded)

    def test_table1_render(self):
        storage, events, _ = table1.tables(table1.assemble(None, {}))
        assert "8 KB" in format_tables([storage])
        assert "752" in format_tables([events])

    def test_table2_workloads(self):
        text = format_tables(table2.tables(table2.assemble(None, {}))[1:])
        assert "2T_01" in text and "8T_11" in text

    def test_table2_processor(self):
        text = format_tables(table2.tables(None)[:1])
        assert "2048" in text or "2MB" in text or "16" in text


class TestRunnerCaching:
    def test_traces_cached(self, runner):
        a = runner.traces_for(("crafty", "mcf"))
        b = runner.traces_for(("crafty", "mcf"))
        assert a is b

    def test_budgets_deterministic(self, runner):
        a = runner.budgets_for(("crafty", "mcf"))
        b = runner.budgets_for(("crafty", "mcf"))
        assert a == b
        assert all(budget >= 10_000 for budget in a)

    def test_same_outcome_metrics(self, runner):
        from repro.config import config_unpartitioned
        x = runner.run("2T_05", config_unpartitioned("lru"))
        y = runner.run("2T_05", config_unpartitioned("lru"))
        assert x.throughput == pytest.approx(y.throughput)
