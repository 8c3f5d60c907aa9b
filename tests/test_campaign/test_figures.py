"""Acceptance pin: campaign figure sweeps are byte-identical to serial.

The headline criterion of the campaign layer — a full fig6 sweep through
the worker pool must produce *byte-identical* metrics to the serial
``fig6.assemble(scale, run_serial(fig6.matrix(scale), runner))`` path
(not approximately equal: identical operand order, identical floats), and
a second invocation must complete from cache with zero simulations
executed.
"""

import pytest

from repro.campaign.runner import Campaign, run_serial
from repro.campaign.store import ResultStore
from repro.cli import main
from repro.experiments import fig6, fig7, fig9
from repro.experiments.common import WorkloadRunner
from repro.experiments.report import format_tables


class TestFig6ByteIdentity:
    @pytest.fixture(scope="class")
    def serial_data(self, micro_scale):
        return fig6.assemble(micro_scale, run_serial(
            fig6.matrix(micro_scale), WorkloadRunner(micro_scale)))

    @pytest.fixture(scope="class")
    def campaign(self, micro_scale, tmp_path_factory):
        """One pool run of the full fig6 matrix on a shared store."""
        store = ResultStore(tmp_path_factory.mktemp("fig6-store"))
        results, report = Campaign(store, workers=2).run(fig6.matrix(micro_scale))
        return store, results, report

    def test_full_fig6_sweep_matches_serial_bitwise(self, micro_scale,
                                                    campaign, serial_data):
        _, results, report = campaign
        data = fig6.assemble(micro_scale, results)
        # Dict equality on nested float dicts == bitwise equality.
        assert data.relative == serial_data.relative
        assert report.executed == report.total

    def test_second_invocation_zero_simulations(self, micro_scale, campaign,
                                                serial_data):
        store, _, _ = campaign
        results, report = Campaign(store, workers=2).run(fig6.matrix(micro_scale))
        assert report.executed == 0
        data = fig6.assemble(micro_scale, results)
        assert data.relative == serial_data.relative

    def test_rendered_tables_identical(self, micro_scale, campaign,
                                       serial_data):
        _, results, _ = campaign
        data = fig6.assemble(micro_scale, results)
        assert fig6.tables(data) == fig6.tables(serial_data)
        assert (format_tables(fig6.tables(data))
                == format_tables(fig6.tables(serial_data)))


class TestFig9SharesFig7Jobs:
    def test_fig9_assembles_from_fig7_results(self, micro_scale, store):
        assert fig9.matrix(micro_scale) == fig7.matrix(micro_scale)
        results, report = Campaign(store, workers=2).run(fig9.matrix(micro_scale))
        data = fig9.assemble(micro_scale, results)
        for cores in fig9.CORE_COUNTS:
            assert data.relative_power[cores]["C-L"] == pytest.approx(1.0)
        # Running fig7 afterwards is a pure cache hit: shared jobs.
        _, again = Campaign(store, workers=2).run(fig7.matrix(micro_scale))
        assert again.executed == 0


class TestCampaignCli:
    SCALE_FLAGS = ["--scale", "16", "--accesses", "2000",
                   "--target-cycles", "200000", "--seed", "7"]

    def test_run_smoke_then_cache_hit(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ["campaign", "run", "smoke", "--jobs", "1",
                "--store", store] + self.SCALE_FLAGS
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed=4" in out and "smoke" in out
        assert main(argv + ["--expect-cached"]) == 0
        out = capsys.readouterr().out
        assert "executed=0" in out

    def test_expect_cached_fails_on_cold_store(self, tmp_path, capsys):
        argv = ["campaign", "run", "smoke", "--jobs", "1", "--store",
                str(tmp_path / "cold"), "--expect-cached"] + self.SCALE_FLAGS
        assert main(argv) == 1

    def test_status_and_clean(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["campaign", "run", "smoke", "--jobs", "1", "--store", store]
             + self.SCALE_FLAGS)
        capsys.readouterr()
        assert main(["campaign", "status", "smoke", "--store", store]
                    + self.SCALE_FLAGS) == 0
        out = capsys.readouterr().out
        assert "campaign status" in out and "smoke" in out
        assert main(["campaign", "clean", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "removed 4" in out

    def test_tables_run_with_zero_jobs(self, tmp_path, capsys):
        assert main(["campaign", "run", "table1", "table2", "--jobs", "1",
                     "--store", str(tmp_path / "store")]
                    + self.SCALE_FLAGS) == 0
        out = capsys.readouterr().out
        assert "Table I(a)" in out and "Table II" in out
        assert "total=0" in out

    def test_unknown_target_raises(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "run", "fig99",
                  "--store", str(tmp_path / "store")])
        assert exit_info.value.code == 2
