"""Acceptance pin: report values are byte-identical to serial ``run()``.

The report's numeric path is campaign store -> ``assemble()`` -> section
builder; the serial reference path is ``run_serial`` -> the same
``assemble()``.  This suite runs Figure 6 both ways at the micro scale and
asserts every rendered artifact — table cells, chart series, graded
points — is *identical* (float equality, not approx), plus a cheap
end-to-end build over the simulation-free table sections.
"""

import json

import pytest

from repro.campaign.runner import run_serial
from repro.cli import main
from repro.campaign.store import ResultStore
from repro.experiments import fig6
from repro.experiments.common import (
    ExperimentScale,
    WorkloadRunner,
    resolve_scale,
    scale_preset,
)
from repro.reporting import build
from repro.reporting.emit import (
    emit_html,
    emit_json,
    emit_markdown,
    report_from_dict,
    report_to_dict,
    validate_report_dict,
    write_report,
)
from repro.reporting.sections import SECTIONS, resolve_sections


class TestFig6ReportIdentity:
    @pytest.fixture(scope="class")
    def serial_section(self, micro_scale):
        """Figure 6 section built from the serial reference path."""
        results = run_serial(fig6.matrix(micro_scale),
                             WorkloadRunner(micro_scale))
        return SECTIONS["fig6"].build(micro_scale, results)

    @pytest.fixture(scope="class")
    def report_section(self, micro_scale, tmp_path_factory):
        """Figure 6 section built through the campaign store (2 workers)."""
        store = ResultStore(tmp_path_factory.mktemp("report-store"))
        report, campaign_report = build.build_report(
            micro_scale, store, [SECTIONS["fig6"]], scale_name="micro",
            workers=2)
        assert campaign_report.executed == campaign_report.total
        return report.sections[0]

    def test_points_bitwise_identical(self, serial_section, report_section):
        assert len(report_section.points) == len(serial_section.points)
        for got, want in zip(report_section.points, serial_section.points):
            assert got == want  # dataclass equality == float bit equality

    def test_tables_identical(self, serial_section, report_section):
        assert report_section.tables == serial_section.tables

    def test_charts_identical(self, serial_section, report_section):
        assert report_section.charts == serial_section.charts

    def test_every_point_has_a_verdict(self, report_section):
        assert report_section.points
        for point in report_section.points:
            assert point.verdict in ("pass", "warn", "fail")


class TestTablesEndToEnd:
    """Simulation-free full pipeline: build -> emit -> validate -> reload."""

    @pytest.fixture(scope="class")
    def table_report(self, micro_scale, tmp_path_factory):
        store = ResultStore(tmp_path_factory.mktemp("table-store"))
        report, _ = build.build_report(
            micro_scale, store, resolve_sections(["table1", "table2"]),
            scale_name="micro")
        return report

    def test_all_table_points_pass(self, table_report):
        counts = table_report.verdict_counts()
        assert counts["fail"] == 0 and counts["warn"] == 0
        assert counts["pass"] == table_report.total_points

    def test_emitters_produce_all_three_artifacts(self, table_report,
                                                  tmp_path):
        paths = write_report(table_report, tmp_path / "out")
        for kind in ("json", "md", "html"):
            assert paths[kind].is_file()
            assert paths[kind].stat().st_size > 0

    def test_emitted_json_validates_and_round_trips(self, table_report):
        payload = report_to_dict(table_report)
        assert validate_report_dict(payload) == []
        assert report_to_dict(report_from_dict(payload)) == payload

    def test_emitters_are_deterministic(self, table_report):
        assert emit_json(table_report) == emit_json(table_report)
        assert emit_markdown(table_report) == emit_markdown(table_report)
        assert emit_html(table_report) == emit_html(table_report)


class TestManifestHandoff:
    def test_run_then_flagless_build_reuses_scale(self, micro_scale,
                                                  tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = resolve_sections(["table1"])
        build.write_manifest(store, "micro", micro_scale, specs)
        manifest = build.read_manifest(store)
        assert manifest["scale_name"] == "micro"
        assert manifest["sections"] == ["table1"]
        assert build.scale_from_dict(manifest["scale"]) == micro_scale

    def test_corrupt_manifest_reads_as_none(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        path = build.manifest_path(store)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert build.read_manifest(store) is None

    def test_missing_manifest_reads_as_none(self, tmp_path):
        assert build.read_manifest(ResultStore(tmp_path / "none")) is None

    @pytest.mark.parametrize("damage", [
        lambda payload: payload.pop("scale"),
        lambda payload: payload["scale"].update(replicates=3),
        lambda payload: payload.pop("sections"),
        lambda payload: payload["sections"].append("fig99"),
        lambda payload: payload.update(scale_name=None),
    ], ids=["no-scale", "unknown-scale-field", "no-sections",
            "unknown-section", "no-scale-name"])
    def test_schema_matching_manifest_with_bad_fields_reads_as_none(
            self, damage, micro_scale, tmp_path, capsys):
        """A manifest of the current schema whose fields would not rebuild
        a scale or a section list reads as None, and a flag-less
        ``report build`` falls back to its defaults instead of a
        traceback."""
        store = ResultStore(tmp_path / "store")
        path = build.write_manifest(store, "micro", micro_scale,
                                    resolve_sections(["table1"]))
        payload = json.loads(path.read_text(encoding="utf-8"))
        damage(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert build.read_manifest(store) is None
        assert main(["report", "build", "--store", str(tmp_path / "store"),
                     "--only", "table1", "--out",
                     str(tmp_path / "out")]) == 0
        assert "(scale: small)" in capsys.readouterr().out


class TestResolveScale:
    def test_presets(self):
        for name in ("micro", "small", "paper"):
            assert resolve_scale(name) == scale_preset(name)

    def test_integer_divisor(self):
        assert resolve_scale("4") == ExperimentScale(scale=4)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match=r"^--scale=huge: expected one"):
            resolve_scale("huge")
