"""Tests for the command-line interface."""

import dataclasses
import json
import os
import types

import pytest

from repro.cli import _scale_from_args, build_parser, main
from repro.experiments.common import ExperimentScale, scale_preset
from repro.reporting.sections import SECTION_ORDER, resolve_sections

#: The flag spelling of the ``micro`` machine (CI runs the verbs with it).
MICRO_FLAGS = ["--scale", "16", "--accesses", "2000",
               "--target-cycles", "200000", "--seed", "7"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    @pytest.mark.parametrize("verb", [["campaign", "run", "smoke"],
                                      ["report", "run"]])
    def test_negative_jobs_is_a_usage_error(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*verb, "--jobs", "-2"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "must be >= 0 or 'auto': -2" in err
        assert build_parser().parse_args([*verb, "--jobs", "auto"]).jobs == 0

    @pytest.mark.parametrize("verb", [
        ["campaign", "worker", "localhost:abc"],
        ["campaign", "serve", "--bind", "127.0.0.1:70000"],
        ["campaign", "run", "smoke", "--bind", "h:-1"]])
    def test_a_bad_host_port_is_a_usage_error(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(verb)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "PORT must be a number in 0-65535" in err

    def test_host_port_parses_to_an_address(self):
        parse = build_parser().parse_args
        assert parse(["campaign", "worker", "10.0.0.2:9100"]).coordinator \
            == ("10.0.0.2", 9100)
        assert parse(["campaign", "worker", ":9100"]).coordinator \
            == ("127.0.0.1", 9100)
        assert parse(["campaign", "serve"]).bind == ("127.0.0.1", 0)
        assert parse(["campaign", "run", "smoke"]).bind is None

    def test_figure_flags(self):
        args = build_parser().parse_args(
            ["fig6", "--scale", "4", "--accesses", "1000",
             "--mixes", "all", "--seed", "9"])
        assert args.scale == "4"
        assert args.accesses == 1000
        assert args.mixes == "all"
        assert args.seed == 9

    def test_info_commands_take_no_flags(self):
        args = build_parser().parse_args(["workloads"])
        assert args.command == "workloads"


class TestScaleFromArgs:
    def test_defaults(self):
        args = build_parser().parse_args(["fig6"])
        scale = _scale_from_args(args)
        assert scale.scale == 8          # laptop default

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig6", "--scale", "4", "--accesses", "1234", "--seed", "5"])
        scale = _scale_from_args(args)
        assert scale.scale == 4
        assert scale.accesses == 1234
        assert scale.seed == 5

    def test_mixes_all(self):
        args = build_parser().parse_args(["fig6", "--mixes", "all"])
        scale = _scale_from_args(args)
        assert len(scale.mixes_2t) == 24
        assert len(scale.mixes_fig8) == 24

    def test_environment_untouched(self, monkeypatch):
        """The scale is never read from the environment: a ``REPRO_SEED``
        left in it neither changes the scale nor is written to."""
        monkeypatch.setenv("REPRO_SEED", "11")
        args = build_parser().parse_args(["fig6", "--scale", "2"])
        frozen = types.MappingProxyType(dict(os.environ))
        with monkeypatch.context() as patch:     # pytest writes it at exit
            patch.setattr(os, "environ", frozen)
            scale = _scale_from_args(args)
        assert scale == dataclasses.replace(ExperimentScale(), scale=2)
        assert "REPRO_SCALE" not in frozen and frozen["REPRO_SEED"] == "11"

    def test_flags_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "4")
        args = build_parser().parse_args(["fig6", "--scale", "2"])
        assert _scale_from_args(args).scale == 2
        args = build_parser().parse_args(["fig6"])
        assert _scale_from_args(args) == scale_preset("small")

    def test_full_flag(self):
        args = build_parser().parse_args(["fig6", "--scale", "paper"])
        scale = _scale_from_args(args)
        assert scale.scale == 1
        assert scale == scale_preset("paper")

    def test_full_env_is_the_paper_preset(self):
        # The refinements refine the preset, as they always did.
        args = build_parser().parse_args(
            ["fig6", "--scale", "paper", "--accesses", "500"])
        assert _scale_from_args(args) == dataclasses.replace(
            scale_preset("paper"), accesses=500)

    @pytest.mark.parametrize("argv", [
        ["fig7", "--scale", "micro"],
        ["campaign", "run", "smoke", "--scale", "micro"],
        ["campaign", "status", "--scale", "micro"],
        ["report", "run", "--scale", "micro"],
        ["report", "build", "--scale", "micro"],
    ], ids=["fig7", "campaign-run", "campaign-status", "report-run",
            "report-build"])
    def test_every_verb_takes_a_preset_name(self, argv):
        assert (_scale_from_args(build_parser().parse_args(argv))
                == scale_preset("micro"))

    @pytest.mark.parametrize("argv,message", [
        (["--scale", "0"], "--scale=0: factor must be positive"),
        (["--scale", "3"], "--scale=3: cannot scale 65536 B by 1/3"),
        (["--accesses", "0"],
         "--accesses=0: the trace length must be positive"),
        (["--scale", "x"], "--scale=x: expected one of"),
    ], ids=["flag-zero", "flag-no-divisor", "no-accesses",
            "flag-not-a-name"])
    def test_a_value_that_makes_no_scale_exits_2_naming_it(
            self, argv, message, capsys):
        """Before any simulation: one line on stderr naming the flag,
        exit status 2 — no traceback from deep in a run."""
        with pytest.raises(SystemExit) as exit_info:
            main(["fig6", *argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("repro: error: ")
        assert message in err


def _count_executed_jobs(monkeypatch):
    """Record every job the campaign layer executes (serial path)."""
    from repro.campaign import runner as campaign_runner

    executed = []
    execute_job = campaign_runner.execute_job
    monkeypatch.setattr(
        campaign_runner, "execute_job",
        lambda job, runner: (executed.append(job),
                             execute_job(job, runner))[1])
    return executed


class TestUsageErrors:
    """A bad scale or name is one ``repro: error:`` line, exit status 2,
    and no job run — on every verb that resolves one."""

    @pytest.mark.parametrize("argv", [
        ["report", "run", "--scale", "3", "--only", "fig6"],
        ["report", "run", "--scale", "x"],
        ["fig6", "--scale", "x"],
    ], ids=["report-run-no-divisor", "report-run-not-a-name", "fig6"])
    def test_a_bad_scale_runs_no_job(self, argv, tmp_path, capsys,
                                     monkeypatch):
        executed = _count_executed_jobs(monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, *(["--store", str(tmp_path / "store")]
                           if argv[0] == "report" else [])])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        value = argv[argv.index("--scale") + 1]
        assert err.startswith(f"repro: error: --scale={value}: ")
        assert executed == []
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("argv", [
        ["report", "run", "--scale", "micro", "--only", "fig66"],
        ["report", "build", "--scale", "micro", "--only", "fig66"],
        ["campaign", "run", "fig66", "--jobs", "1"],
        ["campaign", "status", "fig66"],
    ], ids=["report-run", "report-build", "campaign-run", "campaign-status"])
    def test_an_unknown_name_lists_the_known_ones(self, argv, tmp_path,
                                                  capsys, monkeypatch):
        executed = _count_executed_jobs(monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--store", str(tmp_path / "store")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("repro: error: ")
        assert "'fig66'" in err
        for known in SECTION_ORDER:
            assert f"'{known}'" in err
        assert executed == []


class TestInfoCommands:
    def test_table1_exit_code(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I(a)" in out
        assert "11/11 reproduced exactly" in out

    def test_table1_fails_on_a_missed_paper_value(self, capsys, monkeypatch):
        """The tally and the exit status are the section's graded points:
        a reference the arithmetic does not meet fails the verb."""
        from repro.experiments import table1

        refs = table1.references()
        wrong = [dataclasses.replace(refs[0], expected=refs[0].expected + 1)
                 ] + refs[1:]
        monkeypatch.setattr(table1, "references", lambda: wrong)
        assert main(["table1"]) == 1
        assert "10/11 reproduced exactly" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "2T_01" in out
        assert "8T_11" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        assert "4T_14" in out

    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("lru", "nru", "bt", "srrip", "dip"):
            assert name in out


def _printed_tables(text):
    """``(title, headers, rows)`` of every ASCII table in CLI output."""
    def cells(line):
        return tuple(cell.strip() for cell in line.split(" | "))

    lines = text.splitlines()
    tables = []
    for i, line in enumerate(lines):
        if i >= 2 and line and set(line) <= set("-+"):
            rows = []
            for row in lines[i + 1:]:
                if " | " not in row:
                    break
                rows.append(cells(row))
            tables.append((lines[i - 2], cells(lines[i - 1]), tuple(rows)))
    return tables


class TestSectionVerbs:
    """``repro <name>``, ``repro campaign run <name>`` and the report are
    three renderings of one section declaration."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("verbs-store"))

    @pytest.mark.parametrize("name", SECTION_ORDER)
    def test_serial_campaign_and_report_tables_agree(self, name, store,
                                                     tmp_path, capsys):
        from repro.campaign.store import ResultStore
        from repro.reporting.build import build_report
        from repro.reporting.emit import write_report

        flags = MICRO_FLAGS if name.startswith("fig") else []
        assert main([name] + flags) == 0
        serial = _printed_tables(capsys.readouterr().out)
        assert main(["campaign", "run", name, "--jobs", "1",
                     "--store", store] + MICRO_FLAGS) == 0
        campaign = _printed_tables(capsys.readouterr().out)

        scale = _scale_from_args(
            build_parser().parse_args(["fig6"] + MICRO_FLAGS))
        report, campaign_report = build_report(
            scale, ResultStore(store), resolve_sections([name]))
        assert campaign_report.executed == 0
        path = write_report(report, tmp_path / "out")["json"]
        (section,) = json.loads(path.read_text(encoding="utf-8"))["sections"]
        reported = [
            (t["title"], tuple(t["headers"]), tuple(map(tuple, t["rows"])))
            for t in section["tables"]
        ]
        assert reported and serial == reported and campaign == reported

    def test_all_shares_one_runner_and_simulates_each_point_once(
            self, capsys, monkeypatch):
        from repro.experiments.common import WorkloadRunner

        executed, runners = _count_executed_jobs(monkeypatch), []
        init = WorkloadRunner.__init__
        monkeypatch.setattr(
            WorkloadRunner, "__init__",
            lambda self, scale: (runners.append(self), init(self, scale))[1])

        assert main(["all"] + MICRO_FLAGS) == 0
        out = capsys.readouterr().out

        scale = _scale_from_args(
            build_parser().parse_args(["all"] + MICRO_FLAGS))
        union = [job for spec in resolve_sections()
                 for job in spec.matrix(scale)]
        assert len(set(union)) < len(union)       # fig9 re-lists fig7
        assert len(executed) == len(set(executed)) == len(set(union))
        assert len(runners) == 1
        titles = [title for title, _, _ in _printed_tables(out)]
        assert len(titles) == len(set(titles))
        for name in SECTION_ORDER:
            assert out.count(f"=== {name} ===") == 1
        for first in ("Figure 6 (throughput)", "Figure 7 (throughput)",
                      "Figure 8 (M-L vs LRU)", "Figure 9(a)",
                      "Table I(a)", "Table II (left)"):
            assert sum(t.startswith(first) for t in titles) == 1
        assert "11/11 reproduced exactly" in out


class TestReportCommands:
    """The report verb on the simulation-free table sections (fast)."""

    def test_run_build_check_handoff(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        out = str(tmp_path / "out")
        assert main(["report", "run", "--scale", "micro",
                     "--only", "table1,table2", "--jobs", "2",
                     "--store", store]) == 0
        text = capsys.readouterr().out
        assert "manifest" in text and "scale: micro" in text
        # Flag-less build picks scale + sections up from the manifest.
        assert main(["report", "build", "--store", store,
                     "--out", out]) == 0
        text = capsys.readouterr().out
        assert "scale: micro" in text
        assert "pass=17 warn=0 fail=0" in text
        for name in ("report.html", "report.md", "report.json"):
            assert (tmp_path / "out" / name).is_file()
        assert main(["report", "check", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "report ok" in text
        # All table points pass, so --strict succeeds too.
        assert main(["report", "check", "--out", out, "--strict"]) == 0

    def test_build_jobs_auto_uses_every_core(self, tmp_path, capsys,
                                             monkeypatch):
        # --jobs auto parses to 0, which the campaign resolves to the core
        # count; the table sections have no jobs, so nothing is spawned.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert main(["report", "build", "--scale", "micro",
                     "--only", "table1,table2", "--jobs", "auto",
                     "--store", str(tmp_path / "store"),
                     "--out", str(tmp_path / "out")]) == 0
        assert "workers=3" in capsys.readouterr().out

    def test_check_fails_without_report(self, tmp_path, capsys):
        assert main(["report", "check",
                     "--out", str(tmp_path / "missing")]) == 1
        assert "report build" in capsys.readouterr().err

    def test_check_rejects_invalid_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text("{broken", encoding="utf-8")
        assert main(["report", "check", "--out", str(out)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_only_tolerates_whitespace(self, tmp_path, capsys):
        # Natural shell quoting: --only "table1, table2".
        assert main(["report", "run", "--scale", "micro",
                     "--only", "table1, table2",
                     "--store", str(tmp_path / "store")]) == 0
        assert "table1, table2" in capsys.readouterr().out

    def test_unknown_section_raises(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "run", "--scale", "micro", "--only", "fig99",
                  "--store", str(tmp_path / "store")])
        assert exit_info.value.code == 2

    def test_unknown_scale_raises(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "run", "--scale", "gigantic",
                  "--store", str(tmp_path / "store")])
        assert exit_info.value.code == 2

    def test_run_fails_without_a_manifest_when_a_job_fails(
            self, tmp_path, capsys, monkeypatch):
        """One job that raises fails the run: exit 1, the failure listed
        the way ``campaign run`` lists it, and no manifest for ``build``
        to pick up as if the store were complete."""
        from repro.campaign import runner as campaign_runner
        from repro.campaign.store import ResultStore
        from repro.reporting.build import manifest_path

        execute_job = campaign_runner.execute_job
        calls = []

        def fail_first(job, runner):
            calls.append(job)
            if job == calls[0]:        # on every attempt: permanently
                raise RuntimeError("injected job failure")
            return execute_job(job, runner)

        monkeypatch.setattr(campaign_runner, "execute_job", fail_first)
        store = tmp_path / "store"
        assert main(["report", "run", "--scale", "micro", "--only", "fig6",
                     "--jobs", "1", "--store", str(store)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ") and "failed permanently:" in err
        assert "RuntimeError: injected job failure (after 3 attempts)" in err
        assert len(calls) > 1
        assert not manifest_path(ResultStore(store)).exists()
