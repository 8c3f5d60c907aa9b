"""Tests for the command-line interface."""

import dataclasses
import json
import os
import types

import pytest

from repro.cli import _scale_from_args, build_parser, main
from repro.experiments.common import ExperimentScale, scale_preset
from repro.reporting.sections import SECTION_ORDER, resolve_sections

#: ``campaign run``: the one verb that runs jobs and takes refinements.
RUN = ["campaign", "run"]

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
                                      ["report", "build"]])
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
            [*RUN, "fig6", "--scale", "4", "--accesses", "1000",
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
        args = build_parser().parse_args([*RUN, "fig6"])
        scale = _scale_from_args(args)
        assert scale.scale == 8          # laptop default

    def test_overrides(self):
        args = build_parser().parse_args(
            [*RUN, "fig6", "--scale", "4", "--accesses", "1234",
             "--seed", "5"])
        scale = _scale_from_args(args)
        assert scale.scale == 4
        assert scale.accesses == 1234
        assert scale.seed == 5

    def test_mixes_all(self):
        args = build_parser().parse_args([*RUN, "fig6", "--mixes", "all"])
        scale = _scale_from_args(args)
        assert len(scale.mixes_2t) == 24
        assert len(scale.mixes_fig8) == 24

    def test_environment_untouched(self, monkeypatch):
        """The scale is never read from the environment: a ``REPRO_SEED``
        left in it neither changes the scale nor is written to."""
        monkeypatch.setenv("REPRO_SEED", "11")
        args = build_parser().parse_args([*RUN, "fig6", "--scale", "2"])
        frozen = types.MappingProxyType(dict(os.environ))
        with monkeypatch.context() as patch:     # pytest writes it at exit
            patch.setattr(os, "environ", frozen)
            scale = _scale_from_args(args)
        assert scale == dataclasses.replace(ExperimentScale(), scale=2)
        assert "REPRO_SCALE" not in frozen and frozen["REPRO_SEED"] == "11"

    def test_flags_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "4")
        args = build_parser().parse_args([*RUN, "fig6", "--scale", "2"])
        assert _scale_from_args(args).scale == 2
        args = build_parser().parse_args([*RUN, "fig6"])
        assert _scale_from_args(args) == scale_preset("small")

    def test_full_flag(self):
        args = build_parser().parse_args([*RUN, "fig6", "--scale", "paper"])
        scale = _scale_from_args(args)
        assert scale.scale == 1
        assert scale == scale_preset("paper")

    def test_full_env_is_the_paper_preset(self):
        # The refinements refine the preset, as they always did.
        args = build_parser().parse_args(
            [*RUN, "fig6", "--scale", "paper", "--accesses", "500"])
        assert _scale_from_args(args) == dataclasses.replace(
            scale_preset("paper"), accesses=500)

    # The ``fig7`` and ``report-run`` ids name the commands whose runs
    # ``campaign run fig7`` and ``campaign run all`` took over.
    @pytest.mark.parametrize("argv", [
        ["campaign", "run", "fig7", "--scale", "micro"],
        ["campaign", "run", "smoke", "--scale", "micro"],
        ["campaign", "status", "--scale", "micro"],
        ["campaign", "run", "all", "--scale", "micro"],
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
            main([*RUN, "fig6", *argv])
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


def _fail_first_job(monkeypatch):
    """Make the first job the campaign layer executes raise on every
    attempt; returns the list of executed jobs."""
    from repro.campaign import runner as campaign_runner

    execute_job = campaign_runner.execute_job
    calls = []

    def fail_first(job, runner):
        calls.append(job)
        if job == calls[0]:        # on every attempt: permanently
            raise RuntimeError("injected job failure")
        return execute_job(job, runner)

    monkeypatch.setattr(campaign_runner, "execute_job", fail_first)
    return calls


class TestUsageErrors:
    """A bad scale or name is one ``repro: error:`` line, exit status 2,
    and no job run — on every verb that resolves one."""

    @pytest.mark.parametrize("argv", [
        ["campaign", "run", "all", "--scale", "3"],
        ["campaign", "run", "all", "--scale", "x"],
        ["campaign", "run", "fig6", "--scale", "x"],
    ], ids=["report-run-no-divisor", "report-run-not-a-name", "fig6"])
    def test_a_bad_scale_runs_no_job(self, argv, tmp_path, capsys,
                                     monkeypatch):
        executed = _count_executed_jobs(monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--store", str(tmp_path / "store")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        value = argv[argv.index("--scale") + 1]
        assert err.startswith(f"repro: error: --scale={value}: ")
        assert executed == []
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("argv", [
        ["campaign", "run", "all", "fig66", "--scale", "micro"],
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
    def test_table1_exit_code(self, tmp_path, capsys):
        assert main([*RUN, "table1", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table I(a)" in out
        assert "11/11 reproduced exactly" in out

    def test_table1_fails_on_a_missed_paper_value(self, tmp_path, capsys,
                                                  monkeypatch):
        """The tally and the exit status are the section's graded points:
        a reference the arithmetic does not meet fails the verb."""
        from repro.experiments import table1

        refs = table1.references()
        wrong = [dataclasses.replace(refs[0], expected=refs[0].expected + 1)
                 ] + refs[1:]
        monkeypatch.setattr(table1, "references", lambda: wrong)
        assert main([*RUN, "table1", "--store", str(tmp_path)]) == 1
        assert "10/11 reproduced exactly" in capsys.readouterr().out

    def test_table2(self, tmp_path, capsys):
        assert main([*RUN, "table2", "--store", str(tmp_path)]) == 0
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
    """The store-less serial path, ``repro campaign run <name>`` and the
    report are three renderings of one section declaration."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("verbs-store"))

    @pytest.mark.parametrize("name", SECTION_ORDER)
    def test_serial_campaign_and_report_tables_agree(self, name, store,
                                                     tmp_path, capsys):
        from repro.campaign.runner import run_serial
        from repro.campaign.store import ResultStore
        from repro.experiments.common import WorkloadRunner
        from repro.reporting.build import build_report
        from repro.reporting.emit import write_report
        from repro.reporting.sections import SECTIONS, section_text

        scale = _scale_from_args(
            build_parser().parse_args([*RUN, name] + MICRO_FLAGS))
        spec = SECTIONS[name]
        serial = _printed_tables(section_text(spec.build(
            scale, run_serial(spec.matrix(scale), WorkloadRunner(scale)))))
        assert main(["campaign", "run", name, "--jobs", "1",
                     "--store", store] + MICRO_FLAGS) == 0
        campaign = _printed_tables(capsys.readouterr().out)

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
            self, tmp_path, capsys, monkeypatch):
        from repro.campaign.jobs import KIND_OUTCOME
        from repro.campaign.runner import plan_jobs
        from repro.experiments.common import WorkloadRunner

        executed, runners = _count_executed_jobs(monkeypatch), []
        init = WorkloadRunner.__init__
        monkeypatch.setattr(
            WorkloadRunner, "__init__",
            lambda self, scale: (runners.append(self), init(self, scale))[1])

        argv = [*RUN, "all", "--jobs", "1"] + MICRO_FLAGS
        assert main(argv + ["--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out

        scale = _scale_from_args(build_parser().parse_args(argv))
        union = [job for spec in resolve_sections()
                 for job in spec.matrix(scale)]
        assert len(set(union)) < len(union)       # fig9 re-lists fig7
        # Each point (and each isolation run the points read) once.
        assert len(executed) == len(set(executed)) == plan_jobs(union).total
        assert {job for job in executed
                if job.kind == KIND_OUTCOME} == set(union)
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
        assert main([*RUN, "table1", "table2", "--scale", "micro",
                     "--jobs", "2", "--store", store]) == 0
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
        assert main(["report", "build", "--scale", "micro",
                     "--only", "table1, table2",
                     "--store", str(tmp_path / "store"),
                     "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text(
            encoding="utf-8"))
        assert [s["name"] for s in payload["sections"]] == ["table1",
                                                            "table2"]

    def test_unknown_section_raises(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "build", "--scale", "micro", "--only", "fig99",
                  "--store", str(tmp_path / "store")])
        assert exit_info.value.code == 2

    def test_unknown_scale_raises(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main([*RUN, "all", "--scale", "gigantic",
                  "--store", str(tmp_path / "store")])
        assert exit_info.value.code == 2

    def test_run_fails_without_a_manifest_when_a_job_fails(
            self, tmp_path, capsys, monkeypatch):
        """One job that raises fails the run: exit 1, the failure listed,
        and no manifest for ``build`` to pick up as if the store were
        complete."""
        from repro.campaign.store import ResultStore
        from repro.reporting.build import manifest_path

        calls = _fail_first_job(monkeypatch)
        store = tmp_path / "store"
        assert main([*RUN, "fig6", "--scale", "micro", "--jobs", "1",
                     "--store", str(store)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ") and "failed permanently:" in err
        assert "RuntimeError: injected job failure (after 3 attempts)" in err
        assert len(calls) > 1
        assert not manifest_path(ResultStore(store)).exists()

    def test_build_lists_a_failed_job_and_writes_no_report(
            self, tmp_path, capsys, monkeypatch):
        """A job that fails permanently inside ``report build`` is listed
        the way ``campaign run`` lists it, exit 1 — not a ``KeyError``
        from ``assemble`` — and no ``report.*`` is written."""
        calls = _fail_first_job(monkeypatch)
        out = tmp_path / "out"
        assert main(["report", "build", "--scale", "micro", "--only", "fig6",
                     "--jobs", "1", "--store", str(tmp_path / "store"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ") and "failed permanently:" in err
        assert "RuntimeError: injected job failure (after 3 attempts)" in err
        assert len(calls) > 1
        assert not out.exists()

    def test_run_writes_the_manifest_only_for_report_sections(
            self, tmp_path, capsys):
        """``smoke`` is no report section: a run of it alone records no
        manifest, and a run that adds a section records that section."""
        from repro.campaign.store import ResultStore
        from repro.reporting.build import manifest_path, read_manifest

        store = ResultStore(tmp_path / "store")
        argv = ["--jobs", "1", "--store", str(store.root)] + MICRO_FLAGS
        assert main([*RUN, "smoke"] + argv) == 0
        assert not manifest_path(store).exists()
        assert main([*RUN, "smoke", "table1"] + argv) == 0
        manifest = read_manifest(store)
        assert manifest["sections"] == ["table1"]
        assert manifest["scale_name"] == "16"

    def test_clean_removes_the_manifest(self, tmp_path, capsys):
        """A manifest left without its objects would send a flag-less
        ``report build`` into a silent full recompute."""
        from repro.campaign.store import ResultStore
        from repro.reporting.build import manifest_path

        store = ResultStore(tmp_path / "store")
        assert main([*RUN, "smoke", "table1", "--jobs", "1",
                     "--store", str(store.root)] + MICRO_FLAGS) == 0
        assert manifest_path(store).is_file()
        capsys.readouterr()
        assert main(["campaign", "clean", "--store", str(store.root)]) == 0
        assert ("removed 4 object(s) and the report manifest"
                in capsys.readouterr().out)
        assert not manifest_path(store).exists()
        assert len(store) == 0

    def test_clean_of_an_unreachable_remote_removes_nothing(
            self, tmp_path, capsys, monkeypatch):
        """A listing that cannot reach the remote store is an error, not
        the local cache passed off as the store (``status`` too)."""
        from repro.campaign.store import ResultStore
        from repro.reporting.build import manifest_path

        store = ResultStore(tmp_path / "store")
        store.put("ab" + "0" * 62, "spec", 1)
        manifest_path(store).write_text("{}")
        monkeypatch.setenv("REPRO_STORE_URL", "http://127.0.0.1:1")
        assert main(["campaign", "clean", "--store", str(store.root)]) == 1
        captured = capsys.readouterr()
        assert "removed" not in captured.out
        assert "http://127.0.0.1:1" in captured.err
        assert len(store) == 1
        assert manifest_path(store).is_file()
        assert main(["campaign", "status", "smoke",
                     "--store", str(store.root)]) == 1
        assert "http://127.0.0.1:1" in capsys.readouterr().err

