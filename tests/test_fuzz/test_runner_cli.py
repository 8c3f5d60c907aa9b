"""Campaign runner + CLI: determinism, clean exit, and the end-to-end
mutation acceptance test (inject a bug, fuzz catches it, shrinker
reduces it to a tiny corpus-ready repro)."""

import json

import repro.cmp.engine.vector as vector_mod
from repro.cli import main
from repro.fuzz import FuzzCase, run_case, run_fuzz


class TestRunner:
    def test_campaign_is_deterministic(self):
        a = run_fuzz(seed=3, budget=4)
        b = run_fuzz(seed=3, budget=4)
        assert a.clean and b.clean
        assert (a.cases_run, a.accesses_checked, a.engine_runs) == \
            (b.cases_run, b.accesses_checked, b.engine_runs)
        assert a.cases_run == 4

    def test_time_limit_stops_between_cases(self):
        report = run_fuzz(seed=3, budget=50, time_limit=0.0)
        assert report.time_limited
        assert report.cases_run < 50
        assert "[stopped at time limit]" in report.summary()

    def test_summary_reports_clean(self):
        report = run_fuzz(seed=3, budget=2)
        assert "no divergence" in report.summary()


class TestCLI:
    def test_clean_run_exits_zero(self, capsys):
        rc = main(["fuzz", "--seed", "3", "--budget", "3", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no divergence" in out

    def test_progress_lines_unless_quiet(self, capsys):
        main(["fuzz", "--seed", "3", "--budget", "2"])
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out


class MutatedVectorEngine:
    """Context manager reverting the window cut's safety margin.

    ``_BOUND_SLACK`` scales the pessimistic per-miss pop-time bound the
    vector engine compares with the next interval boundary.  Shrinking
    it to a quarter lets a window overrun the boundary, so the
    controller repartitions late: the bug class the margin exists for.
    """

    def __enter__(self):
        self._slack = vector_mod._BOUND_SLACK
        vector_mod._BOUND_SLACK = 0.25
        vector_mod.clear_memos()
        return self

    def __exit__(self, *exc):
        vector_mod._BOUND_SLACK = self._slack
        vector_mod.clear_memos()
        return False


class TestShrinker:
    def test_rejects_clean_case(self):
        import pytest

        from repro.fuzz import generate_case, shrink_case
        case = generate_case(3, 0)
        with pytest.raises(ValueError, match="divergent case"):
            shrink_case(case)

    def test_minimal_corpus_case_is_a_shrink_fixpoint(self):
        """The checked-in 3-access window-overrun repro cannot shrink
        further: every L1 miss is load-bearing."""
        from pathlib import Path

        from repro.fuzz import shrink_case

        path = (Path(__file__).resolve().parent.parent / "corpus" /
                "vector-window-overruns-boundary.json")
        case = FuzzCase.load(path)
        with MutatedVectorEngine():
            shrunk = shrink_case(case, engines=("reference", "vector"))
            assert shrunk.total_accesses() == case.total_accesses()


class TestMutationAcceptance:
    """The harness's reason to exist: an injected engine bug must be
    *caught* by the seeded campaign and *shrunk* to a corpus-sized
    repro — all through the public CLI."""

    def test_injected_bug_is_caught_and_shrunk(self, tmp_path, capsys):
        with MutatedVectorEngine():
            rc = main(["fuzz", "--seed", "1", "--budget", "7",
                       "--out", str(tmp_path), "--quiet"])
        out = capsys.readouterr().out
        assert rc == 1, out
        assert "DIVERGENT" in out

        repros = sorted(tmp_path.glob("div-seed1-case*.json"))
        assert repros, "divergence reported but no repro emitted"
        case = FuzzCase.load(repros[0])

        # Shrunk to something a human can read end to end.
        assert case.total_accesses() <= 32
        assert case.num_cores == 1
        assert "diverged: vector" in case.note

        # The repro still fails under the mutation...
        with MutatedVectorEngine():
            assert run_case(case).divergent
        # ...and replays clean on the fixed engine, i.e. it is exactly
        # what a corpus regression case should be.
        report = run_case(case)
        assert not report.divergent, report.summary()

        # Emitted JSON is corpus-format and loads back identically.
        on_disk = json.loads(repros[0].read_text(encoding="utf-8"))
        assert on_disk["format"] == "repro-fuzz-case/1"
        assert FuzzCase.load(repros[0]).to_dict() == on_disk
