"""Campaign runner + CLI: determinism, clean exit, and the end-to-end
mutation acceptance test (inject a bug, fuzz catches it, shrinker
reduces it to a tiny corpus-ready repro)."""

import json

from repro.cache import native, transitions
from repro.cli import main
from repro.cmp.engine.batched import BatchedEngine
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


class MutatedBatchedEngine:
    """Context manager stretching the interval the batched engine reads.

    The engine fires the controller's boundaries off its own copy of
    ``interval_cycles``.  Reading it a quarter long makes every boundary
    fire late, so the controller repartitions late: the bug class a
    boundary-placement slip in the event loop would cause, visible from
    one thread up.
    """

    def __enter__(self):
        original = self._init = BatchedEngine.__init__

        def late(engine, sim):
            original(engine, sim)
            engine.interval *= 1.25

        BatchedEngine.__init__ = late
        return self

    def __exit__(self, *exc):
        BatchedEngine.__init__ = self._init
        return False


class MutatedObserveRendering:
    """Context manager moving the SDH read of the ``observe`` rendering
    *after* the promote.

    The profiler must read the pre-access replacement state (§II-A: the
    distance an access hits at is where the line *was*); read after the
    promote, every LRU hit lands on register 1.  One edit of the one
    skeleton, so the C translated from it is wrong — and only the
    class-stepping reference can tell.
    """

    STOCK = transitions.TEMPLATES["observe"]
    MUTATED = STOCK.replace(
        "                $sdh\n                $promote\n",
        "                $promote\n                $sdh\n")

    def install(self, template):
        transitions.TEMPLATES["observe"] = template
        native.load.cache_clear()

    def __enter__(self):
        assert self.MUTATED != self.STOCK
        self.install(self.MUTATED)
        return self

    def __exit__(self, *exc):
        self.install(self.STOCK)
        return False


class TestShrinker:
    def test_rejects_clean_case(self):
        import pytest

        from repro.fuzz import generate_case, shrink_case
        case = generate_case(3, 0)
        with pytest.raises(ValueError, match="divergent case"):
            shrink_case(case)

    def test_minimal_corpus_case_is_a_shrink_fixpoint(self):
        """The checked-in 3-access late-boundary repro (found under the
        vector engine's window-overrun mutation, the same bug class)
        cannot shrink further: every L1 miss is load-bearing."""
        from pathlib import Path

        from repro.fuzz import shrink_case

        path = (Path(__file__).resolve().parent.parent / "corpus" /
                "vector-window-overruns-boundary.json")
        case = FuzzCase.load(path)
        with MutatedBatchedEngine():
            shrunk = shrink_case(case, engines=("reference", "batched"))
            assert shrunk.total_accesses() == case.total_accesses()


class TestMutationAcceptance:
    """The harness's reason to exist: an injected engine bug must be
    *caught* by the seeded campaign and *shrunk* to a corpus-sized
    repro — all through the public CLI."""

    def test_injected_bug_is_caught_and_shrunk(self, tmp_path, capsys):
        with MutatedBatchedEngine():
            rc = main(["fuzz", "--seed", "1", "--budget", "2",
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
        assert "diverged: batched" in case.note

        # The repro still fails under the mutation...
        with MutatedBatchedEngine():
            assert run_case(case).divergent
        # ...and replays clean on the fixed engine, i.e. it is exactly
        # what a corpus regression case should be.
        report = run_case(case)
        assert not report.divergent, report.summary()

        # Emitted JSON is corpus-format and loads back identically.
        on_disk = json.loads(repros[0].read_text(encoding="utf-8"))
        assert on_disk["format"] == "repro-fuzz-case/1"
        assert FuzzCase.load(repros[0]).to_dict() == on_disk

    def test_sdh_read_after_promote_is_caught_on_both_targets(
            self, tmp_path, capsys):
        """A bug in the ``observe`` rendering reaches the compiled drains;
        the reference steps the profiler classes and disagrees.  (The
        name dates from the Python target the drains once had.)"""
        # Seed 2's first case (M-BT, one core) hits in its ATD.
        with MutatedObserveRendering():
            rc = main(["fuzz", "--seed", "2", "--budget", "1",
                       "--out", str(tmp_path), "--quiet"])
            out = capsys.readouterr().out
            assert rc == 1 and "DIVERGENT" in out, out
            (repro,) = sorted(tmp_path.glob("div-seed2-case*.json"))
            case = FuzzCase.load(repro)
            assert case.total_accesses() <= 8 and case.num_cores == 1
            assert case.partitioning.partitioned
            key = ("observe", (case.partitioning.policy, "none"))
            before = transitions.target_stats()[key]
            report = run_case(case)
            after = transitions.target_stats()[key]
            diffs = report.diffs["batched"]
            # The SDH registers, and nothing but them.
            assert diffs and all(path.startswith("profiling[0][1]")
                                 for path in diffs), diffs
            # Every simulator built binds its ATD's compiled drain kernel
            # — the reference run's and the applicability check's too,
            # which never call it.
            assert after["target"] == "c"
            assert after["compiled"] - before["compiled"] == 3
        report = run_case(case)
        assert not report.divergent, report.summary()
