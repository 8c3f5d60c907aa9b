"""FuzzCase round-trip and oracle sensitivity."""

import numpy as np
import pytest

from repro.config import PartitioningConfig
from repro.fuzz import (
    FuzzCase,
    diff_snapshots,
    generate_case,
    run_case,
    run_engine,
)
from repro.workloads.trace import Trace
from repro.workloads.writes import overlay_writes


def small_case(**overrides):
    rng = np.random.default_rng(3)
    defaults = dict(
        traces=[Trace("t0", rng.integers(0, 60, size=300), ipm=4.0,
                      cpi_base=1.0)],
        l1_sets=2, l1_assoc=2, l2_sets=8, l2_assoc=4,
        partitioning=PartitioningConfig(policy="lru", enforcement="none"),
        instructions_per_thread=1_500,
    )
    defaults.update(overrides)
    return FuzzCase(**defaults)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        case = generate_case(5, 0)
        path = case.save(tmp_path / "case.json")
        assert FuzzCase.load(path).to_dict() == case.to_dict()

    def test_writes_and_static_counts_survive(self, tmp_path):
        trace = overlay_writes(small_case().traces[0], 0.3, seed=1)
        case = small_case(
            traces=[trace, Trace("t1", trace.lines + (1 << 20), ipm=4.0,
                                 cpi_base=1.0)],
            partitioning=PartitioningConfig(
                policy="lru", enforcement="masks", selector="static",
                static_counts=(2, 2)),
            per_thread_instructions=(1_500, 900),
        )
        loaded = FuzzCase.load(case.save(tmp_path / "case.json"))
        assert loaded.to_dict() == case.to_dict()
        assert loaded.traces[0].writes is not None
        assert loaded.partitioning.static_counts == (2, 2)
        assert loaded.per_thread_instructions == (1_500, 900)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = small_case().to_dict()
        payload["format"] = "repro-fuzz-case/999"
        path.write_text(__import__("json").dumps(payload))
        with pytest.raises(ValueError, match="unsupported fuzz-case format"):
            FuzzCase.load(path)


class TestOracle:
    def test_clean_case_reports_no_divergence(self):
        report = run_case(small_case())
        assert not report.divergent
        assert report.engines == ("reference", "batched")
        assert all(not d for d in report.diffs.values())
        assert report.summary().startswith("ok:")
        # The reference once, every other engine cold and warm, batched
        # once more on the Python target.
        assert report.engine_runs == 2 * len(report.engines)

    def test_compiled_only_bug_shows_on_the_compiled_runs_alone(
            self, monkeypatch):
        """The batched engine's third run is held to the Python target, so
        a bug in the compiled target alone — here the C translated from a
        spec whose LRU hit re-inserts below the MRU — diverges on the cold
        and warm runs and not on the ``python target:`` one.  (Without a
        C compiler all three are the Python target and agree.)"""
        import shutil

        from repro.cache import native, transitions

        mutated = dict(transitions.POLICIES, lru=dict(
            transitions.POLICIES["lru"],
            promote="if o[0] != way:\n    o.remove(way)\n"
                    "    o.insert(1, way)"))
        translate = transitions.translate
        monkeypatch.setattr(
            transitions, "translate",
            lambda rendering, key: translate(rendering, key,
                                             policies=mutated))
        rng = np.random.default_rng(3)
        case = small_case(traces=[
            Trace(f"t{core}", rng.integers(0, 60, size=300) + core * 4096,
                  ipm=4.0, cpi_base=1.0) for core in range(2)])
        native.load.cache_clear()
        try:
            report = run_case(case)
        finally:
            native.load.cache_clear()
        diffs = report.diffs["batched"]
        if shutil.which("cc") is None:
            assert diffs == []
            return
        assert any(not path.startswith(("warm: ", "python target: "))
                   for path in diffs)
        assert any(path.startswith("warm: ") for path in diffs)
        assert not any(path.startswith("python target: ") for path in diffs)

    def test_snapshot_diff_detects_state_changes(self):
        """Any observable that differs must produce a dotted diff path."""
        case = small_case()
        a = run_engine(case, "reference")
        b = run_engine(case, "reference")
        assert diff_snapshots(a, b) == []
        b.tag_lines[0] = -999
        b.events["l2_misses"] = [0]
        paths = diff_snapshots(a, b)
        assert any(p.startswith("tag_lines[0]") for p in paths)
        assert any(p.startswith("events.l2_misses") for p in paths)

    def test_engine_crash_counts_as_divergence(self):
        report = run_case(small_case(), engines=("reference", "bogus"))
        assert report.divergent
        assert report.divergent_engines() == ["bogus"]
        assert "crashed" in report.diffs["bogus"][0]
        assert "DIVERGENCE" in report.summary()
        assert report.engine_runs == 1      # no warm run after a crash

    def test_reference_crash_is_terminal(self):
        case = small_case(
            partitioning=PartitioningConfig(
                policy="bt", enforcement="btvectors", selector="fair"))
        report = run_case(case)
        assert report.error is not None
        assert report.engine_runs == 0
        assert report.divergent
        assert report.summary().startswith("ERROR")

    def test_reference_run_steps_the_classes_in_the_atds_too(self,
                                                             monkeypatch):
        """The oracle side shares no transition body with the engines:
        the reference run's L2 *and* its ATDs go through the hand-written
        classes.  (``ProfilingLogic`` binds each ``atd.observe`` when it
        is built, so dropping the kernels off the ATDs alone once left
        the reference run inside the ``observe`` rendering and a bug in
        a policy's ``sdh`` fragment invisible.)"""
        from repro.profiling.atd import ATD

        generic, calls = ATD.observe, []
        monkeypatch.setattr(
            ATD, "observe",
            lambda atd, line: calls.append(line) or generic(atd, line))
        case = small_case(partitioning=PartitioningConfig(
            policy="lru", enforcement="masks", atd_sampling=1))
        reference = run_engine(case, "reference")
        assert len(calls) == reference.events["l2_accesses"] > 0
        del calls[:]
        run_engine(case, "batched")
        assert calls == []

    def test_victim_probe_exposes_latent_policy_state(self):
        """Two runs whose *visible* stats agree but whose replacement
        state differs must still diff — the probe forces the state into
        eviction decisions."""
        case = small_case()
        a = run_engine(case, "reference")
        b = run_engine(case, "reference")
        assert a.probe_tag_lines == b.probe_tag_lines
        other = small_case(sim_seed=9)
        c = run_engine(other, "reference")
        # Same trace, same stats-relevant config: the probe output is a
        # function of final state, so identical here.
        assert a.probe_tag_lines == c.probe_tag_lines
