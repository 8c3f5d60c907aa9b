"""FuzzCase round-trip and oracle sensitivity."""

import numpy as np
import pytest

from repro.config import PartitioningConfig
from repro.fuzz import (
    FuzzCase,
    diff_snapshots,
    generate_case,
    partition_postconditions,
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


def two_core_case(policy, enforcement):
    rng = np.random.default_rng(4)
    traces = [Trace(f"t{core}", rng.integers(0, 60, size=300) + (core << 20),
                    ipm=4.0, cpi_base=1.0) for core in range(2)]
    return small_case(traces=traces, partitioning=PartitioningConfig(
        policy=policy, enforcement=enforcement, atd_sampling=1))


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
        # The reference once, then every other engine.
        assert report.engine_runs == len(report.engines)

    def test_compiled_only_bug_shows_on_the_compiled_runs_alone(
            self, monkeypatch):
        """A bug in the compiled loop alone — here the C translated from
        a spec whose LRU hit re-inserts below the MRU — diverges from the
        reference, which steps the classes, and not in the ``prefilter:``
        stage."""
        from repro.cache import native, transitions

        stock = transitions.POLICIES["lru"]["promote"]
        mutated = dict(transitions.POLICIES, lru=dict(
            transitions.POLICIES["lru"],
            promote=stock.replace("slot = row\n", "slot = row + 1\n")))
        assert mutated["lru"]["promote"] != stock
        translate = transitions.translate
        monkeypatch.setattr(
            transitions, "translate",
            lambda rendering, key: translate(rendering, key,
                                             policies=mutated))
        # Another translator: objects are named by its digest.
        monkeypatch.setattr(native, "translator", lambda: "mutated promote")
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
        assert diffs
        assert not any(path.startswith("prefilter: ") for path in diffs)

    def test_compiled_only_prefilter_bug_shows_in_the_prefilter_stage(
            self, monkeypatch):
        """The same for the L1's ``prefilter``: C translated from a
        template whose hits never lengthen a gap diverges on the batched
        run and in the ``prefilter:`` diff against the per-access L1."""
        from repro.cache import native, transitions

        stock = transitions.TEMPLATES["prefilter"]
        mutated = dict(transitions.TEMPLATES, prefilter=stock.replace(
            "gap = (gap + 1) & -hit", "gap = gap & -hit"))
        assert mutated["prefilter"] != stock
        translate = transitions.translate
        monkeypatch.setattr(
            transitions, "translate",
            lambda rendering, key: translate(rendering, key,
                                             templates=mutated))
        monkeypatch.setattr(native, "translator", lambda: "mutated gap")
        native.load.cache_clear()
        try:
            report = run_case(small_case())
        finally:
            native.load.cache_clear()
        diffs = report.diffs["batched"]
        assert any(path.startswith("prefilter: t0") for path in diffs)
        assert any(not path.startswith("prefilter: ") for path in diffs)

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
        assert report.engine_runs == 1      # no second run after a crash

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
        classes, by construction — no per-access rendering exists.  (A
        reference once stepped the ``observe`` rendering through the
        observer the profiling system bound at construction, and a bug in
        a policy's ``sdh`` fragment was invisible to it.)"""
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

    def test_corrupted_scheme_state_reports_postcondition_paths(
            self, monkeypatch):
        """Engines that agree can share a bug: masks that overlap run the
        same on both, so the case is flagged by its post-conditions, on
        the reference as on the batched engine."""
        from repro.cache.partition.masks import MasksPartition

        stock = MasksPartition.apply

        def overlapping(scheme, allocation):
            stock(scheme, allocation)
            scheme._masks[1] |= scheme._masks[0]

        monkeypatch.setattr(MasksPartition, "apply", overlapping)
        report = run_case(two_core_case("lru", "masks"))
        assert report.engines == ("reference", "batched")
        for engine in report.engines:
            assert report.diffs[engine]
            assert all(path.startswith("postcondition: masks.mask")
                       for path in report.diffs[engine])
        assert report.divergent

    @pytest.mark.parametrize("policy,enforcement", [
        ("lru", "counters"), ("nru", "masks"), ("bt", "btvectors")])
    def test_partition_postconditions_hold_then_flag_corruption(
            self, policy, enforcement):
        sim = two_core_case(policy, enforcement).simulator("reference")
        sim.run()
        assert partition_postconditions(sim) == []
        scheme = sim.scheme
        if enforcement == "counters":
            # Set 0: core 1 claims core 0's ways too.
            scheme._owned[1] |= scheme._owned[0]
        else:
            scheme._masks[1] = scheme._masks[0]
        paths = partition_postconditions(sim)
        assert paths and all(p.startswith(enforcement) for p in paths)

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
