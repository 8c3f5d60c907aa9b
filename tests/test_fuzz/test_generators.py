"""Generator determinism and validity.

The campaign contract is that ``(seed, index)`` fully determines a case;
everything downstream (CI reproducibility, shrink re-runs, corpus
provenance) leans on it.
"""

import numpy as np
import pytest

from repro.fuzz import TRACE_SHAPES, generate_case, generate_trace_shape
from repro.config import ENFORCE_BTVECTORS
from repro.fuzz.case import ALL_ENGINES
from repro.fuzz.oracle import run_case


class TestDeterminism:
    @pytest.mark.parametrize("index", range(8))
    def test_same_seed_same_case(self, index):
        a = generate_case(42, index)
        b = generate_case(42, index)
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        dicts_a = [generate_case(1, i).to_dict() for i in range(4)]
        dicts_b = [generate_case(2, i).to_dict() for i in range(4)]
        assert dicts_a != dicts_b

    def test_trace_shape_deterministic(self):
        for shape in TRACE_SHAPES:
            a = generate_trace_shape(shape, np.random.default_rng(9),
                                     2, 2, 16)
            b = generate_trace_shape(shape, np.random.default_rng(9),
                                     2, 2, 16)
            assert a.fingerprint() == b.fingerprint()

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown trace shape"):
            generate_trace_shape("zigzag", np.random.default_rng(0),
                                 2, 2, 16)


class TestValidity:
    """Every generated point must be a *legal* configuration — the
    sampler owns the config invariants so the oracle never crashes on
    its own inputs."""

    @pytest.mark.parametrize("index", range(30))
    def test_case_constructs_a_simulator(self, index):
        case = generate_case(7, index)
        engines = case.applicable_engines()
        base = {spec.partition(":")[0] for spec in engines}
        assert engines and base <= set(ALL_ENGINES)
        # Constructing the simulator runs every config validation.
        sim = case.simulator(engines[0])
        assert len(sim.traces) == case.num_cores

    def test_shapes_are_covered(self):
        """The first 40 indices between them exercise every shape."""
        seen = set()
        for index in range(40):
            seen.update(generate_case(7, index).shape.split("+"))
        assert seen == set(TRACE_SHAPES)

    def test_engine_variety(self):
        """Every case cross-checks both engines, whatever its core
        count, and single-thread and multi-core cases both appear early
        in any campaign."""
        cases = [generate_case(7, i) for i in range(20)]
        assert {case.applicable_engines() for case in cases} == {ALL_ENGINES}
        assert {1, 2} <= {case.num_cores for case in cases}

    def test_seed_zero_compares_the_engines_on_8_cores(self):
        """The top slice of the core-count draw is 8 cores, so
        ``repro fuzz --seed 0 --budget 60`` compares the engines on
        8-thread runs: cases 26 and 28.  Eight cores draw their L2 from
        8 or 16 ways, so every allocation gives each core a way: case 26
        partitions 8 ways with BT vectors.  Case 28 runs LRU on 16 ways,
        the full recency word, on both engines, bit-identically."""
        cases = [generate_case(0, i) for i in range(60)]
        assert [i for i, case in enumerate(cases)
                if case.num_cores == 8] == [26, 28]
        assert all(case.l2_assoc in (8, 16)
                   for case in cases if case.num_cores == 8)
        assert all(case.l2_assoc in (4, 8)
                   for case in cases if case.num_cores < 8)
        assert cases[26].l2_assoc == 8
        assert cases[26].partitioning.enforcement == ENFORCE_BTVECTORS
        assert cases[28].l2_assoc == 16
        assert cases[28].partitioning.policy == "lru"
        report = run_case(cases[28])
        assert report.engines == ALL_ENGINES and report.engine_runs == 2
        assert not report.divergent, report.summary()


class TestMultiCoreShapes:
    """``l1_resident`` / ``freeze_in_gap`` target the batched engine's
    parked threads and freeze-hit events, so their promises are about the
    private L1's outcomes."""

    @staticmethod
    def _dealt(shape, seed=7, indices=range(120)):
        for index in indices:
            case = generate_case(seed, index)
            for core, name in enumerate(case.shape.split("+")):
                if name == shape:
                    yield case, core

    @staticmethod
    def _l1_flags(case, core, passes):
        from repro.cache.l1 import SmallLRUCache

        lines = np.tile(case.traces[core].lines, passes)
        flags = np.ones(len(lines), dtype=bool)
        gaps = SmallLRUCache(case.processor().l1d).access_lines_hit(
            lines).gaps
        flags[np.arange(len(gaps)) + np.cumsum(gaps)] = False
        return flags

    def test_dealt_to_multi_core_cases_only(self):
        for shape in ("l1_resident", "freeze_in_gap"):
            dealt = list(self._dealt(shape))
            assert len(dealt) >= 3
            assert all(case.num_cores > 1 for case, _ in dealt)

    def test_freeze_in_gap_freezes_on_a_hit_deep_in_a_streak(self):
        from repro.cmp.engine import freeze_count

        for case, core in self._dealt("freeze_in_gap"):
            trace = case.traces[core]
            at = freeze_count(float(case.per_thread_instructions[core]),
                              trace.ipm) - 1
            flags = self._l1_flags(case, core, at // len(trace) + 1)
            assert flags[at - 8:at + 1].all(), case.origin

    def test_l1_resident_stops_missing(self):
        for case, core in self._dealt("l1_resident"):
            count = len(case.traces[core])
            flags = self._l1_flags(case, core, 1)
            assert flags[count // 2:].all(), case.origin
