"""Cross-checks: policy-reported state bits vs the complexity model.

Every replacement policy self-reports its per-set storage
(:meth:`ReplacementPolicy.state_bits_per_set`); for the paper's three
policies this must agree with the Table I(a) formulas in
:class:`ReplacementComplexity`, and for the extension policies with their
published hardware costs.
"""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.base import make_policy
from repro.cache.replacement.rrip import SRRIPPolicy
from repro.hwmodel.complexity import ReplacementComplexity

GEOMETRY = CacheGeometry(2 * 1024 * 1024, 16, 128)  # the paper's L2


def policy_bits(name, num_sets=16, assoc=16):
    return make_policy(name, num_sets, assoc).state_bits_per_set()


class TestPaperPolicies:
    @pytest.mark.parametrize("name", ["lru", "nru", "bt"])
    def test_matches_table1_formula(self, name):
        comp = ReplacementComplexity(name, GEOMETRY, num_cores=2)
        per_set = policy_bits(name, num_sets=GEOMETRY.num_sets, assoc=16)
        # Table I(a) totals count per-set bits × sets (+ the NRU pointer,
        # which the policy reports separately).
        expected_total = per_set * GEOMETRY.num_sets
        measured = comp.storage_bits_total("none")
        if name == "nru":
            expected_total += 4  # cache-global replacement pointer
        assert measured == expected_total

    def test_lru_is_a_log_a(self):
        assert policy_bits("lru") == 16 * 4

    def test_nru_is_a(self):
        assert policy_bits("nru") == 16

    def test_bt_is_a_minus_1(self):
        assert policy_bits("bt") == 15


class TestExtensionPolicies:
    def test_fifo_pointer(self):
        assert policy_bits("fifo") == 4          # log2(16)

    def test_srrip_m_bits(self):
        assert SRRIPPolicy(16, 16, m_bits=2).state_bits_per_set() == 32
        assert SRRIPPolicy(16, 16, m_bits=3).state_bits_per_set() == 48

    def test_brrip_same_as_srrip(self):
        assert policy_bits("brrip") == policy_bits("srrip")

    def test_lip_bip_same_as_lru(self):
        assert policy_bits("lip") == policy_bits("lru")
        assert policy_bits("bip") == policy_bits("lru")

    def test_dip_adds_only_monitor(self):
        dip = make_policy("dip", 64, 16)
        assert dip.state_bits_per_set() == policy_bits("lru", num_sets=64)
        assert dip.monitor_bits() == 10

    def test_random_is_free(self):
        assert policy_bits("random") == 0

    def test_ordering_matches_paper_motivation(self):
        """The paper's premise: pseudo-LRU costs a fraction of true LRU."""
        lru = policy_bits("lru")
        assert policy_bits("nru") < lru
        assert policy_bits("bt") < lru
        assert policy_bits("bt") < policy_bits("nru")
        # and the modern NRU generalisation sits in between.
        assert policy_bits("nru") < policy_bits("srrip") < lru


class TestReportStateBitsTable:
    """``repro report`` surfaces the totals alongside Table I."""

    def test_covers_every_registered_policy(self):
        from repro.cache.replacement.base import POLICY_REGISTRY
        from repro.experiments.table1 import policy_state_bits

        rows = {r["policy"]: r for r in policy_state_bits(GEOMETRY)}
        assert set(rows) == set(POLICY_REGISTRY)
        # Totals = per_set x num_sets + per-cache extras.
        for name, row in rows.items():
            assert row["total"] == (row["per_set"] * GEOMETRY.num_sets
                                    + row["per_cache"])
        # Paper geometry spot checks: LRU 8 KB, NRU A bits/set + pointer,
        # BT (A-1) bits/set, DIP adds only the 10-bit PSEL over LRU.
        assert rows["lru"]["total"] == 8 * 8 * 1024
        assert rows["nru"]["per_cache"] == 4
        assert rows["bt"]["per_set"] == 15
        assert rows["dip"]["total"] == rows["lru"]["total"] + 10

    def test_rendered_in_table1_section(self):
        from repro.reporting.sections import SECTIONS

        tables = SECTIONS["table1"].build(None, {}).tables
        titles = [t.title for t in tables]
        assert any("all registered policies" in t for t in titles)
        block = next(t for t in tables
                     if "all registered policies" in t.title)
        policies = {row[0] for row in block.rows}
        assert {"lru", "nru", "bt", "fifo", "dip", "srrip"} <= policies
