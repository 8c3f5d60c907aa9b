"""Unit tests for repro.config."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.config import (
    PartitioningConfig,
    ProcessorConfig,
    SimulationConfig,
    config_C_L,
    config_M_BT,
    config_M_L,
    config_M_N,
    config_unpartitioned,
    paper_figure7_configs,
)


class TestProcessorConfig:
    def test_paper_defaults(self):
        p = ProcessorConfig()
        assert p.l2.size_bytes == 2 * 1024 * 1024
        assert p.l2.assoc == 16
        assert p.l1d.size_bytes == 32 * 1024
        assert p.l1i.size_bytes == 64 * 1024
        assert p.l2_hit_penalty == 11
        assert p.memory_penalty == 250

    def test_scaled_preserves_assoc(self):
        p = ProcessorConfig().scaled(8)
        assert p.l2.assoc == 16
        assert p.l2.size_bytes == 256 * 1024
        assert p.l1d.assoc == 2

    def test_with_l2(self):
        small = CacheGeometry(512 * 1024, 16, 128)
        p = ProcessorConfig().with_l2(small)
        assert p.l2 == small
        assert p.l1d == ProcessorConfig().l1d

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            ProcessorConfig(num_cores=0)


class TestPartitioningConfig:
    def test_acronyms_match_paper(self):
        assert config_C_L().acronym == "C-L"
        assert config_M_L().acronym == "M-L"
        assert config_M_N(1.0).acronym == "M-1.0N"
        assert config_M_N(0.75).acronym == "M-0.75N"
        assert config_M_N(0.5).acronym == "M-0.5N"
        assert config_M_BT().acronym == "M-BT"

    def test_unpartitioned_acronyms(self):
        assert config_unpartitioned("lru").acronym == "LRU"
        assert config_unpartitioned("nru").acronym == "NRU"
        assert config_unpartitioned("bt").acronym == "BT"

    def test_figure7_list(self):
        acronyms = [c.acronym for c in paper_figure7_configs()]
        assert acronyms == ["C-L", "M-L", "M-1.0N", "M-0.75N", "M-0.5N", "M-BT"]

    def test_partitioned_flag(self):
        assert config_C_L().partitioned
        assert not config_unpartitioned("lru").partitioned

    def test_bt_requires_btvectors(self):
        with pytest.raises(ValueError):
            PartitioningConfig(policy="bt", enforcement="masks")

    def test_btvectors_requires_bt(self):
        with pytest.raises(ValueError):
            PartitioningConfig(policy="lru", enforcement="btvectors")

    def test_scaling_range(self):
        with pytest.raises(ValueError):
            PartitioningConfig(policy="nru", nru_scaling=0.0)
        with pytest.raises(ValueError):
            PartitioningConfig(policy="nru", nru_scaling=1.5)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            PartitioningConfig(policy="plru")

    def test_policies_are_the_registered_ones(self):
        """A configuration accepts exactly the policies the cache can build."""
        from repro.cache.replacement.base import POLICY_REGISTRY
        from repro.config import POLICIES

        assert set(POLICY_REGISTRY) == set(POLICIES)

    def test_paper_interval_default(self):
        assert config_C_L().interval_cycles == 1_000_000

    def test_paper_sampling_default(self):
        assert config_C_L().atd_sampling == 32


class TestSimulationConfig:
    def test_defaults(self):
        cfg = SimulationConfig()
        assert cfg.instructions_per_thread == 100_000_000

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            SimulationConfig(instructions_per_thread=0)

    def test_rejects_bad_per_thread(self):
        with pytest.raises(ValueError):
            SimulationConfig(per_thread_instructions=(1000, 0))

    def test_per_thread_accepted(self):
        cfg = SimulationConfig(per_thread_instructions=(10, 20))
        assert cfg.per_thread_instructions == (10, 20)
