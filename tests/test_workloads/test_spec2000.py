"""Unit tests for the SPEC CPU 2000 benchmark catalog."""

import pytest

from repro.workloads.mixes import ALL_WORKLOADS
from repro.workloads.spec2000 import (
    CATALOG,
    BenchmarkSpec,
    Phase,
    RegionSpec,
    benchmark_names,
    get_benchmark,
)


class TestCatalog:
    def test_every_mix_benchmark_is_modelled(self):
        """Each benchmark named in Table II has a catalog entry."""
        for mix, benchmarks in ALL_WORKLOADS.items():
            for name in benchmarks:
                assert name in CATALOG, f"{name} (from {mix}) missing"

    def test_perl_alias(self):
        assert CATALOG["perl"] is CATALOG["perlbmk"]

    def test_names_exclude_alias(self):
        names = benchmark_names()
        assert "perl" not in names
        assert "perlbmk" in names
        # Table II names exactly 25 distinct benchmarks (perl == perlbmk).
        assert len(names) == 25
        table_ii = {b for mix in ALL_WORKLOADS.values() for b in mix}
        table_ii.discard("perl")
        table_ii.add("perlbmk")
        assert set(names) == table_ii

    def test_get_benchmark_error(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            get_benchmark("doom")

    def test_streamers_have_large_footprints(self):
        for name in ("mcf", "art", "swim"):
            spec = get_benchmark(name)
            total = sum(r.l2_fraction for r in spec.regions)
            assert total > 2.0, f"{name} should exceed the L2"

    def test_friendly_benchmarks_fit(self):
        for name in ("crafty", "eon", "mesa"):
            spec = get_benchmark(name)
            total = sum(r.l2_fraction for r in spec.regions)
            assert total < 0.5, f"{name} should fit well inside the L2"

    def test_phase_weights_match_regions(self):
        for name in benchmark_names():
            spec = get_benchmark(name)
            for phase in spec.phases:
                assert len(phase.weights) == len(spec.regions)

    def test_plausible_core_parameters(self):
        for name in benchmark_names():
            spec = get_benchmark(name)
            assert 1.0 <= spec.ipm <= 10.0
            assert 0.3 <= spec.cpi_base <= 3.0


class TestSpecValidation:
    def test_region_fraction_positive(self):
        with pytest.raises(ValueError):
            RegionSpec("x", 0.0)

    def test_region_pattern_known(self):
        with pytest.raises(ValueError):
            RegionSpec("x", 1.0, "zigzag")

    def test_region_size_floor(self):
        assert RegionSpec("x", 1e-9).size_lines(1000) == 4

    def test_phase_needs_weights(self):
        with pytest.raises(ValueError):
            Phase(())
        with pytest.raises(ValueError):
            Phase((0.0, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_phase_weights_must_be_finite(self, bad):
        # The generator inverts the weights' CDF itself: a NaN or inf
        # weight would pick regions silently instead of failing.
        with pytest.raises(ValueError, match="finite"):
            Phase((0.5, bad))

    def test_spec_weight_arity_checked(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(
                name="bad", ipm=4.0, cpi_base=1.0,
                regions=(RegionSpec("a", 1.0),),
                phases=(Phase((0.5, 0.5)),),
            )
