"""Calibrated synthetic models of the 26 SPEC CPU 2000 benchmarks used in
the paper's Table II.

Each benchmark is a :class:`BenchmarkSpec`: a set of address *regions* plus
one or more *phases* that weight accesses across the regions.  Region sizes
are expressed as fractions of the baseline L2 capacity so that scaled-down
experiment configurations keep the same qualitative miss curves (a region
that is "half the L2" stays half the L2).

Calibration follows the well-known memory-behaviour classes of SPEC CPU
2000 (working-set and MPKI characterisations from the cache-partitioning
literature — Qureshi & Patt MICRO'06, Kim/Chandra/Solihin PACT'04):

* **cache-hostile streamers** — ``mcf``, ``art``, ``swim``, ``lucas``,
  ``applu``, ``equake``, ``mgrid``: footprints several times the L2, large
  streaming fraction, low IPC.  They gain little from extra ways but
  pollute shared caches.
* **cache-friendly small-footprint** — ``crafty``, ``eon``, ``gzip``,
  ``mesa``, ``perlbmk``, ``sixtrack``, ``fma3d``, ``gap``: working sets
  well under the L2; high base IPC; insensitive to partitioning.
* **partition-sensitive mid-size** — ``parser``, ``twolf``, ``vpr``,
  ``vortex``, ``gcc``, ``bzip2``, ``apsi``, ``galgel``, ``facerec``,
  ``wupwise``: working sets comparable to a few L2 ways; their miss curves
  have knees, which is where MinMisses earns its keep.

The absolute numbers are synthetic: only the shape of the per-benchmark
miss curves matters for reproducing the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Region access patterns.
PATTERN_UNIFORM = "uniform"   # uniform random lines within the region
PATTERN_STREAM = "stream"     # unbounded sequential walk (zero temporal reuse)
PATTERN_ZIPF = "zipf"         # rank-skewed lines (graded locality tail)
PATTERNS = (PATTERN_UNIFORM, PATTERN_STREAM, PATTERN_ZIPF)

#: Zipf exponent for PATTERN_ZIPF regions.  With ``p(rank) ∝ rank^-s`` and
#: ``s < 1`` the captured-hit fraction grows like ``(resident/total)^(1-s)``
#: — a smooth, knee-free miss curve that models the graded locality tails
#: of real codes (heaps, IR pools) better than a uniform region's cliff.
ZIPF_EXPONENT = 0.8


@dataclass(frozen=True)
class RegionSpec:
    """One address region of a benchmark."""

    name: str
    #: Region size as a fraction of the baseline L2 line count.
    l2_fraction: float
    pattern: str = PATTERN_UNIFORM

    def __post_init__(self) -> None:
        if self.l2_fraction <= 0:
            raise ValueError(f"region {self.name}: fraction must be positive")
        if self.pattern not in PATTERNS:
            raise ValueError(f"region {self.name}: unknown pattern {self.pattern!r}")

    def size_lines(self, l2_lines: int) -> int:
        """Concrete region size for a given L2 capacity (>= 4 lines)."""
        return max(4, int(round(self.l2_fraction * l2_lines)))


@dataclass(frozen=True)
class Phase:
    """Access weights over the benchmark's regions for one program phase."""

    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.weights or any(w < 0 for w in self.weights):
            raise ValueError("phase weights must be non-negative and non-empty")
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError("phase weights must be finite")
        if sum(self.weights) <= 0:
            raise ValueError("phase weights must not all be zero")


@dataclass(frozen=True)
class BenchmarkSpec:
    """Synthetic model of one SPEC CPU 2000 benchmark."""

    name: str
    #: Instructions per memory access (SPEC programs: roughly 3-5).
    ipm: float
    #: CPI with a perfect memory hierarchy (wide OoO core: < 1 possible).
    cpi_base: float
    regions: Tuple[RegionSpec, ...]
    phases: Tuple[Phase, ...]
    #: Accesses per phase before cycling to the next one.
    phase_accesses: int = 40_000

    def __post_init__(self) -> None:
        if self.ipm <= 0 or self.cpi_base <= 0:
            raise ValueError(f"{self.name}: ipm and cpi_base must be positive")
        if not self.regions or not self.phases:
            raise ValueError(f"{self.name}: needs regions and phases")
        for phase in self.phases:
            if len(phase.weights) != len(self.regions):
                raise ValueError(
                    f"{self.name}: phase weights must match region count"
                )
        if self.phase_accesses <= 0:
            raise ValueError(f"{self.name}: phase_accesses must be positive")


def _spec(name: str, ipm: float, cpi: float,
          regions: List[Tuple[str, float, str]],
          phases: List[Tuple[float, ...]],
          phase_accesses: int = 40_000) -> BenchmarkSpec:
    """Compact catalog constructor."""
    return BenchmarkSpec(
        name=name, ipm=ipm, cpi_base=cpi,
        regions=tuple(RegionSpec(n, f, p) for n, f, p in regions),
        phases=tuple(Phase(tuple(w)) for w in phases),
        phase_accesses=phase_accesses,
    )


# ----------------------------------------------------------------------
# The catalog.  Regions: ("hot", tiny, uniform) models register-spill/stack
# locality that always hits; ("work", mid, uniform) is the partition-
# sensitive working set; ("stream", large, stream) models scans with no
# temporal reuse.
# ----------------------------------------------------------------------
CATALOG: Dict[str, BenchmarkSpec] = {}


def _add(spec: BenchmarkSpec) -> None:
    CATALOG[spec.name] = spec


# --- cache-hostile streamers -----------------------------------------
_add(_spec("mcf", ipm=2.6, cpi=1.10,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("work", 3.50, PATTERN_UNIFORM),
                    ("stream", 6.00, PATTERN_STREAM)],
           phases=[(0.50, 0.30, 0.20), (0.45, 0.20, 0.35)]))
_add(_spec("art", ipm=3.0, cpi=0.95,
           regions=[("hot", 0.03, PATTERN_UNIFORM),
                    ("work", 3.00, PATTERN_UNIFORM),
                    ("stream", 4.00, PATTERN_STREAM)],
           phases=[(0.50, 0.25, 0.25)]))
_add(_spec("swim", ipm=3.4, cpi=0.90,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("grid", 3.00, PATTERN_STREAM),
                    ("stream", 5.00, PATTERN_STREAM)],
           phases=[(0.50, 0.30, 0.20)]))
_add(_spec("lucas", ipm=3.6, cpi=0.95,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("fft", 3.00, PATTERN_UNIFORM),
                    ("stream", 4.00, PATTERN_STREAM)],
           phases=[(0.50, 0.25, 0.25)]))
_add(_spec("applu", ipm=3.5, cpi=0.92,
           regions=[("hot", 0.03, PATTERN_UNIFORM),
                    ("block", 3.00, PATTERN_UNIFORM),
                    ("stream", 4.50, PATTERN_STREAM)],
           phases=[(0.50, 0.25, 0.25), (0.55, 0.30, 0.15)]))
_add(_spec("equake", ipm=3.2, cpi=0.95,
           regions=[("hot", 0.04, PATTERN_UNIFORM),
                    ("mesh", 2.50, PATTERN_UNIFORM),
                    ("stream", 3.00, PATTERN_STREAM)],
           phases=[(0.55, 0.25, 0.20)]))
_add(_spec("mgrid", ipm=3.8, cpi=0.88,
           regions=[("hot", 0.03, PATTERN_UNIFORM),
                    ("grid", 2.50, PATTERN_UNIFORM),
                    ("stream", 3.50, PATTERN_STREAM)],
           phases=[(0.50, 0.30, 0.20)]))

# --- cache-friendly small-footprint codes ----------------------------
_add(_spec("crafty", ipm=4.6, cpi=0.72,
           regions=[("hot", 0.015, PATTERN_UNIFORM),
                    ("tables", 0.10, PATTERN_UNIFORM)],
           phases=[(0.65, 0.35)]))
_add(_spec("eon", ipm=4.8, cpi=0.70,
           regions=[("hot", 0.01, PATTERN_UNIFORM),
                    ("scene", 0.08, PATTERN_UNIFORM)],
           phases=[(0.70, 0.30)]))
_add(_spec("gzip", ipm=4.2, cpi=0.78,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("window", 0.12, PATTERN_UNIFORM),
                    ("input", 0.80, PATTERN_STREAM)],
           phases=[(0.55, 0.35, 0.10)]))
_add(_spec("mesa", ipm=4.4, cpi=0.75,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("textures", 0.15, PATTERN_UNIFORM)],
           phases=[(0.60, 0.40)]))
_add(_spec("perlbmk", ipm=4.5, cpi=0.80,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("heap", 0.18, PATTERN_UNIFORM)],
           phases=[(0.60, 0.40)]))
_add(_spec("sixtrack", ipm=4.0, cpi=0.74,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("lattice", 0.09, PATTERN_UNIFORM)],
           phases=[(0.55, 0.45)]))
_add(_spec("fma3d", ipm=3.9, cpi=0.85,
           regions=[("hot", 0.03, PATTERN_UNIFORM),
                    ("elements", 0.20, PATTERN_UNIFORM),
                    ("stream", 1.20, PATTERN_STREAM)],
           phases=[(0.45, 0.40, 0.15)]))
_add(_spec("gap", ipm=4.3, cpi=0.80,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("bags", 0.22, PATTERN_UNIFORM)],
           phases=[(0.55, 0.45)]))

# --- partition-sensitive mid-size working sets ------------------------
_add(_spec("parser", ipm=4.0, cpi=0.85,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("dict", 0.20, PATTERN_UNIFORM),
                    ("heap", 0.40, PATTERN_ZIPF)],
           phases=[(0.40, 0.45, 0.15), (0.35, 0.30, 0.35)]))
_add(_spec("twolf", ipm=3.9, cpi=0.88,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("cells", 0.25, PATTERN_UNIFORM)],
           phases=[(0.45, 0.55)]))
_add(_spec("vpr", ipm=4.0, cpi=0.86,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("netlist", 0.20, PATTERN_UNIFORM),
                    ("routing", 0.35, PATTERN_ZIPF)],
           phases=[(0.45, 0.40, 0.15), (0.40, 0.25, 0.35)]))
_add(_spec("vortex", ipm=4.1, cpi=0.82,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("objects", 0.18, PATTERN_UNIFORM),
                    ("db", 0.40, PATTERN_ZIPF)],
           phases=[(0.45, 0.40, 0.15)]))
_add(_spec("gcc", ipm=4.2, cpi=0.84,
           regions=[("hot", 0.03, PATTERN_UNIFORM),
                    ("ir", 0.16, PATTERN_UNIFORM),
                    ("rtl", 0.35, PATTERN_ZIPF)],
           phases=[(0.45, 0.40, 0.15), (0.35, 0.25, 0.40)]))
_add(_spec("bzip2", ipm=4.1, cpi=0.80,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("block", 0.15, PATTERN_UNIFORM),
                    ("input", 1.50, PATTERN_STREAM)],
           phases=[(0.50, 0.40, 0.10), (0.40, 0.30, 0.30)]))
_add(_spec("apsi", ipm=3.8, cpi=0.86,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("fields", 0.35, PATTERN_ZIPF),
                    ("stream", 1.50, PATTERN_STREAM)],
           phases=[(0.45, 0.40, 0.15)]))
_add(_spec("galgel", ipm=3.7, cpi=0.84,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("matrix", 0.28, PATTERN_UNIFORM)],
           phases=[(0.40, 0.60)]))
_add(_spec("facerec", ipm=3.9, cpi=0.84,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("gallery", 0.18, PATTERN_UNIFORM),
                    ("probe", 1.00, PATTERN_STREAM)],
           phases=[(0.45, 0.40, 0.15)]))
_add(_spec("wupwise", ipm=3.8, cpi=0.82,
           regions=[("hot", 0.02, PATTERN_UNIFORM),
                    ("lattice", 0.30, PATTERN_UNIFORM)],
           phases=[(0.40, 0.60)]))

#: Alias used by some Table II rows ("perl" == "perlbmk").
CATALOG["perl"] = CATALOG["perlbmk"]


def benchmark_names() -> List[str]:
    """Canonical benchmark names (aliases excluded)."""
    return sorted(name for name in CATALOG if name != "perl")


def get_benchmark(name: str) -> BenchmarkSpec:
    """Catalog lookup with a helpful error."""
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {benchmark_names()}"
        ) from None
