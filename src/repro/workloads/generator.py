"""Vectorised synthetic trace generation from a :class:`BenchmarkSpec`.

Generation is region-mixture sampling, fully vectorised with numpy:

1. per phase, draw each access's region from the phase weights;
2. ``uniform`` regions draw line offsets uniformly within the region;
3. ``stream`` regions advance a private *unbounded* pointer — one line per
   access to the region and **zero temporal reuse** (the walk never wraps,
   so a scan can never masquerade as a distant-reuse working set);
4. ``zipf`` regions draw offsets with rank-skewed probabilities
   (``p ∝ rank^-s``), permuted across the region so the hot ranks spread
   over all cache sets — graded locality with a smooth miss curve;
5. region base addresses are disjoint per (core, region) so threads never
   share lines (the paper's mixes are multiprogrammed, not multithreaded).

A trace is a pure function of its recipe, and the stores replay results
keyed by that recipe, so the stream is pinned bit for bit
(``tests/test_workloads/test_generator_digests.py``).  It is the stream of
the plain numpy formulation — per phase ``rng.choice(R, p=weights)``, then
per region a boolean mask and one draw, a zipf rank being
``np.searchsorted(cdf, rng.random(n))`` — computed with the same RNG calls
in the same order, only cheaper:

* a region pick is ``rng.choice`` taken apart: one ``rng.random(count)``
  against the CDF ``Generator.choice`` builds, the index being the number
  of CDF edges at or below ``u``;
* each region's positions are listed in order (together, a stable
  counting order of the picks), its offsets drawn with one call in region
  order and scattered there;
* a zipf rank is answered through a guide table (Chen–Asau indexed
  search, :func:`guided_ranks`): a few steps from a precomputed start
  instead of a binary search over every rank.

Consecutive lines of a region map to consecutive L2 sets, so region sizes
translate directly into ways-of-occupancy: a uniform region of ``k × sets``
lines needs about ``k`` ways to stop missing — the knee of the benchmark's
miss curve sits at ``k`` ways, which is the property MinMisses consumes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.util.rng import make_rng
from repro.workloads.spec2000 import (
    BenchmarkSpec,
    PATTERN_STREAM,
    PATTERN_ZIPF,
    ZIPF_EXPONENT,
    get_benchmark,
)
from repro.workloads.trace import Trace

#: Region address spacing: regions live in disjoint 2**32-line windows.
_REGION_SHIFT = 32
#: Core address spacing: cores live in disjoint 2**44-line windows.
_CORE_SHIFT = 44


#: Guide-table buckets per zipf rank.  Each bucket starts the search a few
#: ranks short of the answer at most; two per rank make a zipf draw ~40 %
#: cheaper than one, for 16 bytes a rank.
_GUIDE_BUCKETS_PER_RANK = 2


def guide_table(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """Chen–Asau guide table over a CDF: ``guide[j]`` is the first index
    whose CDF value reaches ``j / buckets``."""
    return np.searchsorted(cdf, np.arange(buckets) / buckets, side="left")


def guided_ranks(cdf: np.ndarray, guide: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Exactly ``np.searchsorted(cdf, u, side="left")``, through ``guide``.

    Needs ``cdf[-1] >= u`` for every ``u`` (the generator's CDFs end at 1.0
    and ``u`` is in ``[0, 1)``).  The search starts one bucket below
    ``floor(u * buckets)``: a rounded-up product can overshoot by one
    bucket, never by two, so ``guide`` at the start is at most the answer.
    It then steps forward while ``cdf[i] < u`` and stops at the first index
    that reaches ``u`` — the left insertion point.
    """
    start = (u * len(guide)).astype(np.intp)
    start -= 1
    np.maximum(start, 0, out=start)
    ranks = guide[start]
    behind = np.flatnonzero(cdf[ranks] < u)
    while behind.size:
        ranks[behind] += 1
        behind = behind[cdf[ranks[behind]] < u[behind]]
    return ranks


def _zipf_tables(size: int, rng: np.random.Generator):
    """CDF over ranks, a rank -> offset permutation and the CDF's guide
    table for one region.

    The permutation spreads hot ranks across the whole region (and hence
    across all cache sets); without it the skew would pile onto the first
    few sets and alias with the index mapping.
    """
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_EXPONENT
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    permutation = rng.permutation(size).astype(np.int64)
    return cdf, permutation, guide_table(cdf, _GUIDE_BUCKETS_PER_RANK * size)


def _region_edges(weights) -> np.ndarray:
    """The region-pick CDF of one phase, built as ``Generator.choice``
    builds it from the normalised weights, less its last edge (1.0, above
    every draw)."""
    weights = np.asarray(weights, dtype=np.float64)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf[:-1]


def generate_trace(spec, num_accesses: int, l2_lines: int,
                   seed: int = 0, core_id: int = 0,
                   rng: Optional[np.random.Generator] = None) -> Trace:
    """Generate one thread's reference stream.

    Parameters
    ----------
    spec:
        A :class:`BenchmarkSpec` or a catalog benchmark name.
    num_accesses:
        Trace length in memory accesses.
    l2_lines:
        Line capacity of the target L2 — region fractions are resolved
        against it (see :meth:`RegionSpec.size_lines`).
    seed / core_id:
        Deterministic stream selection; two cores running the same
        benchmark get disjoint, differently-seeded streams.
    """
    if isinstance(spec, str):
        spec = get_benchmark(spec)
    if num_accesses <= 0:
        raise ValueError("num_accesses must be positive")
    if l2_lines <= 0:
        raise ValueError("l2_lines must be positive")
    if rng is None:
        rng = make_rng(seed, "trace", spec.name, core_id)

    num_regions = len(spec.regions)
    sizes = np.array([r.size_lines(l2_lines) for r in spec.regions],
                     dtype=np.int64)
    bases = np.array(
        [(core_id << _CORE_SHIFT) | (r << _REGION_SHIFT)
         for r in range(num_regions)],
        dtype=np.int64,
    )
    is_stream = np.array([r.pattern == PATTERN_STREAM for r in spec.regions])
    is_zipf = np.array([r.pattern == PATTERN_ZIPF for r in spec.regions])
    stream_pos = np.zeros(num_regions, dtype=np.int64)
    zipf_tables = {
        r: _zipf_tables(int(sizes[r]), make_rng(seed, "zipf", spec.name, r))
        for r in range(num_regions) if is_zipf[r]
    }
    phase_edges = [_region_edges(phase.weights) for phase in spec.phases]
    choice_type = np.min_scalar_type(num_regions)

    out = np.empty(num_accesses, dtype=np.int64)
    filled = 0
    phase_index = 0
    num_phases = len(spec.phases)

    while filled < num_accesses:
        edges = phase_edges[phase_index % num_phases]
        phase_index += 1
        count = min(spec.phase_accesses, num_accesses - filled)
        u = rng.random(count)
        choices = np.zeros(count, dtype=choice_type)
        for edge in edges:
            choices += u >= edge
        segment = out[filled:filled + count]
        for r in range(num_regions):
            positions = np.flatnonzero(choices == r)
            n = len(positions)
            if n == 0:
                continue
            size = int(sizes[r])
            if is_stream[r]:
                # Unbounded walk: a scan never revisits a line.  The region
                # window is 2**32 lines — far beyond any trace length.
                offsets = stream_pos[r] + np.arange(n, dtype=np.int64)
                stream_pos[r] += n
            elif is_zipf[r]:
                cdf, permutation, guide = zipf_tables[r]
                offsets = permutation[guided_ranks(cdf, guide, rng.random(n))]
            else:
                offsets = rng.integers(0, size, size=n, dtype=np.int64)
            segment[positions] = bases[r] + offsets
        filled += count

    return Trace(name=spec.name, lines=out, ipm=spec.ipm,
                 cpi_base=spec.cpi_base)


def generate_workload_traces(benchmarks, num_accesses: int, l2_lines: int,
                             seed: int = 0):
    """Traces for a multiprogrammed mix; core ``i`` runs ``benchmarks[i]``.

    Repeated benchmark names (e.g. ``facerec`` twice in 8T_04) get distinct
    address spaces and random streams via their core id.
    """
    return [
        generate_trace(name, num_accesses, l2_lines, seed=seed, core_id=i)
        for i, name in enumerate(benchmarks)
    ]
