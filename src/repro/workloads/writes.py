"""Write overlays for traces — the write-back extension's workload side.

The paper's methodology is read-only (its partitioning study is insensitive
to write handling).  The write-back
extension needs stores, so this module *overlays* a write pattern onto an
existing trace without touching the address stream: the hit/miss behaviour
of every cache level is unchanged, only dirty bits and writeback traffic
appear.  That makes read-only and write-overlaid runs of the same trace
directly comparable — which is exactly what the writeback example measures.

SPEC CPU 2000 integer codes issue roughly 25-40 % stores among memory
references; :data:`DEFAULT_WRITE_FRACTION` sits in that band.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.util.rng import make_rng
from repro.workloads.trace import Trace

#: Typical store share of SPEC CPU 2000 memory references.
DEFAULT_WRITE_FRACTION = 0.3


def overlay_writes(trace: Trace, fraction: float = DEFAULT_WRITE_FRACTION,
                   seed: int = 0,
                   rng: Optional[np.random.Generator] = None) -> Trace:
    """Return a copy of ``trace`` with ``fraction`` of accesses as writes.

    The selection is an i.i.d. Bernoulli draw per access, deterministic in
    ``(trace.name, seed)``.  ``fraction == 0`` returns a read-only copy
    (``writes is None``), so overlaying is idempotent in the degenerate
    case.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if fraction == 0.0:
        return Trace(name=trace.name, lines=trace.lines.copy(),
                     ipm=trace.ipm, cpi_base=trace.cpi_base)
    if rng is None:
        rng = make_rng(seed, "writes", trace.name)
    writes = rng.random(len(trace)) < fraction
    return Trace(name=trace.name, lines=trace.lines.copy(),
                 ipm=trace.ipm, cpi_base=trace.cpi_base, writes=writes)


def overlay_workload_writes(traces: Sequence[Trace],
                            fraction: float = DEFAULT_WRITE_FRACTION,
                            seed: int = 0) -> list:
    """Write-overlaid copies of a whole mix (per-trace deterministic)."""
    return [overlay_writes(t, fraction, seed=seed + i)
            for i, t in enumerate(traces)]
