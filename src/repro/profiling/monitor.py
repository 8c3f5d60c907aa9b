"""Per-thread profiling assembly and the multi-core profiling system.

:class:`ThreadMonitor` bundles one thread's ATD, SDH and profiler.
:class:`ProfilingSystem` owns one monitor per core and implements the
hierarchy's L2-observer callback, so the exact stream the paper profiles
(every L2 access of each thread) reaches the right ATD.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.profiling.atd import ATD
from repro.profiling.profilers import make_profiler
from repro.profiling.sdh import SDH
from repro.util.rng import make_rng


class ThreadMonitor:
    """Profiling state of one thread: sampled ATD + SDH."""

    def __init__(self, l2_geometry: CacheGeometry, policy_name: str,
                 sampling: int = 32, nru_scaling: float = 1.0,
                 nru_spread_update: bool = False,
                 rng: Optional[np.random.Generator] = None) -> None:
        """Assemble ATD + matching profiler + SDH for one thread.

        ``nru_scaling`` / ``nru_spread_update`` parameterise the NRU eSDH
        (ignored for other policies); ``sampling`` is the ATD's 1-in-N
        set-sampling ratio.
        """
        self.policy_name = policy_name
        profiler = make_profiler(policy_name, scaling=nru_scaling,
                                 spread_update=nru_spread_update)
        self.atd = ATD(l2_geometry, sampling, policy_name, profiler, rng=rng)
        self.sdh: SDH = self.atd.sdh

    def observe(self, line: int) -> bool:
        """Feed one L2 access of the owning thread."""
        return self.atd.observe(line)

    def miss_curve(self) -> np.ndarray:
        """Estimated misses for every way allocation ``0 .. A``."""
        return self.sdh.miss_curve()

    def halve(self) -> None:
        """Interval-boundary SDH decay."""
        self.sdh.halve()

    def reset(self) -> None:
        """Cold-start the ATD (and with it the SDH)."""
        self.atd.reset()


class ProfilingSystem:
    """One :class:`ThreadMonitor` per core, pluggable into the hierarchy."""

    def __init__(self, num_cores: int, l2_geometry: CacheGeometry,
                 policy_name: str, sampling: int = 32,
                 nru_scaling: float = 1.0,
                 nru_spread_update: bool = False,
                 seed: int = 0) -> None:
        """One monitor per core, each with its own keyed RNG stream.

        Parameters mirror :class:`ThreadMonitor`; ``seed`` keys the
        per-core streams so results are reproducible per (seed, core).
        """
        self.monitors: List[ThreadMonitor] = [
            ThreadMonitor(
                l2_geometry, policy_name, sampling=sampling,
                nru_scaling=nru_scaling, nru_spread_update=nru_spread_update,
                rng=make_rng(seed, "atd", core),
            )
            for core in range(num_cores)
        ]
        # SDH register files (stable: halving and resets work in place).
        self._registers = [m.sdh._r for m in self.monitors]

    def __len__(self) -> int:
        return len(self.monitors)

    def __getitem__(self, core: int) -> ThreadMonitor:
        return self.monitors[core]

    def observe(self, core: int, line: int) -> None:
        """Hierarchy L2-observer hook: route the access to the core's ATD
        (:meth:`ATD.observe`, which counts an unsampled line and leaves
        it).  The batched engine recognises stock profiling by this method
        (:func:`repro.cmp.engine.common.deferrable_profiling`) and drains
        the ATDs in batches instead."""
        self.monitors[core].atd.observe(line)

    def miss_curves(self) -> np.ndarray:
        """Matrix ``(num_cores, A + 1)`` of per-thread miss curves.

        Row ``t`` is ``self[t].miss_curve()``: one ``int64`` stack of the
        register files ``r[0] .. r[A+1]`` and one cumulative sum over
        ``r[A+1] .. r[1]``, reversed, so ``curves[t][w] = sum(r[w+1:])``.
        """
        r = np.array(self._registers, dtype=np.int64)
        return np.cumsum(r[:, :0:-1], axis=1)[:, ::-1].copy()

    def halve_all(self) -> None:
        """Interval-boundary decay of every thread's SDH (paper §II-A)."""
        for monitor in self.monitors:
            monitor.halve()

    def storage_bits(self) -> int:
        """Total profiling-logic storage across cores."""
        return sum(m.atd.storage_bits() for m in self.monitors)
