"""Profiling logic: SDH registers, sampled ATDs and stack-distance profilers.

The dynamic CPA needs, per thread, the miss count it *would* incur at every
possible way allocation (§II-A).  For true LRU this is exact (stack
property); for NRU and BT the paper's estimated SDH (eSDH) techniques are
implemented by :class:`NRUDistanceProfiler` and :class:`BTDistanceProfiler`.

:class:`ThreadMonitor` assembles one thread's ATD + SDH + profiler;
:class:`ProfilingSystem` holds one monitor per core and plugs into the
hierarchy's L2 observer hook.

Offline companion: :mod:`repro.profiling.stackdist` computes *exact*
reuse/stack distances from a reference stream (ground truth for the
estimators).  :mod:`repro.profiling.misscurve` is not re-exported: no
figure, selector or example reads it.
"""

from repro.profiling.sdh import SDH
from repro.profiling.atd import ATD
from repro.profiling.profilers import (
    DistanceProfiler,
    LRUDistanceProfiler,
    NRUDistanceProfiler,
    BTDistanceProfiler,
    make_profiler,
)
from repro.profiling.monitor import ProfilingSystem, ThreadMonitor
from repro.profiling.stackdist import (
    COLD,
    ReuseDistanceAnalyzer,
    SetReuseDistanceAnalyzer,
    exact_miss_curve,
    exact_sdh,
)

__all__ = [
    "SDH",
    "ATD",
    "DistanceProfiler",
    "LRUDistanceProfiler",
    "NRUDistanceProfiler",
    "BTDistanceProfiler",
    "make_profiler",
    "ThreadMonitor",
    "ProfilingSystem",
    "COLD",
    "ReuseDistanceAnalyzer",
    "SetReuseDistanceAnalyzer",
    "exact_miss_curve",
    "exact_sdh",
]
