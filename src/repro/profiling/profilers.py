"""Stack-distance profilers: exact for LRU, estimated for NRU and BT.

A profiler interprets the ATD's replacement state on a hit and updates the
thread's SDH.  ATD misses are recorded uniformly as position ``A + 1`` by
the ATD itself (paper §II-A).

* :class:`LRUDistanceProfiler` — reads the exact stack position (the paper's
  baseline profiling logic, possible only because LRU has the stack
  property).
* :class:`NRUDistanceProfiler` — the paper's §III-A eSDH: on a hit whose
  used bit is already 1 the distance is estimated as ``ceil(S · U)`` where
  ``U`` counts the set's used bits (including the accessed line) and ``S``
  is the scaling factor (1.0 / 0.75 / 0.5 evaluated in the paper).  A hit
  whose used bit is 0 has distance somewhere in ``U+1 .. A``; the paper
  skips the SDH update in this case because recording the upper bound ``A``
  only adds a constant to every ``w < A`` point of the miss curve.  Set
  ``spread_update=True`` for the literal reading that increments every
  register ``r1 .. r_d`` (ablation).
* :class:`BTDistanceProfiler` — the paper's §III-B eSDH: XOR the accessed
  way's identifier bits with the actual BT path bits and subtract from the
  associativity: ``d = A − (ID ⊕ path)``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from array import array

from repro.cache.replacement.bt import BTPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.nru import NRUPolicy
from repro.profiling.sdh import SDH


class DistanceProfiler(ABC):
    """Updates an SDH from the ATD replacement state on a hit."""

    #: Replacement policy the profiler understands.
    policy_name: str = "abstract"

    @abstractmethod
    def on_hit(self, policy, set_index: int, way: int, sdh: SDH) -> None:
        """Record the (estimated) stack distance of a hit.

        Must be called *before* the ATD promotes the line, because every
        estimate reads pre-access replacement state.
        """


class LRUDistanceProfiler(DistanceProfiler):
    """Exact stack positions from the LRU timestamps (paper §II-A)."""

    policy_name = "lru"

    def on_hit(self, policy: LRUPolicy, set_index: int, way: int, sdh: SDH) -> None:
        """Record the line's exact pre-access stack position (1 = MRU)."""
        sdh.record(policy.stack_position(set_index, way))


class NRUDistanceProfiler(DistanceProfiler):
    """Estimated SDH for NRU ATDs (paper §III-A).

    Parameters
    ----------
    scaling:
        The eSDH scaling factor ``S``; the paper evaluates 1.0, 0.75, 0.5
        and finds 0.75 best.  Non-integer ``S·U`` rounds up ("we select the
        closest upper integer").
    spread_update:
        When True, increment registers ``r1 .. r_d`` instead of only ``r_d``
        (the literal reading of the paper's wording).
    """

    policy_name = "nru"

    def __init__(self, scaling: float = 1.0, spread_update: bool = False) -> None:
        """Validate the scaling factor (see the class docstring)."""
        if not 0.0 < scaling <= 1.0:
            raise ValueError(f"scaling must be in (0, 1], got {scaling}")
        self.scaling = scaling
        self.spread_update = spread_update

    def distance_table(self, assoc: int) -> array:
        """``d = max(1, ceil(S * U))`` for every ``U = 0 .. assoc``.

        What the rendered observe kernels index by the used-bit count, so
        the float product is taken once per ``U`` here (by the expression
        :meth:`on_hit` evaluates per hit) and the per-access read is
        integer work in the compiled kernel too.
        """
        return array("q", [max(1, math.ceil(self.scaling * used))
                           for used in range(assoc + 1)])

    def on_hit(self, policy: NRUPolicy, set_index: int, way: int, sdh: SDH) -> None:
        """Estimate ``d = ceil(S * U)`` from the set's used bits (§III-A)."""
        if not policy.used_bit(set_index, way):
            # Distance within U+1 .. A: skipped on purpose (constant-offset
            # argument, paper §III-A).
            return
        used = policy.used_count(set_index)  # includes the accessed line
        distance = math.ceil(self.scaling * used)
        if distance < 1:
            distance = 1
        if self.spread_update:
            sdh.record_range(distance)
        else:
            sdh.record(distance)


class BTDistanceProfiler(DistanceProfiler):
    """Estimated SDH for BT ATDs (paper §III-B, Figure 4(b))."""

    policy_name = "bt"

    def on_hit(self, policy: BTPolicy, set_index: int, way: int, sdh: SDH) -> None:
        """Estimate ``d = A - (ID xor path)`` from the BT bits (§III-B)."""
        xor = policy.path_bits(set_index, way) ^ policy.id_bits(way)
        sdh.record(policy.assoc - xor)


def make_profiler(policy_name: str, scaling: float = 1.0,
                  spread_update: bool = False) -> DistanceProfiler:
    """Profiler matching a replacement policy name."""
    if policy_name == "lru":
        return LRUDistanceProfiler()
    if policy_name == "nru":
        return NRUDistanceProfiler(scaling=scaling, spread_update=spread_update)
    if policy_name == "bt":
        return BTDistanceProfiler()
    raise ValueError(
        f"no stack-distance profiler for policy {policy_name!r} "
        "(the paper defines profiling for lru, nru and bt)"
    )
