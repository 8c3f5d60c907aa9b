"""Re-Reference Interval Prediction (SRRIP / BRRIP) replacement.

Jaleel et al. (ISCA 2010) generalise NRU from one used bit to an ``M``-bit
*re-reference prediction value* (RRPV) per line.  ``M = 1`` degenerates to a
per-set NRU without the global pointer; the paper's "Set-dueling controlled
adaptive insertion" reference [20] comes from the same line of work, so the
RRIP family is the natural modern baseline to compare the 2010 pseudo-LRU
schemes against.

State is one flat RRPV array indexed ``set * assoc + way``.

Semantics (hit priority, ``RRPV_MAX = 2**M - 1``):

* **Victim**: scan the candidate ways for ``RRPV == RRPV_MAX`` (distant
  re-reference).  If none, increment every candidate's RRPV and rescan —
  guaranteed to terminate within ``RRPV_MAX`` rounds.  Ties break toward the
  lowest way index, matching the hardware's fixed scan order.
* **Hit**: the line's RRPV is set to 0 (near-immediate re-reference).
* **Fill (SRRIP)**: RRPV = ``RRPV_MAX - 1`` (long re-reference) — a new line
  must prove itself with one hit before it outlives older intermediates.
* **Fill (BRRIP)**: RRPV = ``RRPV_MAX`` for most fills, ``RRPV_MAX - 1``
  with low probability (1/32) — thrash-resistant "bimodal" insertion that
  keeps a trickle of the working set resident.

Both support victim-from-subset, so they compose with the partition
enforcement schemes exactly like NRU does; only the *profiling* side has no
paper-defined estimator (``make_profiler`` rejects them).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.replacement.base import ReplacementPolicy, register_policy
from repro.util.rng import make_rng

#: BRRIP inserts with long (instead of distant) re-reference prediction
#: once every ``BRRIP_THROTTLE`` fills on average (Jaleel et al. use 1/32).
BRRIP_THROTTLE = 32


@register_policy("srrip")
class SRRIPPolicy(ReplacementPolicy):
    """Static RRIP with hit-priority promotion.

    Parameters
    ----------
    m_bits:
        Width of the per-line RRPV counter (2 in the original paper;
        ``m_bits=1`` reduces to a pointer-free NRU).
    """

    #: Fraction of fills inserted with *long* (rather than distant)
    #: re-reference prediction; 1.0 for SRRIP, 1/32 for BRRIP.
    long_insert_probability = 1.0

    def __init__(self, num_sets: int, assoc: int, rng=None,
                 m_bits: int = 2) -> None:
        super().__init__(num_sets, assoc, rng=rng)
        if m_bits < 1:
            raise ValueError(f"m_bits must be >= 1, got {m_bits}")
        self.m_bits = m_bits
        self.rrpv_max = (1 << m_bits) - 1
        # One flat RRPV array indexed ``set * assoc + way``.  Cold lines
        # predict distant re-reference so invalid-way fills and early
        # victims behave like the hardware's reset state.
        self._rrpv: List[int] = [self.rrpv_max] * (num_sets * assoc)
        if rng is None and self.long_insert_probability < 1.0:
            self.rng = make_rng(0, "brrip")

    # ------------------------------------------------------------------
    def touch(self, set_index: int, way: int, core: int,
              reset_domain: Optional[int] = None) -> None:
        """Hit: promote to near-immediate re-reference (RRPV = 0)."""
        self._rrpv[set_index * self.assoc + way] = 0

    def touch_fill(self, set_index: int, way: int, core: int,
                   reset_domain: Optional[int] = None) -> None:
        """Fill: insert with long / distant re-reference prediction."""
        p = self.long_insert_probability
        if p >= 1.0 or self.rng.random() < p:
            self._rrpv[set_index * self.assoc + way] = self.rrpv_max - 1
        else:
            self._rrpv[set_index * self.assoc + way] = self.rrpv_max

    def victim(self, set_index: int, core: int, mask: int) -> int:
        if mask == 0:
            raise ValueError("victim mask must be nonzero")
        rrpv = self._rrpv
        base = set_index * self.assoc
        rrpv_max = self.rrpv_max
        # At most rrpv_max aging rounds before some candidate saturates.
        while True:
            m = mask
            while m:
                low = m & -m
                way = low.bit_length() - 1
                if rrpv[base + way] == rrpv_max:
                    return way
                m ^= low
            m = mask
            while m:
                low = m & -m
                rrpv[base + low.bit_length() - 1] += 1
                m ^= low

    def reset(self) -> None:
        rrpv = self._rrpv
        rrpv_max = self.rrpv_max
        for i in range(len(rrpv)):
            rrpv[i] = rrpv_max

    def invalidate(self, set_index: int, way: int) -> None:
        self._rrpv[set_index * self.assoc + way] = self.rrpv_max

    # ------------------------------------------------------------------
    def rrpv_value(self, set_index: int, way: int) -> int:
        """Current RRPV of a line (test/diagnostic hook)."""
        self._check_way(way)
        return self._rrpv[set_index * self.assoc + way]

    def state_bits_per_set(self) -> int:
        """``A × M`` RRPV bits per set."""
        return self.assoc * self.m_bits


@register_policy("brrip")
class BRRIPPolicy(SRRIPPolicy):
    """Bimodal RRIP: thrash-resistant insertion (1/32 long, else distant)."""

    long_insert_probability = 1.0 / BRRIP_THROTTLE
