"""Auxiliary Tag Directory with set sampling (paper §II-A, §III).

Each thread owns one ATD: a tag-only copy of the L2 directory, same
associativity, accessed only by that thread — so it observes the thread "as
if it runs alone with an A-associativity cache".  To keep the area cost down
the paper samples 1 of every 32 L2 sets (§III: 3.25 KB per core at full
scale); an L2 access to a non-sampled set does not touch the ATD.

The ATD runs the *same replacement policy family as the L2* (the paper
applies NRU/BT "to both the L2 cache and ATDs") and feeds the thread's SDH
through a :class:`~repro.profiling.profilers.DistanceProfiler`.

Tag state is the same flat :class:`~repro.cache.state.TagStore` the L2
uses — the ATD no longer carries its own directory implementation.  The
single-access :meth:`observe` is always the object-protocol body below,
stepping the policy and profiler classes (the reference engine, user
code).  :meth:`observe_many` — the drains of the batched engine — is
bound at construction to the compiled ``observe`` rendering for a stock
policy and profiler (:func:`repro.cache.state.drain_key`).  It takes a
batch of any length as an ``array('q')`` (or an ``int64`` numpy column)
of every L2 access in it, sampled or not — the kernel's own
``skip_mask`` test counts the others, the way the hardware decodes
sampling from index bits — and works on the ATD's own arrays in place:
between two drains what the controller reads, halves and resets is the
ATD (its tag dict derived when next read).  The generic loop below is
what an ATD drains through where no kernel loads, and the reference the
kernel is pinned against (``tests/test_profiling/test_atd.py``,
``tests/test_cache/test_state.py``).
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

from repro.cache import transitions
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.base import make_policy
from repro.cache.replacement.nru import NRUPolicy
from repro.cache.state import TagStore, drain_key
from repro.profiling.profilers import DistanceProfiler
from repro.profiling.sdh import SDH
from repro.util.bitops import bit_length_exact


class ATD:
    """Sampled tag-only directory feeding an SDH for one thread."""

    def __init__(self, l2_geometry: CacheGeometry, sampling: int,
                 policy_name: str, profiler: DistanceProfiler,
                 sdh: Optional[SDH] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        """Build the directory for one thread.

        ``sampling`` is the 1-in-N set-sampling ratio (a power of two
        dividing the L2 set count; the paper uses 32).  ``policy_name``
        must match the L2's replacement policy *and* the profiler's —
        the ATD shadows the cache and the profiler interprets its state.
        ``sdh`` and ``rng`` default to a fresh register file and the
        policy's own stream (pass explicit ones to share or to pin
        determinism across runs).
        """
        if sampling <= 0 or sampling & (sampling - 1):
            raise ValueError(
                f"sampling must be a positive power of two (hardware decodes "
                f"it from index bits), got {sampling}"
            )
        if l2_geometry.num_sets % sampling:
            raise ValueError(
                f"sampling {sampling} must divide the L2 set count "
                f"{l2_geometry.num_sets}"
            )
        if profiler.policy_name != policy_name:
            raise ValueError(
                f"profiler for {profiler.policy_name!r} cannot interpret "
                f"{policy_name!r} ATD state"
            )
        self.l2_geometry = l2_geometry
        self.sampling = sampling
        self.assoc = l2_geometry.assoc
        self.num_sets = l2_geometry.num_sets // sampling
        self.policy = make_policy(policy_name, self.num_sets, self.assoc, rng=rng)
        self.profiler = profiler
        self.sdh = sdh if sdh is not None else SDH(self.assoc)
        self._nru = self.policy if isinstance(self.policy, NRUPolicy) else None

        self._l2_set_mask = l2_geometry.num_sets - 1
        # A set is sampled iff the low log2(sampling) index bits are zero.
        self._skip_mask = sampling - 1
        self._full_mask = (1 << self.assoc) - 1
        self.state = TagStore(self.num_sets, self.assoc)
        #: [sampled, skipped] — an array so the observe kernels bump the
        #: counters as locals-bound writes; read via the properties below.
        self._counts = array("q", [0, 0])
        key = drain_key(self)
        drain = transitions.bind("observe", key, self) if key else None
        if drain is not None:
            self.observe_many = drain

    # ------------------------------------------------------------------
    @property
    def sampled_accesses(self) -> int:
        """Accesses that landed in a sampled set (and touched the ATD)."""
        return self._counts[0]

    @sampled_accesses.setter
    def sampled_accesses(self, value: int) -> None:
        self._counts[0] = value

    @property
    def skipped_accesses(self) -> int:
        """Accesses filtered out by the 1-in-N set sampling."""
        return self._counts[1]

    @skipped_accesses.setter
    def skipped_accesses(self, value: int) -> None:
        self._counts[1] = value

    # ------------------------------------------------------------------
    def observe(self, line: int) -> bool:
        """Feed one L2 access by the owning thread; True when sampled.

        The object-protocol body on every instance: the profiler reads
        the pre-access state, then the policy promotes or fills.
        """
        if line & self._skip_mask:
            self._counts[1] += 1
            return False
        self._counts[0] += 1
        s = (line & self._l2_set_mask) >> (self.sampling.bit_length() - 1)
        state = self.state
        way = state.map.get(line)
        if way is not None:
            # Estimate first (pre-access state), then promote.
            self.profiler.on_hit(self.policy, s, way, self.sdh)
            self.policy.touch(s, way, 0, None)
            return True
        # ATD miss: the thread would miss even with the whole cache.
        self.sdh.record_miss()
        base = s * self.assoc
        invalid = state.invalid[s]
        if invalid:
            way = (invalid & -invalid).bit_length() - 1
            state.invalid[s] &= ~(1 << way)
        else:
            way = self.policy.victim(s, 0, self._full_mask)
            old = state.lines[base + way]
            if old >= 0:
                del state.map[old]
        state.lines[base + way] = line
        state.map[line] = way
        # Fill promotion must mirror the L2's miss path (``touch_fill``, not
        # ``touch``): insertion-controlled policies place incoming lines
        # elsewhere in the recency order, and the ATD shadows the cache.
        self.policy.touch_fill(s, way, 0, None)
        if self._nru is not None:
            self._nru.fill_done()
        return True

    # ------------------------------------------------------------------
    def observe_many(self, batch) -> None:
        """Feed a buffered run of L2 accesses by the owning thread.

        Exactly equivalent to calling :meth:`observe` per element (state,
        SDH registers, sampled/skipped counters) — the deferred-drain entry
        point of the execution engines.  Generic per-line loop; instances
        with a stock policy and profiler shadow it with the compiled
        ``observe`` rendering (:func:`repro.cache.state.drain_key`) at
        construction, where it loads.
        """
        observe = self.observe
        for line in batch:
            observe(line)

    # ------------------------------------------------------------------
    def contains_line(self, line: int) -> bool:
        """True when the line is resident in the (sampled) ATD."""
        if (line & self._l2_set_mask) % self.sampling:
            return False
        return line in self.state.map

    def storage_bits(self) -> int:
        """ATD storage: tag + valid bit per entry plus replacement state.

        For the paper's full-scale setup (1-in-32 sampling of a 2 MB 16-way
        L2, 47 tag bits, LRU) this evaluates to exactly the quoted
        3.25 KB/core: 32 sets × 16 × (47 tag + 1 valid) + 32 × 64 LRU bits.
        """
        tag_bits = self.l2_geometry.tag_bits
        bits = self.num_sets * self.assoc * (tag_bits + 1)
        bits += self.num_sets * self.policy.state_bits_per_set()
        if self._nru is not None:
            bits += bit_length_exact(self.assoc)
        return bits

    def reset(self) -> None:
        """Cold-start the directory and the SDH (in place — the bound
        drain kernel keeps working)."""
        self.state.flush()
        self.policy.reset()
        self.sdh.reset()
        self._counts[0] = 0
        self._counts[1] = 0
