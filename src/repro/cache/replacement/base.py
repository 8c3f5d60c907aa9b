"""Abstract replacement-policy interface and registry.

The cache calls exactly two hooks:

* :meth:`ReplacementPolicy.touch` — after every access (hit *or* fill) to a
  way, with the *reset domain* (the set of ways whose recency state the
  accessing core is allowed to reset; the full set when unpartitioned).
* :meth:`ReplacementPolicy.victim` — on a miss, restricted to a candidate
  bitmask of ways supplied by the partition-enforcement scheme.

Keeping the subset-victim capability in the policy (instead of the cache)
mirrors the paper's hardware: the enforcement logic merely gates which ways
the existing replacement machinery may consider (§II-B, §III-A, §III-B).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional

import numpy as np


class ReplacementPolicy(ABC):
    """Per-cache replacement state for ``num_sets`` sets of ``assoc`` ways.

    **PolicyState contract (the flat-array core).**  Every registered policy
    stores its per-set state in preallocated flat integer arrays (Python
    lists indexed ``set * assoc + way`` or one word per set; the LRU
    family's recency order is one short list per set).  The three
    paper policies (LRU, NRU, BT) advertise the layout through
    :attr:`kernel_kind`, which :mod:`repro.cache.state` dispatches on to
    bind the batch renderings of :mod:`repro.cache.transitions` — the
    fused event loop of ``BatchedEngine.run``, the ATD drains — to those
    arrays; every other policy declares ``""`` and runs the generic
    object-protocol path.  Two rules keep the kernels valid:

    * :meth:`reset` (and every other mutator) must update the arrays **in
      place** — never rebind them — because kernels capture the objects
      when they are bound;
    * a subclass that changes ``touch``/``touch_fill``/``victim`` semantics
      must override ``kernel_kind`` (with ``""`` to opt out), otherwise the
      inherited kernel would silently bypass its overrides on the hot path.

    Both rules are linted: ``python -m repro lint`` enforces them as the
    ``state-rebind`` and ``kernel-kind-override`` rules (see
    ``docs/static-analysis.md``), so violations fail CI rather than
    silently corrupting hot-path results.
    """

    #: Short registry name ("lru", "nru", "bt", "random").
    name: str = "abstract"

    #: Flat-state layout tag for the rendered kernels ("" = no kernel; the
    #: engine and ATD then use the generic object-protocol path).
    kernel_kind: str = ""

    def __init__(self, num_sets: int, assoc: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        if num_sets <= 0 or assoc <= 0:
            raise ValueError("num_sets and assoc must be positive")
        self.num_sets = num_sets
        self.assoc = assoc
        self.full_mask = (1 << assoc) - 1
        self.rng = rng

    # ------------------------------------------------------------------
    @abstractmethod
    def touch(self, set_index: int, way: int, core: int,
              reset_domain: Optional[int] = None) -> None:
        """Record an access (hit or fill) to ``way`` of ``set_index``.

        ``reset_domain`` is a way bitmask bounding any state reset the access
        may trigger (NRU's used-bit reset).  ``None`` means the whole set.
        """

    def touch_fill(self, set_index: int, way: int, core: int,
                   reset_domain: Optional[int] = None) -> None:
        """Record a *fill* (miss-path insertion) of ``way``.

        Defaults to :meth:`touch` — the paper's LRU/NRU/BT promote fills to
        MRU exactly like hits.  Insertion-controlled policies (LIP/BIP/DIP,
        SRRIP/BRRIP) override this to place the incoming line elsewhere in
        the recency order.
        """
        self.touch(set_index, way, core, reset_domain)

    @abstractmethod
    def victim(self, set_index: int, core: int, mask: int) -> int:
        """Choose a victim way within the candidate bitmask ``mask``.

        ``mask`` must be nonzero; the returned way is always a member.
        """

    @abstractmethod
    def reset(self) -> None:
        """Restore the cold-start replacement state."""

    # ------------------------------------------------------------------
    def invalidate(self, set_index: int, way: int) -> None:
        """Hook for line invalidation; default is a no-op."""

    def state_bits_per_set(self) -> int:
        """Replacement storage bits per set (complexity model cross-check)."""
        raise NotImplementedError

    def _check_way(self, way: int) -> None:
        if not (0 <= way < self.assoc):
            raise ValueError(f"way {way} out of range 0..{self.assoc - 1}")


POLICY_REGISTRY: Dict[str, Callable[..., ReplacementPolicy]] = {}


def register_policy(name: str):
    """Class decorator adding a policy to :data:`POLICY_REGISTRY`."""

    def wrap(cls):
        cls.name = name
        POLICY_REGISTRY[name] = cls
        return cls

    return wrap


def make_policy(name: str, num_sets: int, assoc: int,
                rng: Optional[np.random.Generator] = None,
                **kwargs) -> ReplacementPolicy:
    """Instantiate a registered policy by name."""
    try:
        cls = POLICY_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"known: {sorted(POLICY_REGISTRY)}"
        ) from None
    return cls(num_sets, assoc, rng=rng, **kwargs)
