"""Uniform-random replacement — reference baseline.

The paper observes that NRU with its single cache-global replacement pointer
"guarantees a random-like replacement" (§III-A) and that its performance
resembles a random policy (§V-A).  This policy provides the comparison point
used by tests and the replacement-policy example.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.replacement.base import ReplacementPolicy, register_policy
from repro.util.bitops import iter_set_bits


@register_policy("random")
class RandomPolicy(ReplacementPolicy):
    """Victims drawn uniformly from the candidate mask."""

    def __init__(self, num_sets: int, assoc: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(num_sets, assoc, rng=rng)
        if rng is None:
            self.rng = np.random.default_rng(0)

    def touch(self, set_index: int, way: int, core: int,
              reset_domain: Optional[int] = None) -> None:
        pass  # stateless

    def victim(self, set_index: int, core: int, mask: int) -> int:
        if mask == 0:
            raise ValueError("victim mask must be nonzero")
        ways = list(iter_set_bits(mask))
        if len(ways) == 1:
            return ways[0]
        return ways[int(self.rng.integers(len(ways)))]

    def reset(self) -> None:
        pass

    def state_bits_per_set(self) -> int:
        return 0
