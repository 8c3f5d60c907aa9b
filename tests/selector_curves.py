"""Miss-curve shapes for the partition-selector oracle tests.

The tie-heavy shapes (all zero, values in {0, 1, 2}, one row repeated)
are drawn as often as random non-increasing curves: they are where a
selector's tie-breaking decides the allocation.
"""

import numpy as np
from hypothesis import strategies as st

KINDS = ("random", "zero", "tiny", "duplicated")


@st.composite
def curves(draw, threads: int, assoc: int) -> np.ndarray:
    """A ``(threads, assoc + 1)`` float curve matrix of a drawn shape."""
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (threads, assoc + 1)
    if kind == "zero":
        return np.zeros(shape)
    if kind == "tiny":
        return rng.integers(0, 3, shape).astype(float)
    if kind == "duplicated":
        return np.tile(rng.integers(0, 4, assoc + 1), (threads, 1)).astype(float)
    return np.sort(rng.integers(0, 1000, shape), axis=1)[:, ::-1].astype(float)
