"""Shared bench configuration.

Every figure bench runs at the ``small`` scale preset
(:func:`repro.experiments.common.scale_preset`: 1/8-size caches, 60 k
accesses per thread, a representative subset of Table II mixes).

Figure benches print the regenerated table/series (run pytest with ``-s``
to see them live; they are also summarised in EXPERIMENTS.md).  Simulation
results computed by one bench are cached in :data:`SESSION_CACHE` so e.g.
Figure 9 reuses Figure 7's runs instead of re-simulating.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.experiments.common import (
    ExperimentScale,
    WorkloadRunner,
    scale_preset,
)

#: Cross-bench result cache (figure name -> data object).
SESSION_CACHE: Dict[str, object] = {}


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return scale_preset("small")


@pytest.fixture(scope="session")
def runner(scale) -> WorkloadRunner:
    """One shared runner so traces/isolation runs are computed once."""
    return WorkloadRunner(scale)
