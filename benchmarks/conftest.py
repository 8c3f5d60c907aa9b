"""Shared bench configuration.

Every ablation bench runs at the ``small`` scale preset
(:func:`repro.experiments.common.scale_preset`: 1/8-size caches, 60 k
accesses per thread, a representative subset of Table II mixes) on one
session-wide :class:`~repro.experiments.common.WorkloadRunner`.  The
paper's figures and tables are not benched here: ``repro campaign run``
produces them, and ``benchmarks/e2e`` times it.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import (
    ExperimentScale,
    WorkloadRunner,
    scale_preset,
)


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return scale_preset("small")


@pytest.fixture(scope="session")
def runner(scale) -> WorkloadRunner:
    """One shared runner so traces/isolation runs are computed once."""
    return WorkloadRunner(scale)
