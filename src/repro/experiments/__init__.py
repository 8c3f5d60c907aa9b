"""Experiment harness: one module per table/figure of the paper.

Every module declares one surface: its run matrix as campaign jobs
(``matrix(scale) -> [Job]``, empty for the tables), its data object
rebuilt from results (``assemble(scale, results)``), and what it shows —
``tables(data)``, ``points(data)`` and ``references()``, plus
``charts(data)`` for the figures.  Nothing here prints: the section
registry (:mod:`repro.reporting.sections`) renders those declarations for
``python -m repro campaign run <figure>`` (memoised, serial or parallel;
see :mod:`repro.campaign`) and the report.  A library caller without a
store runs a matrix through ``repro.campaign.run_serial`` on a
:class:`~repro.experiments.common.WorkloadRunner` and hands the results to
``assemble``.  The :class:`~repro.experiments.common.ExperimentScale`
controls the laptop-scale defaults (1/8-size caches, shortened traces, a
representative subset of the Table II mixes);
:func:`~repro.experiments.common.resolve_scale` turns ``--scale paper``
into the ``paper`` preset and ``--mixes all`` into a sweep of all 49
mixes.
"""

from repro.experiments.common import ExperimentScale, RunOutcome, WorkloadRunner

__all__ = ["ExperimentScale", "RunOutcome", "WorkloadRunner"]
