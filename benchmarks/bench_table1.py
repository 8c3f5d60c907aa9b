"""Regenerates Table I — complexity of LRU/NRU/BT replacement schemes.

Closed-form arithmetic; the printed numbers match the paper exactly
(11 exactly graded points guard them).
"""

from repro.experiments import table1
from repro.experiments.report import format_tables
from repro.reporting.model import VERDICT_PASS, grade_points


def _graded():
    return grade_points(table1.points(), table1.references())


def test_table1_regenerate(benchmark):
    data = benchmark(table1.run)
    print()
    print(format_tables(table1.tables(data)))
    failing = [p.id for p in _graded() if p.verdict != VERDICT_PASS]
    assert not failing, f"paper checkpoints failing: {failing}"


def test_table1_paper_checkpoints(benchmark):
    graded = benchmark(_graded)
    assert len(graded) == 11
    assert all(p.verdict == VERDICT_PASS for p in graded)
