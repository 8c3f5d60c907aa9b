"""Unit tests for benchmarks/record.py (the CI perf gate's grading).

The ``engine`` target itself times compiled kernels against the class
paths for ~20 s, so it runs in CI's ``perf-smoke`` job, not here.
"""

import dataclasses
import importlib.util
from pathlib import Path

from repro.cmp.results import EventCounts, SimulationResult, ThreadResult

_SPEC = importlib.util.spec_from_file_location(
    "record",
    Path(__file__).resolve().parents[2] / "benchmarks" / "record.py",
)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)


def healthy_rates():
    """Every rate of :data:`record.ENGINE_FLOORS` at twice its floor."""
    rates = {}
    for key, denominator, floor in record.ENGINE_FLOORS:
        rates[denominator] = 100.0
        rates[key] = 200.0 * floor
    return rates


def result():
    thread = ThreadResult("mcf", 500.0, 1000.0, 100, 40, 40, 10)
    events = EventCounts(100, 40, 30, 10, 5, 1, 1000.0)
    return SimulationResult("M-N", [thread], events)


class TestCheckFloor:
    def test_every_floor_met(self, capsys):
        assert record.check_floor(healthy_rates()) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(record.ENGINE_FLOORS)
        assert all(line.endswith(" ok") for line in lines)

    def test_one_rate_below_its_floor(self, capsys):
        rates = healthy_rates()
        key, denominator, floor = record.ENGINE_FLOORS[2]
        rates[key] = 0.99 * floor * rates[denominator]
        assert record.check_floor(rates) == 1
        out = capsys.readouterr().out
        assert f"{key}/{denominator}" in out and "FAIL: 1 rate(s)" in out

    def test_floor_met_exactly_passes(self):
        rates = healthy_rates()
        key, denominator, floor = record.ENGINE_FLOORS[0]
        rates[key] = floor * rates[denominator]
        assert record.check_floor(rates) == 0

    def test_missing_key_fails(self, capsys):
        rates = healthy_rates()
        del rates["kernel_load_cold"]
        assert record.check_floor(rates) == 1
        assert "missing" in capsys.readouterr().out


class TestCheckAgreement:
    def test_equal_results_agree(self):
        assert record.check_agreement(result(), result()) == 0

    def test_unequal_results_fail(self, capsys):
        reference = result()
        batched = dataclasses.replace(
            reference, threads=[dataclasses.replace(reference.threads[0],
                                                    l2_misses=11)])
        assert record.check_agreement(reference, batched) == 1
        assert "disagree" in capsys.readouterr().out


def test_selectors_records_seven_rates():
    payload = record.record_selectors(repeats=1)
    rates = payload["us_per_call"]
    assert sorted(rates) == sorted(
        [f"{name}_{threads}t" for name in ("minmisses", "subcube")
         for threads in record.SELECTOR_THREADS] + ["miss_curves_8t"])
    assert all(us > 0 for us in rates.values())
    assert payload["kind"] == "selectors"
