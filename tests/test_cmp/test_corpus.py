"""Corpus replay: checked-in minimal repro cases stay engine-identical.

``tests/corpus/*.json`` holds ``repro-fuzz-case/1`` files — divergences
found (or injected) by the differential fuzz harness and ddmin-shrunk to
their essence, plus handcrafted sentinels for known-delicate machinery
(the BT subcube victim pick, pair elision, boundary catch-ups, the
writes fallback).  Each replays here under every applicable engine with
the full fuzz oracle (timing terms, tag directory, policy/scheme/RNG
state, ATD/SDH registers, victim probe); a regression in any engine
resurfaces as a divergence on the exact minimal input that tells the
bug's story.

New corpus cases come from ``repro fuzz --out``: any divergence is
shrunk and written in this format, ready to be copied in.
"""

import json
from pathlib import Path

import pytest

from repro.fuzz import CORPUS_FORMAT, FuzzCase, run_case
from repro.fuzz.case import ALL_ENGINES

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_PATHS = sorted(CORPUS_DIR.glob("*.json"))


def _case_id(path: Path) -> str:
    return path.stem


def test_corpus_is_populated():
    """The corpus directory ships with the known-bug sentinels."""
    names = {p.stem for p in CORPUS_PATHS}
    assert len(CORPUS_PATHS) >= 5
    assert "bt-subcube-invalid-way" in names
    assert "lip-repeat-elision-minimal" in names


def test_corpus_holds_an_8_core_16_way_lru_case():
    """Eight threads on the full LRU recency word: sixteen ways, so the
    sign nibble holds a way, under masks that the controller moves —
    replayed on both engines."""
    case = FuzzCase.load(CORPUS_DIR / "lru-16way-8core-masks.json")
    assert (case.num_cores, case.l2_assoc) == (8, 16)
    assert (case.partitioning.policy, case.partitioning.enforcement) == \
        ("lru", "masks")
    assert case.applicable_engines() == ALL_ENGINES


@pytest.mark.parametrize("path", CORPUS_PATHS, ids=_case_id)
def test_corpus_case_replays_identically(path):
    """Every engine pair agrees on every checked-in repro."""
    case = FuzzCase.load(path)
    report = run_case(case)
    assert not report.divergent, report.summary()


@pytest.mark.parametrize("path", CORPUS_PATHS, ids=_case_id)
def test_corpus_round_trip_is_stable(path):
    """Load -> to_dict matches the file: the format cannot drift silently."""
    case = FuzzCase.load(path)
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    assert on_disk["format"] == CORPUS_FORMAT
    assert case.to_dict() == on_disk
