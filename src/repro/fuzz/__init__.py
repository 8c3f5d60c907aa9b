"""Seeded differential fuzzing of the four execution engines.

The harness behind ``repro fuzz``: adversarial trace/config generators
(:mod:`repro.fuzz.generators`), an oracle runner that diffs every
applicable engine against the reference (:mod:`repro.fuzz.oracle`), a
ddmin shrinker (:mod:`repro.fuzz.shrink`), and the campaign driver that
ties them together (:mod:`repro.fuzz.runner`).  Shrunk divergences are
emitted as ``repro-fuzz-case/1`` JSON files and checked into
``tests/corpus/`` as regression replays.
"""

from repro.fuzz.case import ALL_ENGINES, CORPUS_FORMAT, FuzzCase
from repro.fuzz.generators import TRACE_SHAPES, generate_case, \
    generate_trace_shape
from repro.fuzz.oracle import CaseReport, Snapshot, diff_snapshots, \
    prefilter_diffs, run_case, run_engine, state_digest
from repro.fuzz.runner import Finding, FuzzReport, run_fuzz
from repro.fuzz.shrink import divergence_predicate, shrink_case

__all__ = [
    "ALL_ENGINES",
    "CORPUS_FORMAT",
    "CaseReport",
    "Finding",
    "FuzzCase",
    "FuzzReport",
    "Snapshot",
    "TRACE_SHAPES",
    "diff_snapshots",
    "divergence_predicate",
    "generate_case",
    "generate_trace_shape",
    "prefilter_diffs",
    "run_case",
    "run_engine",
    "run_fuzz",
    "shrink_case",
    "state_digest",
]
