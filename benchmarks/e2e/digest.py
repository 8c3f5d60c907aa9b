"""Benchmark-owned canonical rendering of job results.

The golden file must survive a change of the store codec, so a result is
never hashed through its pickle bytes.  It is flattened into
``path=atom`` lines instead: ints as decimal, floats through
:meth:`float.hex` (exact), strings JSON-quoted, sequences by index, dicts
by sorted key, and result objects through the field lists *declared
here* — reordering (or adding to) a dataclass in ``src/`` cannot move a
digest, only a changed value can.  The same flattening gives the oracle
spot-check its field-by-field diff.  ``golden.json`` beside this file
holds ``workload -> seed -> job id -> digest``.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SCHEMA = "repro-bench-e2e-golden/1"

#: Result fields covered by a digest, by class name, in rendering order.
FIELDS: Dict[str, Tuple[str, ...]] = {
    "ThreadResult": ("name", "instructions", "cycles", "l1_accesses",
                     "l1_misses", "l2_accesses", "l2_misses"),
    "EventCounts": ("l1_accesses", "l2_accesses", "l2_hits", "l2_misses",
                    "atd_accesses", "repartitions", "wall_cycles",
                    "l1_writebacks", "memory_writebacks",
                    "memory_queue_cycles"),
    "PartitionRecord": ("cycle", "counts", "predicted_misses"),
    "SimulationResult": ("acronym", "threads", "events",
                         "partition_history"),
    "PowerReport": ("components", "wall_cycles", "instructions"),
    "RunOutcome": ("mix", "acronym", "result", "iso_ipcs", "power"),
}


def flatten(obj: Any, path: str = "") -> Iterator[Tuple[str, str]]:
    """Yield ``(path, atom)`` pairs of ``obj`` in canonical order."""
    if isinstance(obj, bool) or obj is None:
        yield path, json.dumps(obj)
    elif isinstance(obj, numbers.Integral):  # numpy ints included
        yield path, str(int(obj))
    elif isinstance(obj, numbers.Real):
        yield path, float(obj).hex()
    elif isinstance(obj, str):
        yield path, json.dumps(obj)
    elif isinstance(obj, (list, tuple)):
        yield f"{path}#", str(len(obj))
        for index, item in enumerate(obj):
            yield from flatten(item, f"{path}[{index}]")
    elif isinstance(obj, dict):
        yield f"{path}#", str(len(obj))
        for key in sorted(obj):
            yield from flatten(obj[key], f"{path}[{json.dumps(key)}]")
    else:
        fields = FIELDS.get(type(obj).__name__)
        if fields is None:
            raise TypeError(
                f"no declared digest fields for {type(obj).__name__} "
                f"at {path or '<root>'}")
        for name in fields:
            yield from flatten(getattr(obj, name), f"{path}.{name}")


def result_digest(value: Any) -> str:
    """Hex SHA-256 of one job result's canonical rendering."""
    sha = hashlib.sha256()
    for path, atom in flatten(value):
        sha.update(f"{path}={atom}\n".encode("utf-8"))
    return sha.hexdigest()


def diff_fields(expected: Any, got: Any) -> List[str]:
    """Paths whose atoms differ between two results (empty = identical)."""
    left = dict(flatten(expected))
    right = dict(flatten(got))
    return sorted(path for path in left.keys() | right.keys()
                  if left.get(path) != right.get(path))


def combined_digest(digests: Dict[str, str]) -> str:
    """One digest over a ``job id -> digest`` map (order-independent)."""
    sha = hashlib.sha256()
    for job_id in sorted(digests):
        sha.update(f"{job_id}={digests[job_id]}\n".encode("utf-8"))
    return sha.hexdigest()


def load_golden() -> Dict[str, Dict[str, Dict[str, str]]]:
    """``workload -> seed -> job id -> digest`` (empty when absent)."""
    try:
        payload = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    except OSError:
        return {}
    if payload.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(f"{GOLDEN_PATH}: unexpected schema "
                         f"{payload.get('schema')!r}")
    return payload["workloads"]


def save_golden(workloads: Dict[str, Dict[str, Dict[str, str]]]) -> None:
    """Write ``golden.json`` (sorted, so regeneration diffs stay small)."""
    payload = {"schema": GOLDEN_SCHEMA, "workloads": workloads}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
