"""Stable content addressing of campaign jobs.

A job's store key is the SHA-256 of a canonical JSON document covering the
three things that determine its result:

* the **configuration** — every :class:`PartitioningConfig` field plus the
  L2 capacity and memory model of the job;
* the **trace recipe** — the :class:`ExperimentScale` fields that feed
  trace generation and run length (capacity divisor, accesses, cycle
  horizon, sampling, interval, seed).  The mix-subset fields
  (``mixes_2t`` … ``benchmarks_1t``) are deliberately *excluded*: they
  select which jobs a figure declares, never what any single job computes,
  so ``--mixes all`` must not invalidate already-cached points.
  Isolation jobs key an even smaller subset (divisor, accesses, seed) —
  they run unpartitioned with no budgets, so sweeping ``target_cycles``
  or the sampling/interval knobs keeps the shared isolation stage cached;
* the **engine version** — :data:`repro.cmp.engine.ENGINE_VERSION`, bumped
  whenever the simulation semantics change (the PR 1 timing recurrence is
  version 2).  The engine *choice* (batched vs reference) is intentionally
  not keyed: the equivalence suite pins them bit-identical.

Canonicalisation uses ``json.dumps(..., sort_keys=True)`` with tight
separators; Python's shortest-repr float serialisation is deterministic
across processes and platforms, which the cross-process test pins.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict

from repro.campaign.jobs import Job, KIND_OUTCOME
from repro.cmp.engine import ENGINE_VERSION
from repro.experiments.common import ExperimentScale

#: Bump when the canonical-spec layout itself changes.
SPEC_FORMAT = 1

#: ExperimentScale fields that shape an *outcome* job's result.
_OUTCOME_SCALE_FIELDS = ("scale", "accesses", "target_cycles",
                         "atd_sampling", "interval_cycles", "seed")
#: Isolation runs are unpartitioned single-thread simulations with no
#: budgets: only the trace recipe and geometry divisor matter.  Keying
#: fewer fields keeps the shared isolation stage a cache hit when
#: target_cycles / sampling / interval knobs are swept.
_ISOLATION_SCALE_FIELDS = ("scale", "accesses", "seed")

#: ExperimentScale fields deliberately *excluded* from every store key.
#: They are workload-selection knobs: each names the subset of Table II
#: mixes (or SPEC benchmarks) a figure declares jobs for, never what any
#: single job computes.  Keeping them unkeyed is what makes
#: ``--mixes all`` (or a wider benchmark list) an incremental operation —
#: already-simulated points stay cache hits and only the new mixes run.
#: The ``job-hash-discipline`` lint rule enforces that every
#: ExperimentScale field appears either here or in a ``*_SCALE_FIELDS``
#: key tuple above, so a new field cannot be forgotten silently.
UNKEYED_FIELDS = ("mixes_2t", "mixes_4t", "mixes_8t", "mixes_fig8",
                  "benchmarks_1t")


def _scale_spec(scale: ExperimentScale, kind: str) -> Dict[str, object]:
    fields = (_OUTCOME_SCALE_FIELDS if kind == KIND_OUTCOME
              else _ISOLATION_SCALE_FIELDS)
    return {name: getattr(scale, name) for name in fields}


def canonical_spec(job: Job) -> str:
    """Canonical JSON document hashed into the job's store key."""
    doc: Dict[str, object] = {
        "format": SPEC_FORMAT,
        "engine": ENGINE_VERSION,
        "kind": job.kind,
        "scale": _scale_spec(job.scale, job.kind),
        "l2_bytes": job.l2_bytes,
    }
    if job.kind == KIND_OUTCOME:
        doc["mix"] = job.mix
        doc["benchmarks"] = (list(job.benchmarks)
                             if job.benchmarks is not None else None)
        doc["config"] = asdict(job.config)
        doc["memory_service_interval"] = job.memory_service_interval
    else:
        doc["benchmark"] = job.benchmark
        doc["core_id"] = job.core_id
        doc["policy"] = job.policy
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def job_key(job: Job) -> str:
    """Hex SHA-256 store address of one job."""
    return hashlib.sha256(canonical_spec(job).encode("utf-8")).hexdigest()
