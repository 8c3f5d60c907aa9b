"""Parallel experiment campaigns with a content-addressed result store.

The paper's evaluation is an embarrassingly parallel sweep — 49 mixes x
{LRU, NRU, BT} x enforcement schemes x four figures and two tables.  This
package turns every point of that sweep into a declarative :class:`Job`
spec, executes jobs on a worker pool (in-process, persistent local
processes, or remote socket workers) under a dependency-aware ready-set
scheduler with deterministic per-job seeding, and memoises results in a
store keyed by a stable content hash of (configuration, trace recipe,
engine version).  Re-runs, interrupted sweeps and sub-results shared
between figures (the LRU isolation budgets every figure needs) become
cache hits instead of re-simulation — including across machines, when
the store reads through a shared ``repro campaign serve`` URL.

Layering::

    jobs.py      Job specs + isolation-dependency expansion
    hashing.py   canonical spec JSON -> SHA-256 store keys
    store.py     content-addressed store: a local directory, optionally
                 a read-through cache of one HTTP store URL
    server.py    the HTTP object endpoint (`repro campaign serve`)
    pool.py      worker pools: serial, persistent processes, remote
                 socket workers (`repro campaign worker`)
    scheduler.py dependency-aware ready-set scheduler with locality
                 placement, work stealing and crash requeue
    runner.py    planner + Campaign driver, StoreWorkloadRunner
    registry.py  CLI targets: the report sections + the smoke matrix

``registry`` imports the experiment modules (which in turn import this
package for :class:`Job`), so it is deliberately *not* imported here —
pull it in directly (``from repro.campaign import registry``) as
:mod:`repro.cli` does.

Entry point: ``python -m repro campaign run fig6 fig7 --jobs 8``.
"""

from repro.campaign.hashing import canonical_spec, job_key
from repro.campaign.jobs import (
    Job,
    KIND_ISOLATION,
    KIND_OUTCOME,
    isolation_deps,
    isolation_job,
    outcome_job,
)
from repro.campaign.pool import (
    ProcessPool,
    RemotePool,
    SerialPool,
    WorkerPool,
    resolve_workers,
    run_remote_worker,
)
from repro.campaign.runner import (
    Campaign,
    CampaignReport,
    StoreWorkloadRunner,
    execute_job,
    plan_jobs,
    run_serial,
)
from repro.campaign.scheduler import (
    FailedJob,
    ReadySetScheduler,
    SchedulerStats,
    locality_key,
)
from repro.campaign.server import StoreServer
from repro.campaign.store import ResultStore, default_store_path, open_store

__all__ = [
    "Campaign",
    "CampaignReport",
    "FailedJob",
    "Job",
    "KIND_ISOLATION",
    "KIND_OUTCOME",
    "ProcessPool",
    "ReadySetScheduler",
    "RemotePool",
    "ResultStore",
    "SchedulerStats",
    "SerialPool",
    "StoreServer",
    "StoreWorkloadRunner",
    "WorkerPool",
    "canonical_spec",
    "default_store_path",
    "execute_job",
    "isolation_deps",
    "isolation_job",
    "job_key",
    "locality_key",
    "open_store",
    "outcome_job",
    "plan_jobs",
    "resolve_workers",
    "run_remote_worker",
    "run_serial",
]
