"""Report assembly: campaign store -> graded :class:`Report`.

This is the adapter between the PR-2 campaign layer and the report: the
selected sections' job matrices are unioned and executed through a
:class:`~repro.campaign.runner.Campaign` (store hits are free, missing
points run on the worker pool), then every section rebuilds its data with
the same ``assemble()`` functions ``repro campaign run`` prints from —
byte-identical numbers.

A ``repro campaign run`` in which no job failed records a *manifest* next
to the store (scale + section targets), so a later ``repro report build``
with no flags reproduces exactly the campaign that was populated — the
handoff behind ``repro campaign run all --scale micro && repro report
build``.  ``repro campaign clean`` removes it with the objects.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

from repro.campaign.runner import Campaign, CampaignReport
from repro.campaign.store import ResultStore
from repro.experiments.common import ExperimentScale
from repro.reporting.model import Report
from repro.reporting.sections import SECTIONS, SectionSpec, resolve_sections

#: Manifest file name (lives at the store root, beside ``objects/``).
MANIFEST_NAME = "report-manifest.json"
MANIFEST_SCHEMA = "repro-report-manifest/1"

_SCALE_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentScale))

#: Tuple-typed ExperimentScale fields (JSON round-trips them as lists).
_TUPLE_FIELDS = tuple(
    f.name for f in dataclasses.fields(ExperimentScale)
    if f.name.startswith(("mixes_", "benchmarks_"))
)


def scale_to_dict(scale: ExperimentScale) -> dict:
    """JSON-safe dict of every scale knob."""
    return dataclasses.asdict(scale)


def scale_from_dict(params: dict) -> ExperimentScale:
    """Rebuild a scale from :func:`scale_to_dict` output."""
    kwargs = dict(params)
    for name in _TUPLE_FIELDS:
        if name in kwargs:
            kwargs[name] = tuple(kwargs[name])
    return ExperimentScale(**kwargs)


# ----------------------------------------------------------------------
# Manifest (the run -> build handoff)
# ----------------------------------------------------------------------
def manifest_path(store: ResultStore) -> Path:
    """Location of the run manifest inside a result store."""
    return store.root / MANIFEST_NAME


def write_manifest(store: ResultStore, scale_name: str,
                   scale: ExperimentScale,
                   sections: Sequence[SectionSpec]) -> Path:
    """Record what ``campaign run`` populated, for flag-less ``build``."""
    path = manifest_path(store)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": MANIFEST_SCHEMA,
        "scale_name": scale_name,
        "scale": scale_to_dict(scale),
        "sections": [spec.name for spec in sections],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def read_manifest(store: ResultStore) -> Optional[dict]:
    """Manifest payload, or None when absent/corrupt (build falls back to
    its defaults — the manifest is a convenience, never a requirement),
    a schema match with missing keys, unknown scale fields or sections
    included."""
    try:
        payload = json.loads(manifest_path(store).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("schema") != MANIFEST_SCHEMA:
        return None
    scale, sections = payload.get("scale"), payload.get("sections")
    if (not isinstance(payload.get("scale_name"), str)
            or not isinstance(scale, dict) or not set(scale) <= _SCALE_FIELDS
            or not isinstance(sections, list)
            or not all(isinstance(name, str) and name in SECTIONS
                       for name in sections)):
        return None
    return payload


# ----------------------------------------------------------------------
# The build itself
# ----------------------------------------------------------------------
def run_report_campaign(
    scale: ExperimentScale, store: ResultStore,
    sections: Sequence[SectionSpec], workers: int = 1,
    force: bool = False, echo: Optional[Callable[[str], None]] = None,
) -> Tuple[dict, CampaignReport]:
    """Execute (or recall) the union of the sections' job matrices."""
    jobs = [job for spec in sections for job in spec.matrix(scale)]
    campaign = Campaign(store, workers=workers, force=force, echo=echo)
    return campaign.run(jobs)


def build_report(
    scale: ExperimentScale, store: ResultStore,
    sections: Optional[Sequence[SectionSpec]] = None,
    scale_name: str = "custom", workers: int = 1,
    echo: Optional[Callable[[str], None]] = None,
) -> Tuple[Optional[Report], CampaignReport]:
    """Assemble the graded report from the campaign store.

    Missing points are computed (the store memoises them for next time),
    so a cold build works — it is simply slower than ``campaign run``
    first with a worker pool.  When a job fails permanently its sections
    cannot be assembled: the report is ``None`` and ``campaign_report.failed``
    says why.
    """
    specs = list(sections) if sections is not None else resolve_sections()
    results, campaign_report = run_report_campaign(
        scale, store, specs, workers=workers, echo=echo)
    if campaign_report.failed:
        return None, campaign_report
    report = Report(
        scale_name=scale_name,
        scale_params=scale_to_dict(scale),
        sections=[spec.build(scale, results) for spec in specs],
    )
    return report, campaign_report
