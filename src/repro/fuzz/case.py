"""Fuzz case container: one (traces, config) point plus JSON round-trip.

A :class:`FuzzCase` is everything needed to rebuild one simulation
deterministically on any machine: the literal per-thread reference
streams (not a generator recipe — shrunk cases must replay byte-for-byte
even when the generator evolves), the cache geometry dimensions, the
partitioning/simulation knobs and the engine list to cross-check.  The
JSON form (``repro-fuzz-case/1``) is what the shrinker emits and what
``tests/corpus/*.json`` checks in as regression replays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cmp.engine import batched_refusal
from repro.cmp.simulator import CMPSimulator
from repro.config import (
    ENGINE_BATCHED,
    ENGINE_REFERENCE,
    PartitioningConfig,
    ProcessorConfig,
    SimulationConfig,
)
from repro.workloads.trace import Trace

#: Schema tag of the corpus JSON files.
CORPUS_FORMAT = "repro-fuzz-case/1"

#: Engines a case may cross-check.
ALL_ENGINES = (ENGINE_REFERENCE, ENGINE_BATCHED)


@dataclass
class FuzzCase:
    """One differential-fuzzing input: literal traces plus one config."""

    traces: List[Trace]
    l1_sets: int
    l1_assoc: int
    l2_sets: int
    l2_assoc: int
    partitioning: PartitioningConfig
    instructions_per_thread: int
    per_thread_instructions: Optional[Tuple[int, ...]] = None
    sim_seed: int = 7
    memory_service_interval: float = 0.0
    line_bytes: int = 128
    #: Provenance: generator shape name, driving seed/index, free-form note.
    shape: str = ""
    origin: str = ""
    note: str = ""

    @property
    def num_cores(self) -> int:
        """Core count (one trace per core)."""
        return len(self.traces)

    def processor(self) -> ProcessorConfig:
        """The case's scaled-down processor configuration."""
        line = self.line_bytes
        return ProcessorConfig(
            num_cores=self.num_cores,
            l1i=CacheGeometry(self.l1_sets * self.l1_assoc * line,
                              self.l1_assoc, line),
            l1d=CacheGeometry(self.l1_sets * self.l1_assoc * line,
                              self.l1_assoc, line),
            l2=CacheGeometry(self.l2_sets * self.l2_assoc * line,
                             self.l2_assoc, line),
        )

    def simulation(self, engine: str) -> SimulationConfig:
        """The case's simulation knobs bound to one engine."""
        return SimulationConfig(
            instructions_per_thread=self.instructions_per_thread,
            per_thread_instructions=self.per_thread_instructions,
            seed=self.sim_seed,
            memory_service_interval=self.memory_service_interval,
            engine=engine,
        )

    def simulator(self, engine: str) -> CMPSimulator:
        """A freshly constructed simulator for one engine run."""
        return CMPSimulator(self.processor(), self.partitioning,
                            self.traces, self.simulation(engine))

    def applicable_engines(self) -> Tuple[str, ...]:
        """The reference, and the batched engine where it runs the case
        (:func:`repro.cmp.engine.batched_refusal`)."""
        if batched_refusal(self.simulator(ENGINE_REFERENCE)) is None:
            return ALL_ENGINES
        return (ENGINE_REFERENCE,)

    def total_accesses(self) -> int:
        """Summed trace length — the shrinker's minimisation metric."""
        return sum(len(t) for t in self.traces)

    def with_traces(self, traces: List[Trace]) -> "FuzzCase":
        """Copy with replaced traces (the shrinker's workhorse)."""
        return replace(self, traces=traces)

    # ------------------------------------------------------------------
    # JSON round-trip (corpus files)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-primitive form matching ``repro-fuzz-case/1``."""
        traces = []
        for t in self.traces:
            payload = {
                "name": t.name,
                "lines": [int(x) for x in t.lines],
                "ipm": t.ipm,
                "cpi_base": t.cpi_base,
                "writes": ([bool(w) for w in t.writes]
                           if t.writes is not None else None),
            }
            traces.append(payload)
        p = self.partitioning
        return {
            "format": CORPUS_FORMAT,
            "shape": self.shape,
            "origin": self.origin,
            "note": self.note,
            "geometry": {
                "l1_sets": self.l1_sets, "l1_assoc": self.l1_assoc,
                "l2_sets": self.l2_sets, "l2_assoc": self.l2_assoc,
                "line_bytes": self.line_bytes,
            },
            "partitioning": {
                "policy": p.policy,
                "enforcement": p.enforcement,
                "selector": p.selector,
                "nru_scaling": p.nru_scaling,
                "interval_cycles": p.interval_cycles,
                "atd_sampling": p.atd_sampling,
                "min_ways": p.min_ways,
                "static_counts": (list(p.static_counts)
                                  if p.static_counts is not None else None),
            },
            "simulation": {
                "instructions_per_thread": self.instructions_per_thread,
                "per_thread_instructions": (
                    list(self.per_thread_instructions)
                    if self.per_thread_instructions is not None else None),
                "seed": self.sim_seed,
                "memory_service_interval": self.memory_service_interval,
            },
            "traces": traces,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzCase":
        """Rebuild a case from its :meth:`to_dict` form."""
        fmt = payload.get("format")
        if fmt != CORPUS_FORMAT:
            raise ValueError(
                f"unsupported fuzz-case format {fmt!r} "
                f"(expected {CORPUS_FORMAT!r})")
        geo = payload["geometry"]
        part = payload["partitioning"]
        sim = payload["simulation"]
        traces = []
        for t in payload["traces"]:
            writes = t.get("writes")
            traces.append(Trace(
                name=t["name"],
                lines=np.asarray(t["lines"], dtype=np.int64),
                ipm=float(t["ipm"]),
                cpi_base=float(t["cpi_base"]),
                writes=(np.asarray(writes, dtype=bool)
                        if writes is not None else None),
            ))
        static = part.get("static_counts")
        per_thread = sim.get("per_thread_instructions")
        return cls(
            traces=traces,
            l1_sets=int(geo["l1_sets"]), l1_assoc=int(geo["l1_assoc"]),
            l2_sets=int(geo["l2_sets"]), l2_assoc=int(geo["l2_assoc"]),
            line_bytes=int(geo.get("line_bytes", 128)),
            partitioning=PartitioningConfig(
                policy=part["policy"],
                enforcement=part["enforcement"],
                selector=part["selector"],
                nru_scaling=float(part["nru_scaling"]),
                interval_cycles=int(part["interval_cycles"]),
                atd_sampling=int(part["atd_sampling"]),
                min_ways=int(part["min_ways"]),
                static_counts=(tuple(int(c) for c in static)
                               if static is not None else None),
            ),
            instructions_per_thread=int(sim["instructions_per_thread"]),
            per_thread_instructions=(tuple(int(b) for b in per_thread)
                                     if per_thread is not None else None),
            sim_seed=int(sim["seed"]),
            memory_service_interval=float(sim["memory_service_interval"]),
            shape=str(payload.get("shape", "")),
            origin=str(payload.get("origin", "")),
            note=str(payload.get("note", "")),
        )

    def save(self, path) -> Path:
        """Write the case as an indented, diff-friendly corpus JSON file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=1) + "\n",
                        encoding="utf-8")
        return path

    @classmethod
    def load(cls, path) -> "FuzzCase":
        """Read a corpus JSON file written by :meth:`save`."""
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8")))
