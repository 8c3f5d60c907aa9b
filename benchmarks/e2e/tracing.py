"""Spans recorded from outside the program.

The traced pass wraps the layers' public callables (class attributes,
module functions, and the one per-instance kernel the ATD binds at
construction) before the run and restores them afterwards; nothing under
``src/`` knows it is being watched.  A span is ``[name, start, end,
parent, job, n]``: ``parent`` is the index of the enclosing span (``-1``
at top level), ``job`` the label of the campaign job being executed, and
``n`` a per-layer work count (lines prefiltered, lines drained, store
hits, threads of a batched run).  Spans stay in memory until the
workload ends.

The scalar ``l2.access_line_hit`` closure is deliberately *not* wrapped:
one span per L2 reference would measure the wrapper.  Its cost stays in
the batched engine's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

NAME, START, END, PARENT, JOB, N = range(6)

#: Span names; layers are the repo's modules.
TIMED = "bench.timed"
JOB_SPAN = "campaign.job"


class Tracer:
    """Span recorder plus the install/uninstall of the layer wrappers."""

    def __init__(self, active: bool) -> None:
        self.active = active
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._job: Optional[str] = None
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Span around harness code (a no-op when tracing is off)."""
        if not self.active:
            yield
            return
        record = self._begin(name)
        try:
            yield
        finally:
            self._end(record)

    def _begin(self, name: str) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._job, 0]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def _end(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    def timed(self, original: Callable, name: str,
              measure: Optional[Callable[[tuple, Any], int]] = None,
              job_of: Optional[Callable[[tuple], str]] = None) -> Callable:
        """``original`` wrapped in a span called ``name``.

        ``measure(args, result)`` fills the span's work count after the
        call; ``job_of(args)`` names the job every nested span belongs to.
        """
        begin, end = self._begin, self._end

        def wrapper(*args, **kwargs):
            outer_job = self._job
            if job_of is not None:
                self._job = job_of(args)
            record = begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                end(record)
                self._job = outer_job
            if measure is not None:
                record[N] = measure(args, result)
            return result

        return functools.update_wrapper(wrapper, original)

    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_method(self, cls: type, attr: str, name: str, **kw) -> None:
        self._patch(cls, attr, self.timed(cls.__dict__[attr], name, **kw))

    def _wrap_function(self, func: Callable, name: str, **kw) -> None:
        """Wrap a module function wherever ``repro`` bound it by name."""
        wrapper = self.timed(func, name, **kw)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            if module.__dict__.get(func.__name__) is func:
                self._patch(module, func.__name__, wrapper)

    def install(self) -> None:
        """Wrap every traced layer (see the README's layer catalogue)."""
        if not self.active:
            return
        from repro.cache.l1 import SmallLRUCache
        from repro.campaign import hashing, pool, runner, store
        from repro.cmp.engine.batched import BatchedEngine
        from repro.cmp.engine.solo import SoloEngine
        from repro.cmp.engine.vector import VectorEngine
        from repro.cmp.isolation import IsolationRunner
        from repro.cmp.simulator import CMPSimulator
        from repro.core.controller import PartitionController
        from repro.hwmodel.power import PowerModel
        from repro.profiling.atd import ATD
        from repro.workloads import generator

        def lines_in(args, _result):  # (self, lines, ...)
            return len(args[1])

        self._wrap_function(generator.generate_trace,
                            "workloads.generate_trace")
        self._wrap_method(CMPSimulator, "__init__", "cmp.simulator.build")
        self._wrap_method(BatchedEngine, "run", "cmp.engine.batched.run",
                          measure=lambda args, _r: args[0].n)
        self._wrap_method(VectorEngine, "run", "cmp.engine.vector.run")
        self._wrap_method(SoloEngine, "run", "cmp.engine.solo.run")
        self._wrap_method(SmallLRUCache, "access_lines_hit",
                          "cache.l1.prefilter", measure=lines_in)
        self._wrap_method(SmallLRUCache, "access_lines_rw",
                          "cache.l1.prefilter", measure=lines_in)
        self._wrap_method(PartitionController, "interval_boundary",
                          "core.controller.boundary")
        self._wrap_method(IsolationRunner, "thread_result",
                          "cmp.isolation.thread_result")
        self._wrap_method(PowerModel, "evaluate", "hwmodel.power.evaluate")
        self._wrap_function(hashing.job_key, "campaign.hashing.job_key")
        self._wrap_function(runner.plan_jobs, "campaign.runner.plan")
        self._wrap_function(runner.execute_job, JOB_SPAN,
                            job_of=lambda args: args[0].label)
        self._wrap_method(store.ResultStore, "get", "campaign.store.get",
                          measure=lambda _a, value: int(value is not None))
        self._wrap_method(store.ResultStore, "put", "campaign.store.put")
        for pool_cls in (pool.SerialPool, pool.ProcessPool):
            self._wrap_method(pool_cls, "start", "campaign.pool.start")
            self._wrap_method(pool_cls, "close", "campaign.pool.close")

        # The ATD shadows ``observe_many`` with a per-instance batch
        # kernel at construction, so the drain is wrapped per instance.
        atd_init = ATD.__dict__["__init__"]
        timed = self.timed

        @functools.wraps(atd_init)
        def init_and_wrap(atd, *args, **kwargs):
            atd_init(atd, *args, **kwargs)
            atd.observe_many = timed(atd.observe_many,
                                     "profiling.atd.drain",
                                     measure=lambda a, _r: len(a[0]))

        self._patch(ATD, "__init__", init_and_wrap)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def child_cover(span: list, children: List[list]) -> float:
    """Length of ``span``'s interval covered by the union of ``children``
    (children may overlap each other and overhang the parent)."""
    lo, hi = span[START], span[END]
    covered = 0.0
    reach = lo
    for child in sorted(children, key=lambda c: c[START]):
        start = max(child[START], reach)
        end = min(child[END], hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_time(span: list, children: List[list]) -> float:
    """Span duration minus the part its child spans cover."""
    return (span[END] - span[START]) - child_cover(span, children)


def layer_totals(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, seconds, self seconds and summed work count.

    A span nested inside a span of its own name (``access_lines_rw``
    delegating to ``access_lines_hit``) is not counted twice: calls,
    seconds and work come from the outermost span of each name.  The
    ``cmp.engine.batched.run`` totals are additionally split by thread
    count under ``cmp.engine.batched.run.<n>t``.
    """
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[PARENT], []).append(index)
    totals: Dict[str, Dict[str, float]] = {}

    def add(name: str, index: int) -> None:
        span = spans[index]
        entry = totals.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "n": 0})
        entry["calls"] += 1
        entry["s"] += span[END] - span[START]
        entry["self_s"] += self_time(
            span, [spans[c] for c in children.get(index, [])])
        entry["n"] += span[N]

    def walk(parent: int, open_names: frozenset) -> None:
        for index in children.get(parent, []):
            name = spans[index][NAME]
            if name not in open_names:
                add(name, index)
                if name == "cmp.engine.batched.run":
                    add(f"{name}.{spans[index][N]}t", index)
            walk(index, open_names | {name})

    walk(-1, frozenset())
    return totals


def spans_as_dicts(spans: List[list]) -> List[Dict[str, Any]]:
    """The ``{name, start, end, parent, job, n}`` form written at exit."""
    keys = ("name", "start", "end", "parent", "job", "n")
    return [dict(zip(keys, span)) for span in spans]
