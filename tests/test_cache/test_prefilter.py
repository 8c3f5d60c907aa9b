"""The L1 ``prefilter`` rendering: the compiled kernel and the
per-access path agree.

``SmallLRUCache.access_lines_hit`` walks a whole read window through
the compiled kernel ``transitions.bind`` gave the L1 at construction;
``access_line_rw`` is the hand-written per-access oracle over the same
two arrays, writes included.  Every test here walks random streams
through both and compares the miss streams, the L1 slots and dirty
flags, and the statistics — with state carried across windows of random
widths and sets left partly invalid.
"""

import ast

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import native, transitions
from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import SmallLRUCache

KEY = transitions.PREFILTER_KEY


def geometry(num_sets, assoc):
    return CacheGeometry(num_sets * assoc * 128, assoc, 128)


def state(l1):
    """Slots, dirty flags and every statistics field."""
    return (list(l1._slots), list(l1._dirty),
            [list(getattr(l1.stats, name)) for name in l1.stats.__slots__])


def per_access(l1, lines, writes):
    """The miss stream :meth:`access_line_rw` walks, one access at a
    time: ``[offs, gaps, lines]`` as lists."""
    stream = [[], [], []]
    gap = 0
    for offset, line in enumerate(lines.tolist()):
        write = bool(writes[offset]) if writes is not None else False
        hit, _victim = l1.access_line_rw(line, write)
        if hit:
            gap += 1
            continue
        for column, value in zip(stream, (offset, gap, line)):
            column.append(value)
        gap = 0
    return stream


def window_walk(l1, lines, writes):
    """``(stream, walked)``: a read window through the bound kernel; a
    writing one — or a read window over an L1 still holding a dirty
    line, which the kernel refuses, leaving the L1 as it was — per
    access, as the reference engine steps a writing trace."""
    if writes is None:
        before = state(l1)
        try:
            return [column.tolist()
                    for column in l1.access_lines_hit(lines)], True
        except ValueError as refusal:
            assert "holds a dirty line" in str(refusal)
            assert state(l1) == before
    return per_access(l1, lines, writes), False


def walks(seed, num_sets, assoc, writes, windows=12):
    """Random windows of random widths over a footprint that leaves some
    sets partly invalid, walked by the per-access path and by the L1's
    window walk in turn.  ``writes`` says which windows write: none
    (``"reads"``), the first (``"writes"``: the read windows after it
    start over an L1 holding dirty lines, the kernel taking over once
    they are evicted) or every fourth (``"mixed"``).  Returns both
    sides' streams and final states, and the windows the kernel
    walked."""
    rng = np.random.default_rng(seed)
    g = geometry(num_sets, assoc)
    sides = {"per access": SmallLRUCache(g), "bound": SmallLRUCache(g)}
    # Lines of every other set only, so half the sets stay invalid, plus
    # a narrow alphabet in the rest: hits, misses, invalid fills.
    footprint = 3 * assoc * num_sets
    streams = {name: [] for name in sides}
    walked = 0
    for window in range(windows):
        width = int(rng.integers(0, 300))
        lines = rng.integers(0, footprint, size=width) * 2
        flags = rng.random(width) < 0.35
        if (writes == "reads" or (writes == "writes" and window)
                or (writes == "mixed" and window % 4)):
            flags = None
        for name, l1 in sides.items():
            if name == "per access":
                streams[name].append(per_access(l1, lines, flags))
            else:
                stream, kernel = window_walk(l1, lines, flags)
                streams[name].append(stream)
                walked += kernel
    return streams, {name: state(l1) for name, l1 in sides.items()}, walked


@pytest.mark.parametrize("writes", ["reads", "writes", "mixed"])
@pytest.mark.parametrize("assoc", [1, 2, 4])
@pytest.mark.parametrize("seed", range(4))
def test_targets_and_per_access_path_agree(seed, assoc, writes):
    streams, states, walked = walks(seed, num_sets=8, assoc=assoc,
                                    writes=writes)
    assert streams["bound"] == streams["per access"]
    assert states["bound"] == states["per access"]
    assert walked >= {"reads": 12, "writes": 1, "mixed": 1}[writes]
    slots = states["bound"][0]
    assert -1 in slots and any(line >= 0 for line in slots)


@settings(max_examples=150, deadline=None)
@given(assoc=st.sampled_from([1, 2, 4]),
       start=st.lists(st.integers(0, 47), max_size=80),
       window=st.lists(st.integers(0, 47), max_size=200))
def test_a_second_walk_of_a_window_is_a_fixed_point(assoc, start, window):
    """True LRU forgets: one walk of a window leaves each set holding the
    last ``assoc`` distinct lines it saw there (all of them, if fewer, in
    front of what it held), whatever it started from.  So from any start
    state — any read prefix reaches any valid one — the second walk
    leaves the slots as the first left them, fills no invalid slot, and
    the third walk returns the second's columns: the batched engine's
    fixed window."""
    l1 = SmallLRUCache(geometry(4, assoc))
    for line in start:
        l1.access_line_rw(line, False)
    lines = np.array(window, dtype=np.int64)
    l1.access_lines_hit(lines)
    first = list(l1._slots)
    fills = l1.stats.fills_invalid[0]
    second = [column.tolist() for column in l1.access_lines_hit(lines)]
    assert list(l1._slots) == first
    assert l1.stats.fills_invalid[0] == fills
    third = [column.tolist() for column in l1.access_lines_hit(lines)]
    assert list(l1._slots) == first
    assert third == second


def test_a_window_walk_refuses_an_l1_holding_a_dirty_line():
    """Only the per-access path writes back: ``access_lines_hit`` raises
    on an L1 with a dirty line and leaves it as it was; once the line is
    evicted (per access, written back), the walk reads again."""
    l1 = SmallLRUCache(geometry(2, 1))
    l1.access_line_rw(0, True)
    before = state(l1)
    with pytest.raises(ValueError, match="holds a dirty line"):
        l1.access_lines_hit(np.array([2, 0, 2], dtype=np.int64))
    assert state(l1) == before
    assert l1.access_line_rw(2, False) == (False, 0)
    assert l1.stats.writebacks == [1] and not l1.is_dirty(0)
    stream = l1.access_lines_hit(np.array([0, 2], dtype=np.int64))
    assert stream.offs.tolist() == [0, 1]


def test_gaps_count_the_hits_between_misses():
    l1 = SmallLRUCache(geometry(4, 2))
    lines = np.array([0, 0, 0, 4, 4, 8, 0, 8, 12], dtype=np.int64)
    stream = l1.access_lines_hit(lines)
    assert stream.offs.tolist() == [0, 3, 5, 6, 8]
    assert stream.gaps.tolist() == [0, 2, 1, 0, 1]
    assert stream.lines.tolist() == lines[stream.offs].tolist()


def test_state_is_shared_in_place():
    """The kernel works on the L1's own arrays — nothing is copied in or
    out, nothing rebound — so ``flush`` (in place) is seen by the next
    window."""
    lines = np.arange(16, dtype=np.int64)
    l1 = SmallLRUCache(geometry(4, 2))
    slots, dirty = l1._slots, l1._dirty
    l1.access_lines_hit(lines)
    assert l1._slots is slots and l1._dirty is dirty
    assert l1.occupancy() == 8 and not any(dirty)
    l1.flush()
    assert len(l1.access_lines_hit(lines[:8]).offs) == 8
    assert list(l1.stats.misses) == [24]


def test_bound_target_is_compiled_where_the_host_has_cc():
    l1 = SmallLRUCache(geometry(4, 2))
    entry = transitions.target_stats()["prefilter", KEY]
    assert entry["target"] == "c"
    assert isinstance(l1._prefilter, native.CompiledKernel)
    assert "prefilter c=1" in transitions.target_summary()


def test_an_l1_without_a_kernel_refuses_a_window(monkeypatch):
    """Where no prefilter loads the bulk entry points raise rather than
    walk slowly: every run there is the reference engine's, which steps
    ``access_line_rw``."""
    l1 = SmallLRUCache(geometry(4, 2))
    monkeypatch.setattr(l1, "_prefilter", None)
    with pytest.raises(RuntimeError, match="no compiled prefilter"):
        l1.access_lines_hit(np.arange(4, dtype=np.int64))
    assert l1.stats.accesses == [0]


def test_kernel_has_no_data_dependent_branch():
    """The rendering is a fixed-trip move-to-front: no ``if``; every
    ``while`` runs over the set's slots; every choice is a select.  So
    what the C target branches on is the window length and the
    associativity — never a line or a slot."""
    factory = ast.parse(transitions.render("prefilter", KEY)).body[0]
    kernel = next(node for node in factory.body
                  if isinstance(node, ast.FunctionDef))
    ifs = [node for node in ast.walk(kernel) if isinstance(node, ast.If)]
    assert ifs == []
    loops = [node for node in ast.walk(kernel) if isinstance(node, ast.While)]
    assert {ast.unparse(loop.test) for loop in loops} == {"k < assoc"}
    tests = {ast.unparse(node.test) for node in ast.walk(kernel)
             if isinstance(node, ast.IfExp)}
    assert tests == {"hit"}
    run = transitions.translate("prefilter", KEY).source.split(
        "i64 run(Args *a) {")[1]
    assert "if (" not in run
