"""Textbook cache models the oracle suite judges the simulator by.

Nothing here imports ``repro``: the models are written from their
definitions, so a defect shared by every engine and rendering of the
simulator (they all derive from one transition spec) cannot hide in them.

* :func:`stack_distances` — Mattson's LRU stack (1970): one recency list
  per set, most recent first.  An access at depth ``d`` hits every LRU
  cache of ``d`` or more ways per set, so one pass answers every ``w``.
* :func:`opt_misses` — Belady's MIN: on a miss in a full set evict the
  line whose next use lies furthest ahead.  No demand-fetch policy of the
  same ways misses less.

A line maps to set ``line % num_sets``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Sequence


def stack_distances(stream: Sequence[int], num_sets: int) -> List[float]:
    """Per access, the 1-based depth of its line in its set's LRU stack
    (``math.inf`` on the line's first touch)."""
    stacks: Dict[int, List[int]] = defaultdict(list)
    depths: List[float] = []
    for line in stream:
        stack = stacks[line % num_sets]
        if line in stack:
            depths.append(stack.index(line) + 1)
            stack.remove(line)
        else:
            depths.append(math.inf)
        stack.insert(0, line)
    return depths


def lru_misses(stream: Sequence[int], num_sets: int, ways: int) -> int:
    """Misses of an LRU cache of ``ways`` ways per set."""
    return sum(d > ways for d in stack_distances(stream, num_sets))


def lru_miss_stream(stream: Sequence[int], num_sets: int,
                    ways: int) -> List[int]:
    """The lines that miss an LRU cache of ``ways`` ways per set, in
    order: what a private LRU level hands the level below it."""
    depths = stack_distances(stream, num_sets)
    return [line for line, d in zip(stream, depths) if d > ways]


def opt_misses(stream: Sequence[int], num_sets: int, ways: int) -> int:
    """Misses of Belady's MIN with ``ways`` ways per set."""
    next_use: List[float] = [math.inf] * len(stream)
    seen: Dict[int, int] = {}
    for i in range(len(stream) - 1, -1, -1):
        next_use[i] = seen.get(stream[i], math.inf)
        seen[stream[i]] = i
    resident: Dict[int, Dict[int, float]] = defaultdict(dict)
    misses = 0
    for i, line in enumerate(stream):
        held = resident[line % num_sets]
        if line not in held:
            misses += 1
            if len(held) == ways:
                del held[max(held, key=held.__getitem__)]
        held[line] = next_use[i]
    return misses
