"""Cache-level driver of the ``loop`` rendering: one thread, one stream.

``BatchedEngine.run`` is the only production caller of the event loop
:func:`repro.cache.transitions.bind` renders, and it arrives with traces,
an L1 prefilter and a controller.  The cache-level suites want less: push
a list of line addresses through a cache *as the whole L2 stream of one
thread* and look at the cache afterwards.  :func:`loop_window` does that
with the loop the engine would bind for the same cache — fused for a
cache still running its rendered hit kernel, the call form otherwise,
compiled where the host has ``cc`` (wrap the call in
``transitions.python_target()`` for the other target) — over a heap of
one, which is what every single-thread run is.

(Importable as ``loop_window`` because pytest puts ``tests/`` on
``sys.path`` for ``conftest.py``.)
"""

from heapq import heappushpop
from math import inf

import numpy as np

from repro.cache import transitions
from repro.cache.state import rendered_key


def loop_window(cache, core=0):
    """``kernel(lines, flags)`` — ``lines`` through ``cache`` as thread
    ``core``'s stream, in order, ``flags[i] = 1`` where access ``i`` hit.

    The stream is one window of back-to-back L1 misses (every gap 0) with
    the thread's freeze on its last access, so the loop ends there.  With
    ``base`` 0 and penalties 0 (hit) / 1 (miss) the thread's clock counts
    its misses; ``stop`` is kept one ahead of the cursor, so the loop
    calls ``resume`` after every access and the flag is read off the
    clock.  Threads below ``core`` exist only to give ``core`` its index:
    they hold no stream and sit parked at ``inf``.
    """
    key = rendered_key(cache)
    loop = transitions.bind("loop", key, cache, None)
    threads = core + 1
    if hasattr(loop, "ints"):
        # The compiled target: C-typed cursors, int64 columns.
        ints, floats = loop.ints, loop.floats

        def column(values):
            return np.array(values, dtype=np.int64)
    else:
        ints = floats = column = list

    def kernel(lines, flags):
        count = len(lines)
        if not count:
            return
        rows = [column([])] * core + [column(lines)]
        gaps = [column([])] * core + [column([0] * count)]
        cur = ints([0] * threads)
        stop = ints([0] * core + [1])
        anchor = floats([0.0] * threads)
        fz_at = ints([-2] * core + [count - 1])
        fz_hit = ints([0] * threads)
        misses = 0.0

        def flag(j, clock):
            nonlocal misses
            flags[j - 1] = clock == misses
            misses = clock

        def beyond(now):
            raise AssertionError("no horizon in a window")

        def freeze(t, clock, j):
            flag(j, clock)
            return 0

        def resume(t, j):
            flag(j, anchor[t])
            cur[t] = j
            stop[t] = j + 1
            return anchor[t]

        loop(0.0, core, [(inf, t) for t in range(core)], heappushpop, inf,
             beyond, freeze, resume, cur, stop, anchor, rows, gaps, fz_at,
             fz_hit, floats([0.0] * threads), 0.0, 1.0, [None] * threads,
             False, None)
        if key is not None:
            # The fused loop leaves the access count to its caller.
            cache.stats.accesses[core] += count

    return kernel
