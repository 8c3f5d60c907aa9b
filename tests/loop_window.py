"""Cache-level driver of the ``loop`` rendering: one thread, one stream.

``BatchedEngine.run`` is the only production caller of the event loop
:func:`repro.cache.transitions.bind` loads, and it arrives with traces,
an L1 prefilter and a controller.  The cache-level suites want less: push
a list of line addresses through a cache *as the whole L2 stream of one
thread* and look at the cache afterwards.  :func:`loop_window` does that
the way a run would: with the compiled loop the batched engine binds for
a stock cache nobody rebound (:func:`repro.cache.state.rendered_key`),
with one clock per thread, as every run has; and for
every other cache through its ``access_line_hit``, one access at a time,
as the reference engine steps it.

(Importable as ``loop_window`` because pytest puts ``tests/`` on
``sys.path`` for ``conftest.py``.)
"""

from array import array
from math import inf

import numpy as np

from repro.cache import transitions
from repro.cache.state import rendered_key


def loop_window(cache, core=0):
    """``kernel(lines, flags)`` — ``lines`` through ``cache`` as thread
    ``core``'s stream, in order, ``flags[i] = 1`` where access ``i`` hit.

    For the compiled loop the stream is one window of back-to-back L1
    misses (every gap 0).  With ``base`` 0 and penalties 0 (hit) / 1
    (miss) the thread's clock counts its misses; ``stop`` is kept one
    ahead of the cursor, so the loop returns after every access (a
    window end) and the flag is read off the clock it returns.  Threads
    below ``core`` exist only to give ``core`` its index: they hold no
    stream and sit parked at ``inf``.
    """
    key = rendered_key(cache)
    if key is None:
        def stepped(lines, flags):
            for i, line in enumerate(lines):
                flags[i] = cache.access_line_hit(line, core)

        return stepped
    loop = transitions.bind("loop", key, cache, None)
    assert loop is not None, transitions.target_stats()["loop", key]
    threads = core + 1

    def column(values):
        return np.array(values, dtype=np.int64)

    def ints(values):
        return array("q", values)

    def floats(values):
        return array("d", values)

    def kernel(lines, flags):
        count = len(lines)
        rows = [column([])] * core + [column(lines)]
        gaps = [column([])] * core + [column([0] * count)]
        cur = ints([0] * threads)
        stop = ints([0] * core + [1])
        anchor = floats([0.0] * threads)
        clocks = floats([inf] * core + [0.0])
        misses = 0.0
        for j in range(1, count + 1):
            t, clock, event = loop(
                clocks, threads, inf, inf, cur, stop, anchor, rows, gaps,
                ints([-2] * threads), ints([0] * threads),
                floats([0.0] * threads), 0.0, 1.0)
            assert (t, event, cur[core]) == (core, 0, j)
            flags[j - 1] = clock == misses
            misses = clocks[core] = clock
            stop[core] = j + 1
        # The loop leaves the access count to its caller.
        cache.stats.accesses[core] += count

    return kernel
