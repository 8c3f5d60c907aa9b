"""Cache-level driver of the ``loop`` rendering: one thread, one stream.

``BatchedEngine.run`` is the only production caller of the event loop
:func:`repro.cache.transitions.bind` loads, and it arrives with traces,
an L1 prefilter and a controller.  The cache-level suites want less: push
a list of line addresses through a cache *as the whole L2 stream of one
thread* and look at the cache afterwards.  :func:`loop_window` does that
the way a run would: with the compiled loop the batched engine binds for
a stock cache nobody rebound (:func:`repro.cache.state.rendered_key`),
bound to one run per window, with one clock per thread, as every run
has; and for
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
    misses (every gap 0), bound as the run's miss-stream buffer with
    thread ``core``'s row at ``core * stride``.  With ``base`` 0 and
    penalties 0 (hit) / 1 (miss) the thread's clock counts its misses;
    ``stop`` is kept one ahead of the cursor, so the loop returns after
    every access (a window end) and the flag is read off the clock it
    returns.  ``left`` starts at 0, so no access is ever a freeze.
    Threads below ``core`` exist only to give ``core`` its index: they
    hold no stream and sit parked at ``inf``.
    """
    key = rendered_key(cache)
    if key is None:
        def stepped(lines, flags):
            for i, line in enumerate(lines):
                flags[i] = cache.access_line_hit(line, core)

        return stepped
    threads = core + 1

    def kernel(lines, flags):
        count = len(lines)
        stride = max(count, 1)
        stream = np.zeros((2, threads * stride), dtype=np.int64)
        stream[0, core * stride:core * stride + count] = lines
        cur = array("q", [0] * threads)
        stop = array("q", [0] * core + [1])
        clocks = array("d", [inf] * core + [0.0])
        loop = transitions.bind("loop", key, cache, None, transitions.LoopRun(
            threads, stride, 0.0, 1.0, stream[0], stream[1], clocks, cur,
            stop, array("d", [0.0] * threads), array("q", [0] * threads),
            array("d", [0.0] * threads)))
        assert loop is not None, transitions.target_stats()["loop", key]
        misses = 0.0
        for j in range(1, count + 1):
            t, clock, event = loop(inf, inf)
            assert (t, event, cur[core]) == (core, 0, j)
            flags[j - 1] = clock == misses
            misses = clocks[core] = clock
            stop[core] = j + 1
        # The loop leaves the access count to its caller.
        cache.stats.accesses[core] += count

    return kernel
