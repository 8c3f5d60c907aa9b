"""The batched engine's miss-stream buffer: one per thread, kept between
runs, private to a process.

``BatchedEngine.run`` views a prefix of its thread's buffer
(:func:`repro.cmp.engine.batched.stream_buffer`) instead of mapping a
fresh one per run.  That is exact only while a run reads nothing it did
not write first, no other thread writes the same memory (the compiled
kernels run without the GIL) and no forked process shares its pages.
"""

import dataclasses
import os
import threading

import numpy as np

from repro.cmp.engine import batched
from repro.cmp.simulator import run_workload
from repro.config import SimulationConfig, config_C_L

from test_engine_equivalence import make_traces, processor


def run(engine):
    sim = SimulationConfig(instructions_per_thread=30_000, seed=7,
                           engine=engine)
    result = run_workload(processor(4), config_C_L(
        atd_sampling=4, interval_cycles=20_000), make_traces(4), sim)
    return dataclasses.asdict(result)


def test_junk_left_between_two_runs_changes_no_result():
    expected = run("reference")
    assert run("batched") == expected
    held = batched._BUFFERS.map
    for junk in (-1, 0, 1 << 40):
        np.frombuffer(held, dtype=np.int64)[:] = junk
        assert run("batched") == expected
        # The same mapping, junk and all, was the second run's buffer.
        assert batched._BUFFERS.map is held


def on_a_new_thread(check):
    """Run ``check`` on a thread that holds no buffer yet."""
    failures = []

    def guarded():
        try:
            check()
        except BaseException as exc:        # re-raised on this thread
            failures.append(exc)

    worker = threading.Thread(target=guarded)
    worker.start()
    worker.join()
    if failures:
        raise failures[0]


def test_the_buffer_grows_only_past_every_earlier_need():
    def check():
        assert getattr(batched._BUFFERS, "map", None) is None
        small = batched.stream_buffer(2, 64)
        held = batched._BUFFERS.map
        assert len(held) == 2 * 2 * 64 * 8
        assert batched.stream_buffer(1, 64).shape == (2, 1, 64)
        assert batched._BUFFERS.map is held
        wide = batched.stream_buffer(2, 4096)
        assert batched._BUFFERS.map is not held
        assert not np.shares_memory(small, wide)

    on_a_new_thread(check)


def test_a_forked_childs_writes_stay_its_own():
    buffer = batched.stream_buffer(1, 512)
    buffer[:] = 7
    pid = os.fork()
    if not pid:
        buffer[:] = 9
        os._exit(0 if (buffer == 9).all() else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WEXITSTATUS(status) == 0
    assert (buffer == 7).all()


def test_two_threads_get_two_buffers():
    buffers = [batched.stream_buffer(1, 512)]
    on_a_new_thread(lambda: buffers.append(batched.stream_buffer(1, 512)))
    ours, theirs = buffers
    assert not np.shares_memory(ours, theirs)
