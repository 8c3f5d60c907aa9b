"""The compiled target's build, cache and load layer.

What must hold for the object cache (``repro.cache.native``): it is
private to the user or it is not used; an object's name covers everything
that decides its bytes; a damaged or unexpected file under the right name
is replaced, never loaded; two processes racing through a cold cache both
end up with a complete object; and a host without a compiler simply runs
the Python target — while a host *with* one that cannot build is told.
None of these tests skips on a host without ``cc``: they assert what that
host must do instead.
"""

import os
import shutil
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.cache import native, transitions

KEY = ("nru", "masks")
HAS_CC = shutil.which("cc") is not None
#: Every kernel with a C target: the stock event loops and the drains.
STOCK = [("loop", (policy, scheme)) for policy in transitions.POLICIES
         for scheme in transitions.SCHEMES]
STOCK += [("observe", (policy, "none")) for policy in transitions.POLICIES]


def forget():
    native.load.cache_clear()
    native.compiler.cache_clear()


@pytest.fixture
def cache_home(monkeypatch, tmp_path):
    """An empty ``$XDG_CACHE_HOME`` and a process that has loaded nothing."""
    home = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    forget()
    yield home
    forget()


def object_stem(key=KEY) -> str:
    _cc, version = native.compiler()
    source = transitions.render("loop", key, target="c")
    return native.object_name(source, version)


# ----------------------------------------------------------------------
def test_a_host_with_a_compiler_builds_every_stock_key(cache_home):
    """The numba lesson: where ``cc`` exists the compiled target must
    build — this test fails, it never skips.  Where it does not, every
    key reports why it runs on the Python target."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = {key: native.load(*key) for key in STOCK}
    if not HAS_CC:
        assert all(loaded is None and info["reason"]
                   == "no C compiler (cc) on PATH"
                   for loaded, info in results.values())
        return
    for key, (loaded, info) in results.items():
        assert loaded is not None, (key, info)
        assert info["cache"] == "built" and info["build_s"] > 0
    objects = sorted((cache_home / "repro-kernels").iterdir())
    assert len(objects) == len(STOCK)
    assert all(path.suffix == ".so" for path in objects)
    forget()
    again = native.load("loop", KEY)[1]
    assert again["cache"] == "hit"


def test_cache_directory_is_created_private(cache_home):
    path = native.cache_dir()
    assert path == cache_home / "repro-kernels"
    assert stat.S_IMODE(path.stat().st_mode) == 0o700


@pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
def test_directory_others_can_write_is_refused(cache_home, mode):
    path = cache_home / "repro-kernels"
    path.mkdir(parents=True)
    path.chmod(mode)
    with pytest.raises(native.Unavailable, match="only they can write") \
            as info:
        native.cache_dir()
    assert info.value.loud
    if HAS_CC:
        with pytest.warns(RuntimeWarning, match="running the Python target"):
            loaded, why = native.load("loop", KEY)
        assert loaded is None and "only they can write" in why["reason"]
    assert list(path.iterdir()) == []


def test_directory_of_another_user_is_refused(cache_home, monkeypatch):
    native.cache_dir()
    monkeypatch.setattr(native.os, "geteuid", lambda: os.getuid() + 1)
    with pytest.raises(native.Unavailable, match="owned by this user"):
        native.cache_dir()


def test_symlinked_directory_is_refused(cache_home, tmp_path):
    (tmp_path / "elsewhere").mkdir(mode=0o700)
    cache_home.mkdir()
    (cache_home / "repro-kernels").symlink_to(tmp_path / "elsewhere")
    with pytest.raises(native.Unavailable):
        native.cache_dir()


def test_unusable_home_falls_back_to_a_per_uid_temp_directory(
        cache_home, monkeypatch, tmp_path):
    cache_home.write_text("a file where the cache home should be")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    path = native.cache_dir()
    assert path == tmp_path / f"repro-kernels-{os.geteuid()}"
    assert stat.S_IMODE(path.stat().st_mode) == 0o700


def test_name_covers_source_compiler_and_flags():
    name = native.object_name("int x;", "cc 1.0")
    assert name == native.object_name("int x;", "cc 1.0")
    assert len(name) == 64
    others = {native.object_name("int y;", "cc 1.0"),
              native.object_name("int x;", "cc 1.1"),
              native.object_name("int x;", "cc 1.0",
                                 native.FLAGS + ("-O3",))}
    assert len(others | {name}) == 4
    assert "-ffp-contract=off" in native.FLAGS
    assert not any("fast" in flag for flag in native.FLAGS)


# ----------------------------------------------------------------------
needs_cc = pytest.mark.skipif(
    not HAS_CC, reason="replaces objects a host without cc never builds; "
                       "that host is covered by the tests above and below")


def good_object(cache_home) -> Path:
    """KEY's object, built but never mapped into this process (damaging a
    mapped file in place would fault the test itself)."""
    cc, _version = native.compiler()
    path = native._build(cc, transitions.render("loop", KEY, target="c"),
                         native.cache_dir(), object_stem())
    assert path.parent == cache_home / "repro-kernels"
    assert path.name.startswith(object_stem() + "-") and path.suffix == ".so"
    return path


def rebuilt_not_loaded(cache_home, planted: Path) -> None:
    """Loading KEY ignores (and removes) ``planted`` and builds afresh."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded, info = native.load("loop", KEY)
    assert loaded is not None and info["cache"] == "built"
    (left,) = (cache_home / "repro-kernels").iterdir()
    assert stat.S_IMODE(left.stat().st_mode) == 0o700
    assert native._digest(left) == left.stem.rpartition("-")[2]
    forget()
    assert native.load("loop", KEY)[1]["cache"] == "hit"


@needs_cc
def test_truncated_object_is_rebuilt_not_loaded(cache_home):
    """Mapping a truncated ELF file can raise SIGBUS instead of an error,
    so the bytes are checked against the digest in the name first."""
    path = good_object(cache_home)
    whole = path.read_bytes()
    path.write_bytes(whole[:len(whole) // 2])
    rebuilt_not_loaded(cache_home, path)


@needs_cc
def test_object_others_can_write_is_rebuilt_not_loaded(cache_home):
    path = good_object(cache_home)
    path.chmod(0o777)
    rebuilt_not_loaded(cache_home, path)


@needs_cc
def test_foreign_library_under_the_right_name_is_rebuilt(cache_home):
    """A well-formed shared object that is not the kernel (no ``run``),
    under a name that is consistent with its own bytes."""
    directory = native.cache_dir()
    scratch = directory / "planted.so"
    subprocess.run(["cc", "-shared", "-fPIC", "-x", "c", "-", "-o",
                    str(scratch)], input="int other(void) { return 7; }",
                   text=True, check=True)
    scratch.chmod(0o700)
    planted = directory / f"{object_stem()}-{native._digest(scratch)}.so"
    scratch.rename(planted)
    rebuilt_not_loaded(cache_home, planted)
    assert not planted.exists()


@needs_cc
def test_compiler_that_fails_is_reported_once_and_falls_back(
        cache_home, monkeypatch, tmp_path):
    broken = tmp_path / "bin"
    broken.mkdir()
    (broken / "cc").write_text(
        "#!/bin/sh\n[ \"$1\" = --version ] && { echo 'cc broken 0'; exit 0; }"
        "\necho 'no backend' >&2\nexit 3\n")
    (broken / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(broken))
    with pytest.warns(RuntimeWarning) as caught:
        results = [native.load(*key) for key in STOCK[:2] + STOCK[-1:]]
    assert all(loaded is None and "exited 3: no backend" in info["reason"]
               for loaded, info in results)
    # One text for every key, so the default filter prints it once.
    assert len({str(w.message) for w in caught}) == 1
    assert list((cache_home / "repro-kernels").iterdir()) == []


def test_no_compiler_is_silent_and_says_why(cache_home, monkeypatch,
                                            tmp_path):
    monkeypatch.setenv("PATH", str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded, info = native.load("loop", KEY)
        assert native.load("observe", ("bt", "none")) == (None, info)
    assert loaded is None
    assert info == {"reason": "no C compiler (cc) on PATH"}
    assert not (cache_home / "repro-kernels").exists()


RACER = """
import json, sys
from repro.cache import native
loaded, info = native.load("loop", ("lru", "counters"))
print(json.dumps({"ok": loaded is not None, **info}))
"""


@needs_cc
def test_two_processes_racing_through_a_cold_cache(cache_home):
    """Both build (or one finds the other's object), both load a
    complete file, and nothing but the one object is left behind."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    racers = [subprocess.Popen([sys.executable, "-c", RACER], env=env,
                               stdout=subprocess.PIPE, text=True)
              for _ in range(3)]
    outputs = [racer.communicate(timeout=120)[0] for racer in racers]
    assert [racer.returncode for racer in racers] == [0, 0, 0]
    assert all('"ok": true' in output for output in outputs), outputs
    assert any('"cache": "built"' in output for output in outputs)
    left = list((cache_home / "repro-kernels").iterdir())
    assert len(left) == 1 and left[0].suffix == ".so"
    loaded, info = native.load("loop", ("lru", "counters"))
    assert loaded is not None and info["cache"] == "hit"


# ----------------------------------------------------------------------
# Marshalling refuses what C could not bounds-check
# ----------------------------------------------------------------------
@needs_cc
class TestMarshalValidation:
    @pytest.fixture
    def call(self):
        from repro.cache.cache import SetAssociativeCache
        from repro.cache.geometry import CacheGeometry
        from repro.cache.partition.masks import MasksPartition

        cache = SetAssociativeCache(
            CacheGeometry(4 * 4 * 128, 4, 128), "nru", num_cores=2,
            partition=MasksPartition(2, 4, 4))
        loop = transitions.bind("loop", KEY, cache, None)
        assert isinstance(loop, native.CompiledKernel)
        n = 2
        column = np.arange(3, dtype=np.int64)

        def call(lines=None, heap=((5.0, 1),), threads=n):
            lines = lines if lines is not None else [column] * threads
            return loop(
                0.0, 0, list(heap), None, 1e9, None, None, None,
                loop.ints([0] * threads), loop.ints([2] * threads),
                loop.floats([0.0] * threads), lines, [column] * threads,
                loop.ints([-2] * threads), loop.ints([0] * threads),
                loop.floats([1.0] * threads), 10.0, 250.0, None, False,
                None)

        call.cache = cache
        return call

    def test_column_that_is_not_contiguous_int64_is_refused(self, call):
        with pytest.raises(TypeError, match=r"lines\[0\]: not a contiguous "
                                            r"int64 column"):
            call(lines=[[1, 2, 3], np.arange(3)])
        with pytest.raises(TypeError, match=r"lines\[1\]"):
            call(lines=[np.arange(3), np.arange(6)[::2]])
        assert call.cache.state.occupancy() == 0

    def test_per_core_array_shorter_than_the_threads_is_refused(self, call):
        column = np.arange(3, dtype=np.int64)
        with pytest.raises(ValueError, match="2 slots for 3 threads"):
            call(lines=[column] * 3, heap=((5.0, 1), (6.0, 2)), threads=3)

    def test_rows_must_match_the_thread_count(self, call):
        with pytest.raises(ValueError, match="lines: 1 columns for 2"):
            call(lines=[np.arange(3)])

    @pytest.mark.parametrize("policy", list(transitions.POLICIES))
    def test_batch_that_is_not_a_contiguous_int64_column_is_refused(
            self, policy):
        """A drain hands its lines over by pointer too; the ATD is left
        exactly as it was."""
        from repro.cache.geometry import CacheGeometry
        from repro.profiling.atd import ATD
        from repro.profiling.profilers import make_profiler

        atd = ATD(CacheGeometry(16 * 4 * 128, 4, 128), 2, policy,
                  make_profiler(policy))
        drain = transitions.bind("observe", (policy, "none"), atd)
        assert isinstance(drain, native.CompiledKernel)
        for batch in ([0, 2, 4], (0, 2, 4), np.arange(6)[::2],
                      np.arange(6, dtype=np.int32),
                      np.arange(6, dtype=np.float64),
                      np.zeros((2, 3), dtype=np.int64)):
            with pytest.raises(TypeError, match="batch: not a contiguous "
                                                "int64 column"):
                drain(batch)
        assert atd.state.occupancy() == 0 and atd.state.map == {}
        assert atd.sdh.total == 0 and atd._counts == [0, 0]
        drain(np.arange(6, dtype=np.int64)[::2].copy())
        assert atd._counts == [3, 0] and atd.state.occupancy() == 3
