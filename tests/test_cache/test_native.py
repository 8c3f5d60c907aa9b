"""The compiled target's build, cache and load layer.

What must hold for the object cache (``repro.cache.native``): it is
private to the user or it is not used; an object's name covers everything
that decides its bytes, and a warm process finds it without translating
anything; a damaged or unexpected file under the right name — its member
table included — is replaced, never loaded; two processes racing through
a cold cache both end up with a complete object; and a host without a
compiler simply loads nothing (its runs take the reference engine) —
while a host *with* one that cannot build is told.
None of these tests skips on a host without ``cc``: they assert what that
host must do instead.
"""

import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import warnings
from array import array
from math import inf
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
    return native.object_name(transitions.render("loop", key),
                              transitions.source_name("loop", key),
                              native.translator(), version)


# ----------------------------------------------------------------------
def test_a_host_with_a_compiler_builds_every_stock_key(cache_home):
    """The numba lesson: where ``cc`` exists the compiled target must
    build — this test fails, it never skips.  Where it does not, every
    key reports why it has no compiled kernel."""
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
        with pytest.warns(RuntimeWarning, match="the classes run instead"):
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


def test_relative_cache_home_is_ignored(monkeypatch, tmp_path):
    """The XDG spec: a relative ``$XDG_CACHE_HOME`` is invalid and is
    ignored, exactly like an unset one — never resolved against the
    working directory, which differs between processes."""
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    relative = native.cache_dir()
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert relative == native.cache_dir() \
        == tmp_path / "home" / ".cache" / "repro-kernels"
    assert list((tmp_path / "cwd").iterdir()) == []


def test_name_covers_source_compiler_and_flags():
    """Rendered source, its label, the translator digest, the compiler
    version and the flags: change any one and the name changes."""
    parts = ("def build(l1):\n    pass\n",
             "<repro kernel lru/none prefilter>", "0" * 64, "cc 1.0")
    name = native.object_name(*parts)
    assert name == native.object_name(*parts)
    assert len(name) == 64
    others = {native.object_name(*parts[:i], parts[i] + " ", *parts[i + 1:])
              for i in range(len(parts))}
    others.add(native.object_name(*parts, native.FLAGS + ("-O3",)))
    assert len(others | {name}) == len(parts) + 2
    assert "-ffp-contract=off" in native.FLAGS
    assert not any("fast" in flag for flag in native.FLAGS)


def test_translator_digest_covers_the_kinds(monkeypatch):
    """The translator's own source is read from its module file; the
    kinds it is handed are part of the digest too."""
    stock = native.translator()
    assert len(stock) == 64 and stock == native.translator()
    monkeypatch.setitem(transitions.C_KINDS, "probe", "int")
    native.translator.cache_clear()
    try:
        assert native.translator() != stock
    finally:
        monkeypatch.undo()
        native.translator.cache_clear()
    assert native.translator() == stock


# ----------------------------------------------------------------------
needs_cc = pytest.mark.skipif(
    not HAS_CC, reason="replaces objects a host without cc never builds; "
                       "that host is covered by the tests above and below")


def plant(source: str) -> Path:
    """``source`` compiled under KEY's object name, never mapped into
    this process (damaging a mapped file in place would fault the test
    itself)."""
    cc, _version = native.compiler()
    return native._build(cc, source, native.cache_dir(), object_stem())


def good_object(cache_home) -> Path:
    """KEY's object as a cold load builds it: the translation plus its
    member table."""
    kernel = transitions.translate("loop", KEY)
    path = plant(kernel.source + native.table_constant(kernel))
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


def _constant(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'\nconst char {native.TABLE}[] = "{escaped}";\n'


#: Member tables a planted object carries under KEY's name: each is
#: refused before anything is bound, and the object rebuilt.
BAD_TABLES = {
    "missing": lambda kernel: "",
    "not-json": lambda kernel: _constant("{members: [}"),
    "not-an-object": lambda kernel: _constant("[1, 2, 3]"),
    "part-missing": lambda kernel: _constant(json.dumps(
        {"members": kernel.members, "params": kernel.params})),
    "member-not-a-triple": lambda kernel: native.table_constant(
        kernel._replace(members=kernel.members + (("x", "i64"),))),
    "name-not-an-identifier": lambda kernel: native.table_constant(
        kernel._replace(members=kernel.members + (
            ("__import__('os').getpid()", "i64", "int"),))),
    # No kernel calls back into Python: a function-pointer member is of
    # a C type no kernel has.
    "unknown-call-out-type": lambda kernel: native.table_constant(
        kernel._replace(members=kernel.members + (
            ("hook", "double (*)(i64)", "float"),))),
}


@needs_cc
@pytest.mark.parametrize("table", list(BAD_TABLES))
def test_object_whose_member_table_is_missing_or_malformed_is_rebuilt(
        cache_home, table):
    """The table is data: a well-formed kernel under the right name
    whose table is absent, not JSON, of the wrong shape, names a
    binding that is not an identifier or a member of a C type no kernel
    has is removed and rebuilt, never used."""
    kernel = transitions.translate("loop", KEY)
    planted = plant(kernel.source + BAD_TABLES[table](kernel))
    rebuilt_not_loaded(cache_home, planted)
    assert not planted.exists()


WARM = """
import json, sys
from repro.cache import cgen, native, transitions

assert native.translator.cache_info().currsize == 0, "digest at import"


def refuse(*args, **kwargs):
    raise AssertionError("a warm cache translated a kernel")


cgen.translate = refuse
print(json.dumps({f"{rendering} {'/'.join(key)}":
                  native.load(rendering, key)[1]
                  for rendering, key in transitions.rendering_keys()
                  if key is not None}))
"""


@needs_cc
def test_a_warm_process_loads_every_key_without_translating(cache_home):
    """A fresh process on a warm cache finds every stock key and the
    prefilter by its rendering alone: with the translator made to raise,
    every key is a ``hit`` (and the translator digest is not computed at
    import)."""
    keys = [entry for entry in transitions.rendering_keys()
            if entry[1] is not None]
    assert len(keys) == len(STOCK) + 1
    assert all(native.load(*entry)[1]["cache"] == "built" for entry in keys)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", WARM], env=env, text=True,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    infos = json.loads(done.stdout)
    assert len(infos) == len(keys)
    assert {info.get("cache") for info in infos.values()} == {"hit"}, infos
    assert len(list((cache_home / "repro-kernels").iterdir())) == len(keys)


BATCHED_RUN = """
import json, sys
import numpy as np
from repro.cache import transitions
from repro.config import config_M_L
from repro.fuzz import FuzzCase
from repro.workloads.trace import Trace

traces = [Trace(f"t{core}", np.arange(900) % 300 + (core << 20), ipm=4.0,
                cpi_base=1.0) for core in range(2)]
FuzzCase(traces=traces, l1_sets=2, l1_assoc=2, l2_sets=16, l2_assoc=8,
         instructions_per_thread=8000, per_thread_instructions=(8000, 8000),
         partitioning=config_M_L(atd_sampling=2, interval_cycles=6000)
         ).simulator("batched").run()
print(json.dumps({"cgen": "repro.cache.cgen" in sys.modules,
                  "caches": sorted(entry.get("cache", "none") for entry
                                   in transitions.target_stats().values())}))
"""


@needs_cc
def test_a_warm_batched_run_never_imports_the_translator(cache_home):
    """The translator is imported only to translate: a batched run in a
    fresh process on a warm cache — loop, drains and L1 walks all hits —
    never loads ``repro.cache.cgen``; the cold run before it did."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    runs = []
    for _ in range(2):
        done = subprocess.run([sys.executable, "-c", BATCHED_RUN], env=env,
                              text=True, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert runs[0] == {"cgen": True, "caches": ["built"] * 3}
    assert runs[1] == {"cgen": False, "caches": ["hit"] * 3}


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
# The bind refuses what C could not bounds-check
# ----------------------------------------------------------------------
@needs_cc
class TestMarshalValidation:
    """A run is bound once, with the loop (``transitions.bind``): what
    C would index past an end, or could not share, is refused there,
    before the loop ever runs."""

    @pytest.fixture
    def call(self):
        from repro.cache.cache import SetAssociativeCache
        from repro.cache.geometry import CacheGeometry
        from repro.cache.partition.masks import MasksPartition

        cache = SetAssociativeCache(
            CacheGeometry(4 * 4 * 128, 4, 128), "nru", num_cores=2,
            partition=MasksPartition(2, 4, 4))
        n = 2
        column = np.arange(3, dtype=np.int64)

        def call(lines=None, threads=n, cur=None):
            """Bind a run of ``threads`` windows of 3 misses, call it."""
            loop = transitions.bind(
                "loop", KEY, cache, None, transitions.LoopRun(
                    threads, 3, 10.0, 250.0,
                    lines if lines is not None else np.tile(column, threads),
                    np.zeros(3 * threads, dtype=np.int64),
                    array("d", [5.0] * threads),
                    cur if cur is not None else array("q", [0] * threads),
                    array("q", [2] * threads), array("d", [0.0] * threads),
                    array("q", [0] * threads), array("d", [1.0] * threads)))
            assert isinstance(loop, native.CompiledKernel)
            return loop(1e9, inf)

        call.cache = cache
        return call

    def test_column_that_is_not_contiguous_int64_is_refused(self, call):
        for lines in ([1, 2, 3] * 2, np.arange(12)[::2], np.arange(6.0)):
            with pytest.raises(TypeError, match=r"lines: a \w+ where "
                                                r"array\('q'\) or a "
                                                r"contiguous int64 column"):
                call(lines=lines)
        assert call.cache.state.occupancy() == 0

    def test_per_core_array_shorter_than_the_threads_is_refused(self, call):
        with pytest.raises(ValueError, match="2 slots for 3 threads"):
            call(threads=3)

    def test_a_per_thread_argument_shorter_than_the_threads_is_refused(
            self, call):
        """The loop indexes its cursors and clocks by thread too."""
        with pytest.raises(ValueError, match="cur: 1 slots for 2 threads"):
            call(cur=array("q", [0]))
        assert call.cache.state.occupancy() == 0

    def test_rows_must_match_the_thread_count(self, call):
        """The miss-stream buffer holds a window of ``stride`` slots per
        thread."""
        with pytest.raises(ValueError,
                           match="lines: 3 slots for 2 threads of 3"):
            call(lines=np.arange(3, dtype=np.int64))

    def test_an_array_c_cannot_share_is_refused(self, call):
        """Nothing is copied any more, so an array of the wrong kind is an
        error, not a slower call: a list, or an array of another element
        type, is a ``TypeError`` before the loop runs."""
        for cur in ([0, 0], array("l" if array("l").itemsize != 8
                                  else "i", [0, 0]), array("d", [0, 0])):
            with pytest.raises(TypeError, match=r"cur: a \w+ where "
                                                r"array\('q'\)"):
                call(cur=cur)
        assert call.cache.state.occupancy() == 0

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
            with pytest.raises(TypeError, match=r"batch: a \w+ where "
                                                r"array\('q'\) or a "
                                                r"contiguous int64 column"):
                drain(batch)
        assert atd.state.occupancy() == 0 and list(
            atd.state.invalid) == [atd.state.full_mask] * atd.num_sets
        assert atd.sdh.total == 0 and list(atd._counts) == [0, 0]
        drain(np.arange(6, dtype=np.int64)[::2].copy())
        assert list(atd._counts) == [3, 0] and atd.state.occupancy() == 3
        drain(array("q", [6, 8]))           # what the engine hands it
        assert list(atd._counts) == [5, 0] and atd.state.occupancy() == 5

    def test_an_owner_list_is_refused_before_anything_runs(self):
        """An owner whose array a kernel binds is not an ``array`` (here
        an SDH register file turned back into a list) is a ``TypeError``
        naming the binding, raised by ``transitions.bind`` — the argument
        block is built there — so nothing can run; the ATD is left exactly
        as it was, its own drain included."""
        from repro.cache.geometry import CacheGeometry
        from repro.profiling.atd import ATD
        from repro.profiling.profilers import make_profiler

        atd = ATD(CacheGeometry(16 * 4 * 128, 4, 128), 2, "nru",
                  make_profiler("nru"))
        own = atd.observe_many
        atd.sdh._r = list(atd.sdh._r)
        with pytest.raises(TypeError, match=r"sdh_r: a list where "
                                            r"array\('q'\)"):
            transitions.bind("observe", ("nru", "none"), atd)
        assert atd.observe_many is own
        assert atd.state.occupancy() == 0 and list(
            atd.state.invalid) == [atd.state.full_mask] * atd.num_sets
        assert list(atd._counts) == [0, 0] and atd.sdh.total == 0
