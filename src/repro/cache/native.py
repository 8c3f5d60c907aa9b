"""The compiled target of the ``loop``, ``observe`` and ``prefilter``
renderings: build, cache, load, run.

:func:`load` turns the C translation of one stock kernel — the event loop
of a ``(policy, scheme)`` pair, the ATD drain of a policy, the private
L1's window walk (:func:`repro.cache.transitions.translate`) — into a
loaded shared object, compiled with the host's ``cc`` on first use and
kept in a private per-user cache directory;
:class:`CompiledKernel` is that object behind the call signature of the
rendering's kernel closure.  Everything here is stdlib ``ctypes`` and one
``cc`` subprocess; nothing is downloaded.

Naming.  An object is named by what goes *into* the translator, not by
what comes out: the SHA-256 of the rendering's Python source
(:func:`repro.cache.transitions.render`, the text the translator reads)
and its source name, the :func:`translator` digest (the
translator's own source, :data:`repro.cache.transitions.C_KINDS`, the
interpreter's minor version), the compiler's version line and
:data:`FLAGS` — followed by a digest of the object's own bytes.  A miss
translates and appends the kernel's member table (``members``,
``params``, ``stored``) to the C source as one string constant,
:data:`TABLE`; a hit renders, opens the object and reads the table back
as JSON, so a warm process never translates.  The factory's prologue —
the rendered text up to the kernel's ``def`` — returns the objects the
table's members name.

Trust.  The process only ever ``dlopen``\\ s bytes it (or an earlier run
of the same user) compiled: the cache directory is created ``0700`` and
refused unless it is a real directory owned by this user that nobody
else can write; an object is refused unless it is a regular file with
the same properties whose bytes match the digest in its name (mapping a
truncated object can kill the process), it exports ``run`` and its
member table is well-formed data — JSON of the expected shape whose
names are identifiers; the table is never executed.  A file that fails
any check is removed and rebuilt.  Objects are written under a temporary
name and ``os.replace``\\ d, so two processes racing through a cold cache
(two campaigns, or the workers of a process pool that spawns rather than
forks) each install a complete file.

State during a call.  There is no resident C state and no copy of an
array: every flat array a kernel binds is an ``array('q')`` /
``array('d')`` its owner allocated once and only ever mutates in place
(tag rows and masks, policy and scheme words — LRU's
recency order included — statistics, SDH registers, a run's clocks and
cursors), or a contiguous numpy column of the C element type (a run's
miss-stream buffer).  The argument block is built once,
at bind (:class:`CompiledKernel`): every bound member — an owner array's
address, a scalar — is written then, and each owner
``array`` stays pinned — a buffer export held — for the kernel's
lifetime, so whatever Python does sees and is seen by C at once, and
resizing one raises :class:`BufferError` at any time instead of leaving
C a dangling pointer.  Anything else where an owner array belongs is a
:class:`TypeError` at bind.  A call writes only its own parameters —
the loop's two scalars, the prefilter's window and output columns, a
drain's batch (an ``int64`` column or an ``array('q')``), each pinned
for the call where it is an ``array`` — runs, and reads the returns.
Nothing is copied back either: the arrays C writes are the only copy
of the state they hold, which the classes read as C left it.  No kernel
calls back into Python: the loop returns to its caller wherever the
caller has work (a boundary, a freeze, a window end) and is called
again, so an exception the caller raises is raised with no compiled
call on the stack.

Failure.  No ``cc`` on ``PATH``, a 32-bit host: :func:`load` returns
``None`` with the reason, silently — that host is simply slower: every
run goes to the reference engine, stepping the classes
(:func:`repro.cmp.engine.batched_refusal`).  A ``cc`` that is present
but fails, an unusable cache directory, an object that will not load:
the same, plus one :class:`RuntimeWarning`: that host can be fixed.
"""

from __future__ import annotations

import array
import ctypes
import hashlib
import json
import keyword
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cache import transitions

__all__ = ["CompiledKernel", "FLAGS", "TABLE", "cache_dir", "compiler",
           "load", "object_name", "translator"]

#: Build flags.  No fast-math flag and no contraction: every double
#: operation is the IEEE one Python performs for the same expression (the
#: reference engine's), in its order.
FLAGS = ("-O2", "-shared", "-fPIC", "-fwrapv", "-ffp-contract=off")

#: C type of an ``Args`` member -> its ctypes field (an unknown one is a
#: malformed member table).
_C_FIELDS = {"i64": ctypes.c_int64, "double": ctypes.c_double,
             "i64 *": ctypes.c_void_p, "double *": ctypes.c_void_p}
#: C array type -> (numpy dtype, ``array`` typecode).
_ARRAYS = {"i64 *": (np.dtype(np.int64), "q"),
           "double *": (np.dtype(np.float64), "d")}


class Unavailable(Exception):
    """No compiled kernel can be loaded here; ``loud`` when the host has
    a compiler and the cause can be fixed."""

    def __init__(self, reason: str, loud: bool) -> None:
        super().__init__(reason)
        self.loud = loud


# ----------------------------------------------------------------------
# Compiler and cache directory
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def compiler() -> Tuple[str, str]:
    """``(path, version line)`` of the host's ``cc``."""
    if ctypes.sizeof(ctypes.c_void_p) != 8:
        raise Unavailable("not a 64-bit host", loud=False)
    path = shutil.which("cc")
    if path is None:
        raise Unavailable("no C compiler (cc) on PATH", loud=False)
    try:
        probe = subprocess.run([path, "--version"], capture_output=True,
                               text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError) as exc:
        raise Unavailable(f"{path} --version failed: {exc}", loud=True)
    return path, probe.stdout.splitlines()[0].strip()


def _private(info: os.stat_result, kind: Callable[[int], bool]) -> bool:
    """Owned by this user, of the expected file type, and writable by
    nobody else."""
    return (kind(info.st_mode) and info.st_uid == os.geteuid()
            and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def cache_dir() -> Path:
    """The private object cache, created on first use: ``repro-kernels``
    under ``$XDG_CACHE_HOME`` (default ``~/.cache``; a relative value is
    ignored, as the XDG spec says, rather than resolved against whatever
    the working directory is), else a per-uid directory under the system
    temp directory."""
    home = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(home):
        home = os.path.expanduser("~/.cache")
    candidates = [Path(home) / "repro-kernels",
                  Path(tempfile.gettempdir())
                  / f"repro-kernels-{os.geteuid()}"]
    for path in candidates:
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue                        # read-only or missing home
        if not _private(os.lstat(path), stat.S_ISDIR):
            raise Unavailable(
                f"cache directory {path} is not a directory owned by this "
                f"user that only they can write", loud=True)
        return path
    raise Unavailable(f"no writable cache directory among "
                      f"{', '.join(map(str, candidates))}", loud=True)


@lru_cache(maxsize=None)
def translator() -> str:
    """Digest of what turns a rendering into C: the translator's own
    source, the kinds it is given and the interpreter (its ``ast``) minor
    version.  Computed on the first load, never at import; the
    translator's source is read, not imported — only a miss translates."""
    cgen = Path(__file__).with_name("cgen.py")
    text = "\0".join((cgen.read_text(encoding="utf-8"),
                      json.dumps(transitions.C_KINDS, sort_keys=True),
                      "%d.%d" % sys.version_info[:2]))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def object_name(source: str, label: str, translator: str, version: str,
                flags=FLAGS) -> str:
    """First half of an object's file name: the SHA-256 of everything
    that decides its bytes — the rendering's Python ``source`` and its
    ``label`` (:func:`repro.cache.transitions.source_name`), the
    :func:`translator` digest, the compiler's version line and the flags.
    The second half is a digest of the bytes themselves (:func:`_build`),
    checked before the file is mapped."""
    text = "\0".join((source, label, translator, version, " ".join(flags)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _build(cc: str, source: str, directory: Path, name: str) -> Path:
    """Compile ``source`` into ``directory`` as ``name-<digest>.so``."""
    handle, scratch = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(handle)
    try:
        try:
            done = subprocess.run(
                [cc, *FLAGS, "-x", "c", "-", "-o", scratch], input=source,
                capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.SubprocessError) as exc:
            raise Unavailable(f"{cc} did not run: {exc}", loud=True)
        if done.returncode:
            raise Unavailable(f"{cc} exited {done.returncode}: "
                              f"{done.stderr.strip()[-400:]}", loud=True)
        os.chmod(scratch, 0o700)            # whatever the umask says
        target = directory / f"{name}-{_digest(Path(scratch))}.so"
        os.replace(scratch, target)
        return target
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _open(path: Path, source: str, label: str) -> Optional[Loaded]:
    """The kernel object at ``path`` — or None, and the file removed,
    unless it is this user's own regular file, its bytes match the digest
    in its name (mapping a truncated object can kill the process), it
    exports ``run`` and it carries a well-formed member table."""
    try:
        if (_private(os.lstat(path), stat.S_ISREG)
                and path.stem.rpartition("-")[2] == _digest(path)):
            return _loaded(ctypes.CDLL(str(path)), source, label)
    except (OSError, AttributeError, ValueError, KeyError, TypeError):
        pass                                # damaged, foreign, bad table
    try:
        os.unlink(path)
    except OSError:
        pass
    return None


# ----------------------------------------------------------------------
# The member table an object carries
# ----------------------------------------------------------------------
#: The string constant every object exports: its kernel's member table
#: as JSON.
TABLE = "repro_members"


def table_constant(kernel) -> str:
    """``kernel``'s member table — ``members``, ``params``, ``stored`` —
    as the C definition of :data:`TABLE`, appended to its translation
    unit."""
    text = json.dumps({"members": kernel.members, "params": kernel.params,
                       "stored": sorted(kernel.stored)})
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'\nconst char {TABLE}[] = "{text}";\n'


def _read_table(library: ctypes.CDLL):
    """``(members, params, stored)`` of the table ``library``
    exports: parsed as JSON and checked as data, never executed.  A
    missing or malformed table raises :class:`ValueError` (a missing
    symbol, bad JSON, a failed check), :class:`KeyError` or
    :class:`TypeError`."""
    table = json.loads(ctypes.string_at(ctypes.addressof(
        ctypes.c_char.in_dll(library, TABLE))))
    members = tuple(map(tuple, table["members"]))
    params, stored = tuple(table["params"]), frozenset(table["stored"])
    strings = [*params, *stored, *(text for entry in members
                                   for text in entry)]
    names = [*params, *(entry[0] for entry in members)]
    if (sorted(table) != ["members", "params", "stored"]
            or any(len(entry) != 3 for entry in members)
            or not all(isinstance(text, str) for text in strings)
            or not all(name.isidentifier() and not keyword.iskeyword(name)
                       for name in names)):
        raise ValueError(f"malformed member table {TABLE}")
    return members, params, stored


# ----------------------------------------------------------------------
# One loaded kernel per rendering and key
# ----------------------------------------------------------------------
class Loaded(NamedTuple):
    """A kernel ready to run."""

    #: The kernel's own parameters, in order.
    params: Tuple[str, ...]
    #: Arrays the kernel writes.
    stored: frozenset
    run: Callable                       # void run(Args *)
    args: type                          # the ctypes mirror of Args
    bindings: Callable                  # build(owner, ...) -> {name: obj}
    #: ``(name, C type, kind)`` of every member the bind or a call sets,
    #: in member order — all but the lengths (set along with their
    #: column) and the returns, which trail the block.
    fields: Tuple[Tuple[str, str, str], ...]
    #: The returned values' members, in order.
    returns: Tuple[str, ...]


def _args_type(members) -> type:
    """The ctypes mirror of ``Args``; :class:`KeyError` for a member of
    a C type no kernel has."""
    return type("Args", (ctypes.Structure,), {"_fields_": [
        (name, _C_FIELDS[ctype]) for name, ctype, _kind in members]})


#: Where a rendering's factory prologue ends: its kernel closure's ``def``.
_KERNEL_DEF = re.compile(r"^    def ", re.MULTILINE)


def _bindings(source: str, label: str, names) -> Callable:
    """The rendering's factory ``source`` cut at its kernel's ``def``:
    ``build(cache, channel, run)`` / ``build(atd)`` / ``build(l1)`` returns
    the objects the kernel's bound ``names`` (identifiers) stand for —
    the rendering's own bind fragments decide what the kernel operates
    on."""
    prologue = source[:_KERNEL_DEF.search(source).start()]
    returned = ", ".join(f"{name!r}: {name}" for name in names)
    namespace = {"__builtins__": {}}
    exec(compile(f"{prologue}    return {{{returned}}}\n", label, "exec"),
         namespace)
    return namespace["build"]


def _loaded(library: ctypes.CDLL, source: str, label: str) -> Loaded:
    """The kernel ``library`` holds, described by its own member table
    and bound through the rendering ``source``."""
    members, params, stored = _read_table(library)
    args = _args_type(members)
    library.run.argtypes = [ctypes.POINTER(args)]
    library.run.restype = None
    bound = [name for name, _ctype, kind in members
             if name not in params and kind not in ("length", "ret")]
    return Loaded(
        params, stored, library.run, args,
        _bindings(source, label, bound),
        fields=tuple(m for m in members if m[2] not in ("length", "ret")),
        returns=tuple(name for name, _ctype, kind in members
                      if kind == "ret"))


#: Held by a :func:`load` for all but its compiler run, so loads on
#: several threads build in parallel and do the rest one at a time:
#: CPython 3.11's ``ast.parse`` (rendering, translating) is not
#: thread-safe — two at once can raise ``SystemError``.
_LOADING = threading.Lock()


@lru_cache(maxsize=None)
def load(rendering, key) -> Tuple[Optional[Loaded], Dict[str, object]]:
    """``(kernel, info)`` of the compiled ``rendering`` of ``key``, built
    and loaded once per process; ``(None, {"reason": ...})`` where none
    can be (module docstring: *Failure*).  A cached object is found by
    the rendering alone: only a miss translates."""
    started = time.perf_counter()
    try:
        with _LOADING:
            cc, version = compiler()
            source = transitions.render(rendering, key)
            label = transitions.source_name(rendering, key)
            directory = cache_dir()
            name = object_name(source, label, translator(), version)
            loaded = None
            for path in sorted(directory.glob(f"{name}-*.so")):
                loaded = loaded or _open(path, source, label)
            if loaded is None:
                kernel = transitions.translate(rendering, key)
        info = {"cache": "hit" if loaded is not None else "built"}
        if loaded is None:
            path = _build(cc, kernel.source + table_constant(kernel),
                          directory, name)
            with _LOADING:
                loaded = _open(path, source, label)
            if loaded is None:
                raise Unavailable(f"{path} was built but does not load",
                                  loud=True)
        info["build_s"] = time.perf_counter() - started
    except Unavailable as exc:
        if exc.loud:
            # The same text for every key: the default filter shows it
            # once per process.
            warnings.warn(f"no compiled kernel, the classes run instead: "
                          f"{exc}", RuntimeWarning, stacklevel=2)
        return None, {"reason": str(exc)}
    return loaded, info


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _data(column: np.ndarray) -> int:
    """Address of a contiguous numpy array's first element.
    ``from_buffer`` costs a third of ``.ctypes.data`` — which matters for
    a kernel called once per L1 window — and refuses only read-only and
    empty arrays."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(column))
    except (TypeError, ValueError):
        return column.ctypes.data


def _share(name: str, ctype: str, value, written: bool,
           pins: List[memoryview]) -> int:
    """Address of an array C works on in place — an ``array`` of the C
    element type (pinned into ``pins``: resizing it raises
    :class:`BufferError` while the export is held) or a contiguous numpy
    column of it, writable if the kernel stores to it; 0 for None."""
    dtype, typecode = _ARRAYS[ctype]
    if value is None:
        return 0
    if isinstance(value, array.array) and value.typecode == typecode:
        pins.append(memoryview(value))
        return value.buffer_info()[0]
    if (isinstance(value, np.ndarray) and value.dtype is dtype
            and value.ndim == 1 and value.flags.c_contiguous
            and (value.flags.writeable or not written)):
        return _data(value)
    raise TypeError(f"{name}: a {type(value).__name__} where "
                    f"array({typecode!r}) or a contiguous {dtype} column "
                    f"C can share belongs")


#: Kinds C works on by address (a ``column``'s length follows it).
_ARRAY_KINDS = ("ints", "floats", "cores", "column")


class CompiledKernel:
    """The compiled kernel of one rendering and key bound to what its
    factory made of its owner (``bound``, :attr:`Loaded.bindings`: a
    cache, memory channel and run for ``loop``, an ATD for ``observe``,
    an L1 for ``prefilter``): called like the rendering's kernel closure.

    The bind fills the argument block with every member that is not a
    parameter and pins each owner ``array`` for the kernel's lifetime; a
    call writes its parameters into the same block and runs (module
    docstring, *State during a call*)."""

    def __init__(self, loaded: Loaded, bound: Dict[str, object]) -> None:
        self._loaded = loaded
        #: What the bound members stand for — held, so no address in the
        #: block outlives its array.
        self._bound = bound
        self._block = block = loaded.args()
        self._pointer = ctypes.byref(block)
        #: Buffer exports of the bound arrays, held while the kernel lives.
        self._pins: List[memoryview] = []
        params = loaded.params
        for name, ctype, kind in loaded.fields:
            if name in params:
                continue
            value = bound[name]
            if kind in _ARRAY_KINDS:
                setattr(block, name, _share(name, ctype, value,
                                            name in loaded.stored,
                                            self._pins))
            else:
                setattr(block, name, value)
        members = {name: (ctype, kind) for name, ctype, kind in loaded.fields}
        #: ``(name, C type, kind)`` per parameter.
        self._params = tuple((name, *members[name]) for name in params)

    def __call__(self, *arguments):
        loaded, block = self._loaded, self._block
        if len(arguments) != len(self._params):
            raise TypeError(f"{len(arguments)} arguments where "
                            f"{len(self._params)} belong")
        pins: List[memoryview] = []
        try:
            for (name, ctype, kind), value in zip(self._params, arguments):
                if kind in _ARRAY_KINDS:
                    setattr(block, name, _share(name, ctype, value,
                                                name in loaded.stored, pins))
                    if kind == "column":
                        setattr(block, f"{name}_n", len(value))
                else:
                    setattr(block, name, value)
            loaded.run(self._pointer)
        finally:
            for view in pins:
                view.release()
        return tuple(getattr(block, name) for name in loaded.returns)
