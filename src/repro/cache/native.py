"""The compiled target of the ``loop``, ``observe`` and ``prefilter``
renderings: build, cache, load, run.

:func:`load` turns the C translation of one stock kernel — the event loop
of a ``(policy, scheme)`` pair, the ATD drain of a policy, the private
L1's window walk (:func:`repro.cache.transitions.translate`) — into a
loaded shared object, compiled with the host's ``cc`` on first use and
kept in a private per-user cache directory;
:class:`CompiledKernel` is that object behind the Python kernel's exact
call signature.  Everything here is stdlib ``ctypes`` and one ``cc``
subprocess; nothing is downloaded.

Naming.  An object is named by what goes *into* the translator, not by
what comes out: the SHA-256 of the rendering's Python source
(:func:`repro.cache.transitions.render`, the text the Python target
runs) and its source name, the :func:`translator` digest (the
translator's own source, :data:`repro.cache.transitions.C_KINDS`, the
interpreter's minor version), the compiler's version line and
:data:`FLAGS` — followed by a digest of the object's own bytes.  A miss
translates and appends the kernel's member table (``members``,
``params``, ``stored``, ``tags``) to the C source as one string constant,
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
(the normal case under a process pool) each install a complete file.

State during a call.  There is no resident C state and no copy of an
array: every flat array a kernel binds is an ``array('q')`` /
``array('d')`` its owner allocated once and only ever mutates in place
(a tag store's lines and masks, policy and scheme words — LRU's
recency order included — statistics, SDH registers, the engine's
per-thread cursors), or a contiguous numpy
column of the C element type (the prefilter's window and output
columns, the miss stream, a drain's batch, which may also be an
``array('q')``).  Each is handed to C by address and pinned — a buffer
export held — for the length of the call, so whatever Python does in a
call-out sees and is seen by C at once, and a resize there raises
:class:`BufferError` instead of leaving C a dangling pointer.  Anything
else where an array belongs is a :class:`TypeError` before the kernel
runs.  One thing is still copied: a tag dict (``tags:``), rebuilt from
its tag lines after a call that wrote them.  The loop returns to Python
through call-outs (``beyond``, ``freeze``, ``resume``); after each, a
miss-stream column the shell replaced is re-pointed.  An exception raised inside a call-out stops the C loop at
that statement and is re-raised from :meth:`CompiledKernel.__call__`.

Failure.  No ``cc`` on ``PATH``, a 32-bit host: :func:`load` returns
``None`` with the reason and the caller runs the Python target, silently
— that host is simply slower.  A ``cc`` that is present but fails, an
unusable cache directory, an object that will not load: the same
fall-back plus one :class:`RuntimeWarning`, because that host can be
fixed.
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
import time
import warnings
from functools import lru_cache
from itertools import cycle
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cache import cgen, transitions

__all__ = ["CompiledKernel", "FLAGS", "TABLE", "cache_dir", "compiler",
           "load", "object_name", "translator"]

#: Build flags.  No fast-math flag and no contraction: every double
#: operation is the IEEE one the Python target performs, in its order.
FLAGS = ("-O2", "-shared", "-fPIC", "-fwrapv", "-ffp-contract=off")

_C_SCALARS = {"i64": ctypes.c_int64, "double": ctypes.c_double}
_SCALARS = {"int": ctypes.c_int64, "float": ctypes.c_double}
#: C array type -> (numpy dtype, ``array`` typecode).
_ARRAYS = {"i64 *": (np.dtype(np.int64), "q"),
           "double *": (np.dtype(np.float64), "d")}


class Unavailable(Exception):
    """The compiled target cannot be used here; ``loud`` when the host
    has a compiler and the cause can be fixed."""

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
    version.  Computed on the first load, never at import."""
    text = "\0".join((Path(cgen.__file__).read_text(encoding="utf-8"),
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
    """``kernel``'s member table — ``members``, ``params``, ``stored``,
    ``tags`` — as the C definition of :data:`TABLE`, appended to its
    translation unit."""
    text = json.dumps({"members": kernel.members, "params": kernel.params,
                       "stored": sorted(kernel.stored), "tags": kernel.tags})
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'\nconst char {TABLE}[] = "{text}";\n'


def _read_table(library: ctypes.CDLL):
    """``(members, params, stored, tags)`` of the table ``library``
    exports: parsed as JSON and checked as data, never executed.  A
    missing or malformed table raises :class:`ValueError` (a missing
    symbol, bad JSON, a failed check), :class:`KeyError` or
    :class:`TypeError`."""
    table = json.loads(ctypes.string_at(ctypes.addressof(
        ctypes.c_char.in_dll(library, TABLE))))
    members, tags = (tuple(map(tuple, table[part]))
                     for part in ("members", "tags"))
    params, stored = tuple(table["params"]), frozenset(table["stored"])
    strings = [*params, *stored,
               *(text for entry in members + tags for text in entry)]
    names = [*params, *(entry[0] for entry in members + tags)]
    if (sorted(table) != ["members", "params", "stored", "tags"]
            or any(len(entry) != 3 for entry in members + tags)
            or not all(isinstance(text, str) for text in strings)
            or not all(name.isidentifier() and not keyword.iskeyword(name)
                       for name in names)):
        raise ValueError(f"malformed member table {TABLE}")
    return members, params, stored, tags


# ----------------------------------------------------------------------
# One loaded kernel per rendering and key
# ----------------------------------------------------------------------
class Loaded(NamedTuple):
    """A kernel ready to run."""

    #: The kernel's own parameters, in order.
    params: Tuple[str, ...]
    #: Arrays the kernel writes.
    stored: frozenset
    run: Callable                       # i64 run(Args *)
    args: type                          # the ctypes mirror of Args
    callouts: Dict[str, type]           # call-out name -> CFUNCTYPE
    bindings: Callable                  # build(owner, ...) -> {name: obj}
    #: ``(name, C type, kind)`` of every member a call sets, in member
    #: order — all but the lengths (set along with their array) and the
    #: returns, which trail the block (:meth:`_Run.fields`).
    fields: Tuple[Tuple[str, str, str], ...]
    #: The returned values' members, in order.
    returns: Tuple[str, ...]
    #: ``(dict, LINES, ASSOC)`` of each tag dict whose ``LINES`` the
    #: kernel writes: rebuilt after the call.
    tags: Tuple[Tuple[str, str, str], ...]


def _args_type(members) -> Tuple[type, Dict[str, type]]:
    fields, callouts = [], {}
    for name, ctype, kind in members:
        if ctype in _C_SCALARS:
            fields.append((name, _C_SCALARS[ctype]))
        elif kind.startswith("callout:"):
            ret, params = cgen.callout_signature(kind)
            callouts[name] = ctypes.CFUNCTYPE(
                _SCALARS[ret], *(_SCALARS[param] for param in params))
            fields.append((name, callouts[name]))
        else:
            fields.append((name, ctypes.c_void_p))
    return type("Args", (ctypes.Structure,), {"_fields_": fields}), callouts


#: Where a rendering's factory prologue ends: its kernel closure's ``def``.
_KERNEL_DEF = re.compile(r"^    def ", re.MULTILINE)


def _bindings(source: str, label: str, names) -> Callable:
    """The rendering's factory ``source`` cut at its kernel's ``def``:
    ``build(cache, channel)`` / ``build(atd)`` / ``build(l1)`` returns
    the objects the kernel's bound ``names`` (identifiers) stand for —
    the Python target's own bind fragments decide what the compiled one
    operates on."""
    prologue = source[:_KERNEL_DEF.search(source).start()]
    returned = ", ".join(f"{name!r}: {name}" for name in names)
    namespace = {"__builtins__": {}}
    exec(compile(f"{prologue}    return {{{returned}}}\n", label, "exec"),
         namespace)
    return namespace["build"]


def _loaded(library: ctypes.CDLL, source: str, label: str) -> Loaded:
    """The kernel ``library`` holds, described by its own member table
    and bound through the rendering ``source``."""
    members, params, stored, tags = _read_table(library)
    args, callouts = _args_type(members)
    library.run.argtypes = [ctypes.POINTER(args)]
    library.run.restype = ctypes.c_int64
    bound = [name for name, _ctype, kind in members
             if name not in params and kind not in ("error", "length", "ret")]
    return Loaded(
        params, stored, library.run, args, callouts,
        _bindings(source, label,
                  bound + [dict_name for dict_name, _lines, _assoc in tags]),
        fields=tuple(m for m in members if m[2] not in ("length", "ret")),
        returns=tuple(name for name, _ctype, kind in members
                      if kind == "ret"),
        tags=tuple(entry for entry in tags if entry[1] in stored))


@lru_cache(maxsize=None)
def load(rendering, key) -> Tuple[Optional[Loaded], Dict[str, object]]:
    """``(kernel, info)`` of the compiled ``rendering`` of ``key``, built
    and loaded once per process; ``(None, {"reason": ...})`` where the
    Python target must run (module docstring: *Failure*).  A cached
    object is found by the rendering alone: only a miss translates."""
    started = time.perf_counter()
    try:
        cc, version = compiler()
        source = transitions.render(rendering, key)
        label = transitions.source_name(rendering, key)
        directory = cache_dir()
        name = object_name(source, label, translator(), version)
        loaded = None
        for path in sorted(directory.glob(f"{name}-*.so")):
            loaded = loaded or _open(path, source, label)
        info = {"cache": "hit" if loaded is not None else "built"}
        if loaded is None:
            kernel = transitions.translate(rendering, key)
            path = _build(cc, kernel.source + table_constant(kernel),
                          directory, name)
            loaded = _open(path, source, label)
            if loaded is None:
                raise Unavailable(f"{path} was built but does not load",
                                  loud=True)
        info["build_s"] = time.perf_counter() - started
    except Unavailable as exc:
        if exc.loud:
            # The same text for every key: the default filter shows it
            # once per process.
            warnings.warn(f"compiled target unavailable, running the "
                          f"Python target: {exc}", RuntimeWarning,
                          stacklevel=2)
        return None, {"reason": str(exc)}
    return loaded, info


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
_INT64 = _ARRAYS["i64 *"][0]


def _data(column: np.ndarray) -> int:
    """Address of a contiguous numpy array's first element.
    ``from_buffer`` costs a third of ``.ctypes.data`` — which matters for
    a kernel called once per L1 window — and refuses only read-only and
    empty arrays."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(column))
    except (TypeError, ValueError):
        return column.ctypes.data


def _column_address(name: str, column) -> int:
    """Address of an ``int64`` column C reads as it stands: an
    ``array('q')`` or a contiguous numpy column."""
    if isinstance(column, array.array) and column.typecode == "q":
        return column.buffer_info()[0]
    if (isinstance(column, np.ndarray) and column.dtype is _INT64
            and column.ndim == 1 and column.flags.c_contiguous):
        return _data(column)
    raise TypeError(f"{name}: not a contiguous int64 column")


class CompiledKernel:
    """The compiled kernel of one rendering and key bound to its owner (a
    cache and memory channel for ``loop``, an ATD for ``observe``, an L1
    for ``prefilter``): called exactly like the Python target's
    kernel."""

    def __init__(self, loaded: Loaded, owner, *args) -> None:
        self._loaded = loaded
        self._bound = loaded.bindings(owner, *args)

    def __call__(self, *arguments):
        values = dict(self._bound)
        values.update(zip(self._loaded.params, arguments, strict=True))
        return _Run(self._loaded, values).execute()


class _Run:
    """One call: share the arrays, run, rebuild the tag dicts."""

    def __init__(self, loaded: Loaded, values: Dict[str, object]) -> None:
        self.loaded = loaded
        self.values = values
        self.args = None
        self.error: Optional[BaseException] = None
        #: Buffer exports that keep the shared arrays in place.
        self.pins: List[memoryview] = []
        #: name -> (pointer table, columns it currently points at).
        self.rows: Dict[str, Tuple[ctypes.Array, list]] = {}
        self.keep: list = []

    # -- entry ----------------------------------------------------------
    def fields(self) -> list:
        """The argument block's values, in member order."""
        loaded, values = self.loaded, self.values
        stored = loaded.stored
        # One clock per thread: the popped thread's slot plus the heap's
        # (a kernel without a heap has no per-thread member).
        threads = sum(1 + len(values[name])
                      for name, _ctype, kind in loaded.fields
                      if kind == "heap")
        out: list = []
        for name, ctype, kind in loaded.fields:
            value = values.get(name)
            if kind in ("ints", "floats", "cores"):
                if kind == "cores" and len(value) < threads:
                    raise ValueError(f"{name}: {len(value)} slots for "
                                     f"{threads} threads")
                out.append(self.share(name, ctype, value, name in stored))
            elif kind in ("int", "float"):
                out.append(value)
            elif kind == "column":
                out += (_column_address(name, value), len(value))
                self.pins.append(memoryview(value))
            elif kind == "rows":
                if len(value) != threads:
                    raise ValueError(f"{name}: {len(value)} columns for "
                                     f"{threads} threads")
                table = (ctypes.c_void_p * threads)()
                self.rows[name] = (table, [None] * threads)
                out.append(ctypes.addressof(table))
            elif kind == "heap":
                clocks = (ctypes.c_double * threads)()
                for clock, thread in value:
                    clocks[thread] = clock
                self.keep.append(clocks)
                out += (ctypes.addressof(clocks), threads)
            elif kind == "error":
                out.append(0)
            else:                               # callout:
                callback = loaded.callouts[name](self.callout(value))
                self.keep.append(callback)
                out.append(callback)
        return out

    def share(self, name: str, ctype: str, value, written: bool) -> int:
        """Address of an owner array C works on in place — an ``array``
        of the C element type (pinned for the call: resizing it raises
        :class:`BufferError` until the call returns) or a contiguous numpy
        column of it, writable if the kernel stores to it; 0 for None."""
        dtype, typecode = _ARRAYS[ctype]
        if value is None:
            return 0
        if isinstance(value, array.array) and value.typecode == typecode:
            self.pins.append(memoryview(value))
            return value.buffer_info()[0]
        if (isinstance(value, np.ndarray) and value.dtype is dtype
                and value.ndim == 1 and value.flags.c_contiguous
                and (value.flags.writeable or not written)):
            return _data(value)
        raise TypeError(f"{name}: a {type(value).__name__} where "
                        f"array({typecode!r}) or a contiguous {dtype} column "
                        f"C can share belongs")

    def repoint(self) -> None:
        """Point each row at the column the shell currently holds."""
        for name, (table, seen) in self.rows.items():
            for thread, column in enumerate(self.values[name]):
                if column is not seen[thread]:
                    table[thread] = _column_address(f"{name}[{thread}]",
                                                    column)
                    seen[thread] = column       # keeps it alive

    # -- call-outs ------------------------------------------------------
    def callout(self, function: Callable) -> Callable:
        def call(*arguments):
            if self.error is not None:
                return 0
            try:
                result = function(*arguments)
                self.repoint()
            except BaseException as exc:    # re-raised by execute()
                self.error = exc
                self.args.error = 1
                return 0
            return result

        return call

    # -- exit -----------------------------------------------------------
    def rebuild_tags(self) -> None:
        """Each tag dict rebuilt from its lines (every valid entry mapped
        to its way: a line is ``-1`` exactly when its way is invalid) —
        the one thing a call does not share."""
        values = self.values
        for tags, lines, assoc in self.loaded.tags:
            table = values[tags]
            table.clear()
            table.update(zip(values[lines], cycle(range(values[assoc]))))
            table.pop(-1, None)

    def execute(self) -> tuple:
        loaded = self.loaded
        try:
            args = self.args = loaded.args(*self.fields())
            self.repoint()
            try:
                loaded.run(ctypes.byref(args))
            finally:
                self.rebuild_tags()
            result = tuple(getattr(args, name) for name in loaded.returns)
        finally:
            for view in self.pins:
                view.release()
            # The call-out thunks point back at this object: drop them so
            # the buffers go with the call, not with the next GC pass.
            self.args = None
            self.keep.clear()
        if self.error is not None:
            raise self.error
        return result
