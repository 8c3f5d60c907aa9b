"""The compiled target of the ``loop``, ``observe`` and ``prefilter``
renderings: build, cache, load, run.

:func:`load` turns the C translation of one stock kernel — the event loop
of a ``(policy, scheme)`` pair, the ATD drain of a policy, the private
L1's window walk (:func:`repro.cache.transitions.translate`) — into a
loaded shared object, compiled with the host's ``cc`` on first use and
kept in a private per-user cache directory under a name that is the
SHA-256 of source + compiler version + flags (plus a digest of the
object itself);
:class:`CompiledKernel` is that object behind the Python kernel's exact
call signature.  Everything here is stdlib ``ctypes`` and one ``cc``
subprocess; nothing is downloaded.

Trust.  The process only ever ``dlopen``\\ s bytes it (or an earlier run
of the same user) compiled: the cache directory is created ``0700`` and
refused unless it is a real directory owned by this user that nobody
else can write; an object is refused unless it is a regular file with
the same properties whose bytes match the digest in its name (mapping a
truncated object can kill the process; a file that fails any check is
removed and rebuilt); objects are written under a temporary name and
``os.replace``\\ d, so two processes racing through a cold cache (the
normal case under a process pool) each install a complete file.

State during a call.  There is no resident C state.  An owner array
Python and C can share by address — a ``ctypes`` array, an
``array.array``, a contiguous numpy column of the C element type — is
handed over as it stands: the L1's slots and dirty flags and the
prefilter's output columns, so a window's call copies nothing.  The
other owner arrays, Python lists (an L2's tag / policy / scheme arrays
for ``loop``, an ATD's with its SDH registers and counters for
``observe``), are copied into C-typed buffers at entry and back — in
place, into the very lists and dict the Python kernels hold — at exit,
also when the call raises.  Between two calls the truth is always those
lists, so whatever mutates them in place (``SDH.halve``, ``ATD.reset``, a
repartition) is seen by the next call.  That copy is per *call*: a run of
the event loop pays it once, a drain once per batch of lines (~0.1 ms),
and a kernel called per access would pay it per access — which is why
every rendering is a batch kernel and a drain shorter than the directory
it would copy runs the Python target
(:class:`repro.cache.state.DrainKernel`).
Per-thread cursors are ``ctypes`` arrays the engine shell shares with
the loop (:meth:`CompiledKernel.ints` / :meth:`~CompiledKernel.floats`);
the miss-stream columns and a drain's batch are handed over by pointer.
The loop returns to Python through call-outs (``beyond``, ``freeze``,
``resume``): around each, the small arrays both sides touch (per-core
statistics, masks, quotas, BT force words) are published to the Python
lists before and re-read after, and a changed miss-stream column is
re-pointed.  An exception raised inside a call-out stops the C loop at
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
import ast
import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import time
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cache import cgen, transitions

__all__ = ["CompiledKernel", "FLAGS", "cache_dir", "compiler", "load",
           "object_name"]

#: Build flags.  No fast-math flag and no contraction: every double
#: operation is the IEEE one the Python target performs, in its order.
FLAGS = ("-O2", "-shared", "-fPIC", "-fwrapv", "-ffp-contract=off")

_C_SCALARS = {"i64": ctypes.c_int64, "double": ctypes.c_double}
_SCALARS = {"int": ctypes.c_int64, "float": ctypes.c_double}
#: C array type -> (numpy dtype, ctypes element, ``array`` typecode).
_ARRAYS = {"i64 *": (np.dtype(np.int64), ctypes.c_int64, "q"),
           "double *": (np.dtype(np.float64), ctypes.c_double, "d")}
_INT64 = _ARRAYS["i64 *"][0]


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
    under ``$XDG_CACHE_HOME`` (default ``~/.cache``), else a per-uid
    directory under the system temp directory."""
    home = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
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


def object_name(source: str, version: str, flags=FLAGS) -> str:
    """First half of an object's file name: the SHA-256 of everything
    that decides its bytes.  The second half is a digest of the bytes
    themselves (:func:`_build`), checked before the file is mapped."""
    text = "\0".join((source, version, " ".join(flags)))
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


def _open(path: Path) -> Optional[ctypes.CDLL]:
    """The kernel object at ``path`` — or None, and the file removed,
    unless it is this user's own regular file, its bytes match the digest
    in its name (mapping a truncated object can kill the process) and it
    exports ``run``."""
    try:
        if (_private(os.lstat(path), stat.S_ISREG)
                and path.stem.rpartition("-")[2] == _digest(path)):
            library = ctypes.CDLL(str(path))
            library.run                     # noqa: B018 — symbol check
            return library
    except (OSError, AttributeError):
        pass
    try:
        os.unlink(path)
    except OSError:
        pass
    return None


# ----------------------------------------------------------------------
# One loaded kernel per rendering and key
# ----------------------------------------------------------------------
class Loaded(NamedTuple):
    """A kernel ready to run."""

    kernel: object                      # repro.cache.cgen.Kernel
    run: Callable                       # i64 run(Args *)
    args: type                          # the ctypes mirror of Args
    callouts: Dict[str, type]           # call-out name -> CFUNCTYPE
    bindings: Callable                  # build(owner, ...) -> {name: obj}
    #: The members by how a call marshals them (:func:`_groups`).
    groups: Dict[str, Tuple[Tuple[str, str, str], ...]]


#: Marshalling group of each member kind (prefixed kinds by their prefix;
#: ``error`` and ``length`` members are set along with another).
_GROUPS = {"int": "scalar", "float": "scalar", "ints": "array",
           "floats": "array", "column": "column", "shared": "shared",
           "cores": "shared", "heap": "heap", "rows": "rows", "ret": "ret",
           "lists": "lists", "callout": "callout"}


def _groups(kernel) -> Dict[str, Tuple[Tuple[str, str, str], ...]]:
    """``kernel.members`` by marshalling group, each in member order, plus
    ``stored``: the members the kernel writes; and ``flat``: for a kernel
    of scalars, arrays and columns only, every member but the returns
    (the argument block's leading fields, :func:`_shared_call`)."""
    groups: Dict[str, list] = {group: [] for group in _GROUPS.values()}
    groups["stored"] = []
    for member in kernel.members:
        name, _ctype, kind = member
        group = _GROUPS.get(kind.partition(":")[0])
        if group is not None:
            groups[group].append(member)
        if name in kernel.stored:
            groups["stored"].append(member)
    flat = not kernel.tags and not any(
        groups[group] for group in ("heap", "callout", "shared", "lists",
                                    "rows"))
    groups["flat"] = [member for member in kernel.members
                      if flat and member[2] != "ret"]
    return {group: tuple(members) for group, members in groups.items()}


def _args_type(kernel) -> Tuple[type, Dict[str, type]]:
    fields, callouts = [], {}
    for name, ctype, kind in kernel.members:
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


def _bindings(rendering, key, kernel) -> Callable:
    """The Python factory of the rendering with its kernel cut out:
    ``build(cache, channel)`` / ``build(atd)`` returns the objects the
    kernel's bound names stand for — the Python target's own bind
    fragments decide what the compiled one operates on."""
    name = transitions.source_name(rendering, key)
    tree = ast.parse(transitions.render(rendering, key))
    factory = tree.body[0]
    names = [member for member, _ctype, kind in kernel.members
             if member not in kernel.params
             and kind not in ("error", "length", "ret")]
    names += [dict_name for dict_name, _lines, _assoc in kernel.tags]
    factory.body = [node for node in factory.body
                    if not isinstance(node, (ast.FunctionDef, ast.Return))]
    factory.body.append(ast.Return(ast.Dict(
        keys=[ast.Constant(n) for n in names],
        values=[ast.Name(n, ast.Load()) for n in names])))
    namespace = {"__builtins__": {}}
    exec(compile(ast.fix_missing_locations(tree), name, "exec"), namespace)
    return namespace["build"]


@lru_cache(maxsize=None)
def load(rendering, key) -> Tuple[Optional[Loaded], Dict[str, object]]:
    """``(kernel, info)`` of the compiled ``rendering`` of ``key``, built
    and loaded once per process; ``(None, {"reason": ...})`` where the
    Python target must run (module docstring: *Failure*)."""
    started = time.perf_counter()
    try:
        cc, version = compiler()
        kernel = transitions.translate(rendering, key)
        directory = cache_dir()
        name = object_name(kernel.source, version)
        library = None
        for path in sorted(directory.glob(f"{name}-*.so")):
            library = library or _open(path)
        info = {"cache": "hit" if library is not None else "built"}
        if library is None:
            path = _build(cc, kernel.source, directory, name)
            library = _open(path)
            if library is None:
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
    args, callouts = _args_type(kernel)
    library.run.argtypes = [ctypes.POINTER(args)]
    library.run.restype = ctypes.c_int64
    return Loaded(kernel, library.run, args, callouts,
                  _bindings(rendering, key, kernel), _groups(kernel)), info


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _address(name: str, ctype: str, value) -> Optional[int]:
    """Address of a buffer Python and C may share (a ``ctypes`` array,
    an ``array.array``, a contiguous numpy column of the C element type),
    0 for None, None for anything to be copied."""
    dtype, element, typecode = _ARRAYS[ctype]
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        if _flat(value, dtype) and value.flags.writeable:
            return _data(value)
        return None
    if isinstance(value, array.array):
        if value.typecode != typecode:
            raise TypeError(f"{name}: array of typecode {value.typecode!r}")
        return value.buffer_info()[0]
    if isinstance(value, ctypes.Array):
        if value._type_ is not element:
            raise TypeError(f"{name}: ctypes array of {value._type_}")
        return ctypes.addressof(value)
    return None


def _flat(column: np.ndarray, dtype: np.dtype) -> bool:
    """One contiguous run of native ``dtype`` elements."""
    return (column.dtype is dtype and column.ndim == 1
            and column.flags.c_contiguous)


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
    """Address of an ``int64`` column C may read as it stands."""
    if not (isinstance(column, np.ndarray) and _flat(column, _INT64)):
        raise TypeError(f"{name}: not a contiguous int64 column")
    return _data(column)


class CompiledKernel:
    """The compiled kernel of one rendering and key bound to its owner (a
    cache and memory channel for ``loop``, an ATD for ``observe``, an L1
    for ``prefilter``): called exactly like the Python target's
    kernel."""

    def __init__(self, loaded: Loaded, owner, *args) -> None:
        self._loaded = loaded
        self._bound = loaded.bindings(owner, *args)

    @staticmethod
    def ints(values) -> ctypes.Array:
        """Per-thread integers the shell and the loop share."""
        return (ctypes.c_int64 * len(values))(*values)

    @staticmethod
    def floats(values) -> ctypes.Array:
        """Per-thread floats the shell and the loop share."""
        return (ctypes.c_double * len(values))(*values)

    def __call__(self, *arguments):
        loaded = self._loaded
        values = dict(self._bound)
        values.update(zip(loaded.kernel.params, arguments, strict=True))
        if loaded.groups["flat"]:
            result = _shared_call(loaded, values)
            if result is not None:
                return result
        return _Run(loaded, values).execute()


def _shared_call(loaded: Loaded, values: Dict[str, object]
                 ) -> Optional[tuple]:
    """One call of a flat kernel whose every array Python and C share by
    address: the argument block built in one go, nothing copied either
    way — the L1 prefilter's path, called once per trace window.  None
    when an array would have to be copied (:class:`_Run` then takes the
    call)."""
    fields: list = []
    for name, ctype, kind in loaded.groups["flat"]:
        if kind in ("int", "float"):
            fields.append(values[name])
        elif kind in ("ints", "floats"):
            address = _address(name, ctype, values[name])
            if address is None:
                return None
            fields.append(address)
        elif kind == "column":
            column = values[name]
            fields += (_column_address(name, column), len(column))
        elif kind == "error":
            fields.append(0)
    args = loaded.args(*fields)
    loaded.run(ctypes.byref(args))
    return tuple(getattr(args, name)
                 for name, _ctype, _kind in loaded.groups["ret"])


class _Run:
    """One call: marshal in, run, marshal out."""

    def __init__(self, loaded: Loaded, values: Dict[str, object]) -> None:
        self.loaded = loaded
        self.values = values
        self.args = loaded.args()
        self.error: Optional[BaseException] = None
        self.threads = 0
        #: name -> numpy buffer C works on (kept alive here).
        self.buffers: Dict[str, np.ndarray] = {}
        #: (name, C type) of the arrays synced around every call-out.
        self.shared: List[Tuple[str, str, str]] = []
        #: name -> (pointer table, columns it currently points at).
        self.rows: Dict[str, Tuple[ctypes.Array, list]] = {}
        self.keep: list = []

    # -- entry ----------------------------------------------------------
    def marshal(self) -> None:
        values, args = self.values, self.args
        groups = self.loaded.groups
        # One clock per thread: the popped thread's slot plus the heap's
        # (a kernel without a heap has no per-thread member).
        self.threads = sum(1 + len(values[name])
                           for name, _ctype, _kind in groups["heap"])
        for name, _ctype, _kind in groups["scalar"]:
            setattr(args, name, values[name])
        for name, ctype, kind in groups["array"]:
            address = _address(name, ctype, values[name])
            if address is None:
                self.copy_in(name, ctype, kind)
            else:
                setattr(args, name, address)
        for name, _ctype, _kind in groups["column"]:
            setattr(args, name, _column_address(name, values[name]))
            setattr(args, name + "_n", len(values[name]))
        for name, _ctype, _kind in groups["heap"]:
            clocks = (ctypes.c_double * self.threads)()
            for clock, thread in values[name]:
                clocks[thread] = clock
            self.keep.append(clocks)
            setattr(args, name, ctypes.addressof(clocks))
            setattr(args, name + "_n", self.threads)
        for name, _ctype, _kind in groups["callout"]:
            callback = self.loaded.callouts[name](self.callout(values[name]))
            self.keep.append(callback)
            setattr(args, name, callback)
        for member in groups["shared"]:
            self.shared.append(member)
            self.copy_in(*member)
        for name, _ctype, kind in groups["lists"]:
            self.lists_in(name, values[kind[6:]])
        for name, _ctype, _kind in groups["rows"]:
            if len(values[name]) != self.threads:
                raise ValueError(f"{name}: {len(values[name])} columns "
                                 f"for {self.threads} threads")
            table = (ctypes.c_void_p * self.threads)()
            self.rows[name] = (table, [None] * self.threads)
            setattr(args, name, ctypes.addressof(table))
        self.repoint()

    def copy_in(self, name: str, ctype: str, kind: str) -> None:
        value = self.values[name]
        buffer = np.array(value, dtype=_ARRAYS[ctype][0])
        if buffer.ndim != 1:
            raise TypeError(f"{name}: not a flat list of numbers")
        if kind == "cores" and len(buffer) < self.threads:
            raise ValueError(f"{name}: {len(buffer)} slots for "
                             f"{self.threads} threads")
        self.buffers[name] = buffer
        setattr(self.args, name, buffer.ctypes.data)

    def lists_in(self, name: str, capacity: int) -> None:
        """Bounded lists as one ``capacity``-slot segment each, plus the
        lengths."""
        lists = self.values[name]
        lengths = list(map(len, lists))
        if lengths and max(lengths) > capacity:
            raise ValueError(f"{name}: a list longer than its bound "
                             f"{capacity}")
        padding = [0] * capacity
        flat: List[int] = []
        for items, length in zip(lists, lengths):
            flat += items
            flat += padding[length:]
        items = self.buffers[name] = np.array(flat, dtype=np.int64)
        lengths = self.buffers[name + "_n"] = np.array(lengths,
                                                       dtype=np.int64)
        setattr(self.args, name, items.ctypes.data)
        setattr(self.args, name + "_n", lengths.ctypes.data)

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
            self.publish()
            try:
                result = function(*arguments)
                self.reread()
            except BaseException as exc:    # re-raised by execute()
                self.error = exc
                self.args.error = 1
                return 0
            return result

        return call

    def publish(self) -> None:
        """C -> Python, the shared arrays the kernel writes."""
        stored = self.loaded.kernel.stored
        for name, _ctype, _kind in self.shared:
            if name in stored:
                self.values[name][:] = self.buffers[name].tolist()

    def reread(self) -> None:
        """Python -> C: shared arrays (they may have been replaced or
        grown) and the miss-stream columns."""
        for name, ctype, kind in self.shared:
            self.copy_in(name, ctype, kind)
        self.repoint()

    # -- exit -----------------------------------------------------------
    def unmarshal(self) -> None:
        values, buffers = self.values, self.buffers
        kernel = self.loaded.kernel
        for name, _ctype, kind in self.loaded.groups["stored"]:
            if name not in buffers:
                continue
            if kind.startswith("lists:"):
                capacity = values[kind[6:]]
                flat = buffers[name].tolist()
                lengths = buffers[name + "_n"].tolist()
                for start, (items, length) in zip(
                        range(0, len(flat), capacity),
                        zip(values[name], lengths)):
                    items[:] = flat[start:start + length]
            else:
                values[name][:] = buffers[name].tolist()
        for tags, lines, assoc in kernel.tags:
            if lines in kernel.stored and lines in buffers:
                valid = np.flatnonzero(buffers[lines] >= 0)
                values[tags].clear()
                values[tags].update(zip(
                    buffers[lines][valid].tolist(),
                    (valid % values[assoc]).tolist()))

    def execute(self) -> tuple:
        self.marshal()
        try:
            self.loaded.run(ctypes.byref(self.args))
        finally:
            self.unmarshal()
        result = tuple(getattr(self.args, name)
                       for name, _ctype, _kind in self.loaded.groups["ret"])
        # The call-out thunks (held by the block) point back at this
        # object: drop them so the buffers go with the call, not with the
        # next GC pass.
        self.args = None
        self.keep.clear()
        if self.error is not None:
            raise self.error
        return result
