"""One transition spec per paper policy, rendered into every hot kernel.

The paper's replacement decisions are a handful of bit operations — a
used-bit OR with a reset confined to the core's mask (§III-A), a tree-bit
update with ``up``/``down`` vectors forcing a prefix of levels (§III-B) —
small per-set automata in the sense of arXiv:1811.01740.  This module
declares each **once**, as source fragments over the flat ``PolicyState``
/ ``TagStore`` arrays, and composes three kernels from the same text:

* ``hit`` — ``access_line_hit(line, core=0)``, one call per L2 access;
* ``observe`` — ``observe_many(batch)``, one call per ATD drain;
* ``loop`` — the event loop of ``BatchedEngine.run``, one call per run,
  whatever the number of threads.

``observe`` and ``loop`` — the two that are called per *batch* of
accesses — have a second target, C translated from the same source
(:func:`translate`, :data:`C_KINDS`, :func:`bind`).

:data:`POLICIES` holds, per kernel kind, *locate* / *promote* on a hit,
*fill an invalid way*, *choose a victim under a mask* (for LRU including
its rotation to MRU), *promote on fill*, and the stock profiler's *SDH
read* of the pre-access state; :data:`SCHEMES` holds, per enforcement
scheme, the *candidate mask*, the NRU *reset domain* and the *on-fill*
bookkeeping (``none`` is simply the scheme whose mask and domain are
``full_mask``); :data:`TEMPLATES` holds the three kernel skeletons, the
miss path they share, and the two access blocks of the event loop: the
*fused* one inlines the L2 transition, the *call* one (key ``None``)
goes through ``l2.access_line_hit`` / ``access_line_rw`` and an
immediate observer — the form every kernel-less policy, write trace,
custom observer and non-stock scheme gets.  Who gets which is decided by
the callers from what they can observe
(:func:`repro.cache.state.kernel_key`), never by an option.

A line holding only ``$slot`` is replaced by that fragment at the line's
indentation (recursively); ``$line``, ``$core`` and ``$set`` are the
access's line address, core and set index in the rendering at hand.
Rendering is checked — an unknown slot or placeholder raises, no
policy / scheme fragment may store to a local its skeleton keeps for
itself (:data:`PRIVATE_LOCALS`), the closure may load no global and no
attribute beyond :data:`PURE_ATTRS`, none of its locals may shadow a
factory binding — and lazy: a key is
rendered, compiled and registered in :mod:`linecache` (tracebacks and
``inspect.getsource`` show real lines) on its first :func:`bind`, once
per process.  The tables are literals on purpose: ``repro lint`` reads
them without importing this module and holds every rendering to the
``hot-path-purity`` contract.  The policy, scheme and profiler classes
and ``tests/seed_reference.py`` stay hand-written: they are the oracle
side every rendering is pinned against (``tests/test_cache/test_state.py``,
``tests/test_cmp/test_fused_loop.py``, the fuzz oracle).
"""

from __future__ import annotations

import ast
import linecache
import re
from contextlib import contextmanager
from functools import lru_cache
from string import Template
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

__all__ = ["POLICIES", "SCHEMES", "TEMPLATES", "PRIVATE_LOCALS", "C_KINDS",
           "COMPILED", "PURE_ATTRS", "bind", "python_target", "render",
           "rendering_keys", "source_name", "target_stats", "target_summary",
           "translate"]

#: Attribute loads a kernel closure may perform: C-level int and list
#: methods on locals.
PURE_ATTRS = frozenset({"bit_length", "bit_count",
                        "index", "insert", "remove"})

POLICIES = {
    "lru": {
        # Exact LRU: one MRU-first list of the touched ways per set — every
        # present way exactly once, nothing else.  A valid way is present
        # (fills touch, invalidation removes), so a hit never searches for
        # a way that is not there and a victim walk always ends.
        "bind": """\
orders = policy._order
present = policy._present""",
        "locate": "o = orders[$set]",
        # 30-84 % of L2 hits are to the MRU way already.
        "promote": """\
if o[0] != way:
    o.remove(way)
    o.insert(0, way)""",
        "fill_invalid": """\
orders[$set].insert(0, way)
present[$set] |= 1 << way""",
        # Deepest member of the mask, moved to MRU in the same step.
        "victim": """\
o = orders[$set]
i = -1
way = o[i]
while not (mask >> way) & 1:
    i -= 1
    way = o[i]
del o[i]
o.insert(0, way)""",
        "victim_in_mask": True,
        "fill": "",
        # Exact stack position: the way's index in the order (§II-A).
        "sdh": "sdh_r[o.index(way) + 1] += 1",
        "bind_sdh": "",
    },
    "nru": {
        "bind": """\
used_l = policy._used
pointer = policy._pointer_box""",
        "locate": "",
        # Set the used bit; when the whole reset domain is then set, clear
        # it except the accessed line (§III-A).
        "promote": """\
$domain
used = used_l[$set] | (1 << way)
if (used & domain) == domain:
    used = (used & ~domain) | (1 << way)
used_l[$set] = used""",
        "fill_invalid": "",
        # First used-bit-clear candidate cyclically from the global
        # pointer (wrapping to the lowest one overall).
        "victim": """\
used = used_l[$set]
if (used & mask) == mask:
    used &= ~mask
    used_l[$set] = used
free = mask & ~used
hi = free >> pointer[0]
if hi:
    way = pointer[0] + (hi & -hi).bit_length() - 1
else:
    way = (free & -free).bit_length() - 1""",
        "victim_in_mask": True,
        "fill": """\
$promote
p = pointer[0] + 1
pointer[0] = p if p < assoc else 0""",
        # eSDH: d = ceil(S * U), U counting the accessed line, only when
        # its used bit is already 1 (constant-offset argument, §III-A).
        # The profiler tabulates d for U = 0..A once: the read itself is
        # integer work, like every other fragment.
        "sdh": """\
used = used_l[$set]
if (used >> way) & 1:
    sdh_r[dist[used.bit_count()]] += 1""",
        "bind_sdh": "dist = profiler.distance_table(assoc)",
    },
    "bt": {
        "bind": """\
tree = policy._tree
keep = policy._touch_keep
setb = policy._touch_set
table = policy._victim_table
walk = policy._walk
up_l = policy._up
down_l = policy._down
levels = policy.levels""",
        "locate": "",
        "promote": "tree[$set] = (tree[$set] & keep[way]) | setb[way]",
        "fill_invalid": "",
        # The traversal ignores the candidate mask (enforcement is the
        # force vectors), so the victim may be an invalid way outside it.
        # Root-down walk (Figure 5): a set ``up`` bit forces the upper
        # sub-tree, a set ``down`` bit the lower one, else the stored bit
        # decides; a core past the installed slots walks unforced.  With
        # no vector installed the whole walk is one table lookup.
        "victim": """\
word = tree[$set]
if walk[0]:
    up = 0
    down = 0
    if $core < walk[1]:
        up = up_l[$core]
        down = down_l[$core]
    node = 1
    way = 0
    level = levels
    while level:
        level -= 1
        if (up >> level) & 1:
            direction = 0
        elif (down >> level) & 1:
            direction = 1
        else:
            direction = (word >> (node - 1)) & 1
        node = (node << 1) | direction
        way = (way << 1) | direction
else:
    way = table[word]""",
        "victim_in_mask": False,
        "fill": "$promote",
        # eSDH: d = A - (ID xor path) off the tree word (§III-B): the
        # stored bits along the way's own root-down path, most significant
        # first.  In heap order the path's node ``level`` steps above the
        # leaf is the leaf's index shifted right by ``level``.
        "sdh": """\
word = tree[$set]
leaf = assoc | way
path = 0
level = levels
while level:
    path |= ((word >> ((leaf >> level) - 1)) & 1) << (level - 1)
    level -= 1
sdh_r[assoc - (path ^ way)] += 1""",
        "bind_sdh": "",
    },
}

SCHEMES = {
    "none": {
        "bind": "",
        "mask": "mask = full_mask",
        "domain": "domain = full_mask",
        "on_fill": "",
    },
    "masks": {
        "bind": "masks = partition._masks",
        "mask": "mask = masks[$core]",
        "domain": "domain = masks[$core]",
        "on_fill": "",
    },
    "btvectors": {
        "bind": "masks = partition._masks",
        "mask": "mask = masks[$core]",
        "domain": "domain = full_mask",
        "on_fill": "",
    },
    "counters": {
        "bind": """\
quota = partition._quota
owner_l = partition._owner
owned_l = partition._owned
ncores = partition.num_cores""",
        # Below quota: a foreign (or invalid) way if any; else an own one.
        "mask": """\
owned = owned_l[$set * ncores + $core]
if owned.bit_count() < quota[$core]:
    mask = (full_mask & ~owned) or owned
else:
    mask = owned or full_mask""",
        "domain": "domain = full_mask",
        "on_fill": """\
previous = owner_l[row + way]
if previous != $core:
    if previous >= 0:
        owned_l[$set * ncores + previous] &= ~(1 << way)
    owner_l[row + way] = $core
    owned_l[$set * ncores + $core] |= 1 << way""",
    },
}

TEMPLATES = {
    "bind_tags": """\
tag_map = store.map
tag_get = tag_map.get
tag_lines = store.lines
invalid = store.invalid
assoc = store.assoc
full_mask = store.full_mask""",
    "bind_cache": """\
store = cache.state
policy = cache.policy
partition = cache.partition
$bind_tags
set_mask = store.num_sets - 1
stats = cache.stats
accesses = stats.accesses
misses = stats.misses
fills_invalid = stats.fills_invalid
$bind
$bind_scheme""",
    # Shared miss path: invalid way in the mask, else the policy's victim;
    # install; scheme bookkeeping; promote.  (The promote commutes with
    # install / on_fill: the policy never reads tag or partition state.)
    "miss": """\
row = $set * assoc
$mask
inv = invalid[$set] & mask
if inv:
    way = (inv & -inv).bit_length() - 1
    invalid[$set] &= ~(1 << way)
    $count_fill
    $fill_invalid
else:
    $victim
    $evict
tag_lines[row + way] = $line
tag_map[$line] = way
$on_fill
$fill""",
    "evict_in_mask": "del tag_map[tag_lines[row + way]]",
    "evict_any": """\
old = tag_lines[row + way]
if old >= 0:
    del tag_map[old]
else:
    invalid[$set] &= ~(1 << way)
    $count_fill""",
    "hit": """\
def build(cache):
    $bind_cache

    def access_line_hit(line, core=0):
        accesses[core] += 1
        s = line & set_mask
        way = tag_get(line)
        if way is not None:
            $locate
            $promote
            return True
        misses[core] += 1
        $miss
        return False

    return access_line_hit
""",
    # The ATD runs full-mask, single-core, unpartitioned: scheme ``none``,
    # no statistics; the profiler reads the pre-access state, then promote.
    "observe": """\
def build(atd):
    store = atd.state
    policy = atd.policy
    profiler = atd.profiler
    $bind_tags
    counts = atd._counts
    l2_set_mask = atd._l2_set_mask
    skip_mask = atd._skip_mask
    set_shift = atd.sampling.bit_length() - 1
    sdh_r = atd.sdh._r
    miss_reg = assoc + 1
    $bind
    $bind_sdh

    def observe_many(batch):
        sampled = 0
        skipped = 0
        for line in batch:
            if line & skip_mask:
                skipped += 1
                continue
            sampled += 1
            s = (line & l2_set_mask) >> set_shift
            way = tag_get(line)
            if way is not None:
                $locate
                $sdh
                $promote
                continue
            sdh_r[miss_reg] += 1
            $miss
        counts[0] += sampled
        counts[1] += skipped

    return observe_many
""",
    # One heap event per L2 access (see repro.cmp.engine.batched for the
    # exactness argument).  The float expressions and the (clock, thread)
    # pop order are the reference engine's; only the L2 access differs
    # between the fused and the call form.
    "loop": """\
def build(cache, channel):
    $bind_loop
    $bind_channel

    def loop(now, t, heap, pushpop, horizon, beyond, freeze, resume, cur,
             stop, anchor, lines, gaps, fz_at, fz_hit, base, l2_hit_pen,
             mem_pen, victims, has_writes, observe_now):
        wb_l1_to_l2 = 0
        wb_l1_to_mem = 0
        while True:
            if now >= horizon:
                horizon = beyond(now)
            j = cur[t]
            if j >= 0:
                line = lines[t][j]
                $access
                anchor[t] = clock
                j += 1
                if j != stop[t]:
                    cur[t] = j
                    clock += gaps[t][j] * base[t]
                else:
                    if fz_at[t] == j - 1 and not freeze(t, clock, j):
                        break
                    clock = resume(t, j)
            else:
                # The freeze access is an L1 hit inside the pending gap.
                j = ~j
                if not freeze(t, anchor[t] + fz_hit[t] * base[t], j):
                    break
                clock = resume(t, j)
            now, t = pushpop(heap, (clock, t))
        return now, t, wb_l1_to_l2, wb_l1_to_mem

    return loop
""",
    "access_fused": """\
s = line & set_mask
way = tag_get(line)
if way is not None:
    $locate
    $promote
    clock = now + base[t] + l2_hit_pen
else:
    misses[t] += 1
    $miss
    if limited:
        $request
    else:
        clock = now + base[t] + mem_pen""",
    # The FCFS memory channel (``MemoryChannel.request``, operation for
    # operation): a miss issued at ``now + l2_hit_pen`` starts service
    # when the channel is next free and returns ``latency`` later.
    "bind_channel": """\
limited = channel is not None
chan = channel._clock if limited else None
chan_count = channel._count if limited else None
service_interval = channel.service_interval if limited else 0.0
latency = channel.latency if limited else 0.0""",
    "request": """\
issued = now + l2_hit_pen
start = issued if issued >= chan[0] else chan[0]
chan[0] = start + service_interval
chan_count[0] += 1
chan[1] += start - issued
clock = start + latency + base[t]""",
    "bind_call": """\
l2_access_hit = cache.access_line_hit
l2_access_rw = cache.access_line_rw
l2_write_back = cache.write_back_line""",
    "access_call": """\
if has_writes:
    victim = victims[t][j]
    if victim >= 0:
        if l2_write_back(victim, t):
            wb_l1_to_l2 += 1
        else:
            wb_l1_to_mem += 1
    if observe_now is not None:
        observe_now(t, line)
    hit2 = l2_access_rw(line, t, False)
else:
    if observe_now is not None:
        observe_now(t, line)
    hit2 = l2_access_hit(line, t)
if hit2:
    clock = now + base[t] + l2_hit_pen
elif limited:
    $request
else:
    clock = now + base[t] + mem_pen""",
}

#: ``$core`` per rendering (``$set`` is ``s`` and ``$line`` ``line`` in all
#: three): an argument of ``hit``, the popped thread of ``loop``; the
#: ATD's ``observe`` is single-core and keeps no fill count.
_CORE = {"hit": "core", "observe": "0", "loop": "t"}

#: Locals each skeleton keeps across the fragments it expands.  A policy
#: or scheme fragment storing to one would corrupt the skeleton without
#: any error (LRU's ``pos`` once overwrote a skeleton counter of that
#: name), so :func:`render` refuses the pair.
PRIVATE_LOCALS = {
    "hit": (),
    "observe": ("sampled", "skipped"),
    "loop": ("j", "t", "now", "clock", "horizon", "wb_l1_to_l2",
             "wb_l1_to_mem"),
}

#: What every name a ``loop`` or ``observe`` kernel may touch is on the C
#: target (the vocabulary is :mod:`repro.cache.cgen`'s): the ``loop``
#: skeleton's parameters, then the factory bindings of the tag store, the
#: statistics, each policy, each scheme and the memory channel, then the
#: ``observe`` skeleton's parameter and the ATD / SDH bindings.  A name
#: missing here is an error at translation time, never a guess.
C_KINDS = {
    "now": "float", "t": "int", "heap": "heap", "pushpop": "pushpop",
    "horizon": "float", "beyond": "callout:float(float)",
    "freeze": "callout:int(int,float,int)",
    "resume": "callout:float(int,int)",
    "cur": "ints", "stop": "ints", "anchor": "floats", "lines": "rows",
    "gaps": "rows", "fz_at": "ints", "fz_hit": "ints", "base": "floats",
    "l2_hit_pen": "float", "mem_pen": "float",
    "victims": "python", "has_writes": "python", "observe_now": "python",
    "tag_map": "tags:tag_lines,assoc", "tag_get": "probe:tag_lines,s,assoc",
    "tag_lines": "ints", "invalid": "ints", "assoc": "int",
    "full_mask": "int", "set_mask": "int",
    "accesses": "cores", "misses": "cores", "fills_invalid": "cores",
    "orders": "lists:assoc", "present": "ints",
    "used_l": "ints", "pointer": "ints",
    "tree": "ints", "keep": "ints", "setb": "ints", "table": "ints",
    "walk": "shared", "up_l": "shared", "down_l": "shared", "levels": "int",
    "masks": "cores", "quota": "cores", "owner_l": "ints",
    "owned_l": "ints", "ncores": "int",
    "limited": "int", "chan": "floats", "chan_count": "ints",
    "service_interval": "float", "latency": "float",
    "batch": "column", "counts": "ints", "l2_set_mask": "int",
    "skip_mask": "int", "set_shift": "int", "sdh_r": "ints",
    "miss_reg": "int", "dist": "ints",
}

#: Renderings with a C target (stock keys only).
COMPILED = ("loop", "observe")

_SLOT_LINE = re.compile(r"^( *)\$(\w+)$")

Key = Optional[Tuple[str, str]]


def source_name(rendering: str, key: Key) -> str:
    """Stable pseudo-filename of a rendering (``<repro kernel …>``)."""
    label = "call" if key is None else "/".join(key)
    return f"<repro kernel {label} {rendering}>"


def _expand(text: str, slots: Dict[str, str], indent: str = "") -> Iterator[str]:
    for line in text.splitlines():
        match = _SLOT_LINE.match(line)
        if match is None:
            yield indent + line if line else line
        else:
            yield from _expand(slots[match[2]], slots, indent + match[1])


def _standalone(fragment: str) -> str:
    """``fragment`` as parseable Python on its own: slot lines (other
    fragments) blanked, placeholders substituted."""
    body = "\n".join(_SLOT_LINE.sub(r"\1pass", line)
                     for line in fragment.splitlines())
    return Template(body).substitute(core="core", set="s", line="line")


def _stores(fragment: str) -> Set[str]:
    """Names ``fragment`` assigns."""
    return {node.id for node in ast.walk(ast.parse(_standalone(fragment)))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def render(rendering: str, key: Key, policies=POLICIES, schemes=SCHEMES,
           templates=TEMPLATES, private=PRIVATE_LOCALS, kinds=C_KINDS,
           target: str = "python") -> str:
    """Source of one rendering: a ``build(owner)`` factory whose closure
    is the kernel.  ``key`` is ``(policy kind, scheme name)``; ``None``
    (``loop`` only) is the call form.  ``target="c"`` is the same kernel
    as a C translation unit (:func:`translate`)."""
    if target == "c":
        return translate(rendering, key, policies, schemes, templates,
                         private, kinds).source
    slots = dict(templates)
    if key is None:
        slots.update(bind_loop=templates["bind_call"],
                     access=templates["access_call"])
    else:
        policy, scheme = policies[key[0]], schemes[key[1]]
        clobbered = sorted(
            f"{table} {name!r} -> {local}"
            for table, fragments in (("policy", policy), ("scheme", scheme))
            for name, text in fragments.items() if isinstance(text, str)
            for local in _stores(text).intersection(private[rendering]))
        if clobbered:
            raise ValueError(
                f"{source_name(rendering, key)}: fragment stores to a "
                f"local of the {rendering!r} skeleton: "
                f"{', '.join(clobbered)}")
        slots.update(policy)
        slots.update(
            scheme, bind=policy["bind"], bind_scheme=scheme["bind"],
            bind_loop=templates["bind_cache"],
            access=templates["access_fused"],
            evict=templates["evict_in_mask" if policy["victim_in_mask"]
                            else "evict_any"],
            count_fill=("" if rendering == "observe"
                        else "fills_invalid[$core] += 1"))
    source = "\n".join(_expand(templates[rendering], slots)) + "\n"
    return Template(source).substitute(core=_CORE[rendering], set="s",
                                       line="line")


def translate(rendering: str, key: Key, policies=POLICIES, schemes=SCHEMES,
              templates=TEMPLATES, private=PRIVATE_LOCALS, kinds=C_KINDS):
    """The C target of one rendering — a :class:`repro.cache.cgen.Kernel`
    translated from the Python source :func:`render` returns, never
    written beside it.  Raises :class:`ValueError` naming the rendering
    for anything outside the translated subset."""
    from repro.cache import cgen

    name = source_name(rendering, key)
    if key is not None:
        for table, fragments in (("policy", policies[key[0]]),
                                 ("scheme", schemes[key[1]])):
            for label, text in fragments.items():
                # The SDH read is the observe rendering's alone.
                if isinstance(text, str) and (rendering == "observe"
                                              or "sdh" not in label):
                    cgen.check_fragment(name, f"{table} {label!r}",
                                        _standalone(text), kinds)
    source = render(rendering, key, policies, schemes, templates, private)
    return cgen.translate(source, name, kinds)


def rendering_keys(policies=POLICIES, schemes=SCHEMES
                   ) -> List[Tuple[str, Key]]:
    """``(rendering, key)`` of every rendering there is: each policy x
    scheme for ``hit`` and ``loop``, each policy for ``observe``, and
    the call-form loop — what ``hot-path-purity`` checks."""
    keys = [("observe", (kind, "none")) for kind in policies]
    keys += [(rendering, (kind, scheme)) for kind in policies
             for scheme in schemes
             for rendering in ("hit", "loop")]
    return keys + [("loop", None)]


@lru_cache(maxsize=None)
def _factory(rendering: str, key: Key) -> Callable:
    name = source_name(rendering, key)
    source = render(rendering, key)
    namespace = {"__builtins__": {}}
    exec(compile(source, name, "exec"), namespace)
    build = namespace["build"].__code__
    kernel = next(const for const in build.co_consts
                  if hasattr(const, "co_freevars"))
    impure = set(kernel.co_names) - PURE_ATTRS
    shadowed = set(kernel.co_varnames) & set(build.co_varnames
                                             + build.co_cellvars)
    if impure or shadowed:
        raise ValueError(
            f"{name}: closure loads {sorted(impure)} / shadows "
            f"{sorted(shadowed)}; fragments must use factory bindings only")
    linecache.cache[name] = (len(source), None,
                             source.splitlines(True), name)
    return namespace["build"]


#: Per ``(rendering, key)`` with a C target bound in this process: which
#: target its calls got and why.  Observational and unkeyed; nothing on a
#: hot path reads it.
_TARGETS: Dict[Tuple[str, Tuple[str, str]], dict] = {}

#: Depth of :func:`python_target` blocks.
_python_only = 0


@contextmanager
def python_target() -> Iterator[None]:
    """Every ``loop`` and ``observe`` bound inside the block is the Python
    target.

    The one internal seam by which the differential tests and the fuzz
    oracle reach the target every compiled kernel is diffed against.  Not
    a user-facing switch: no configuration field, flag or environment
    variable leads here."""
    global _python_only
    _python_only += 1
    try:
        yield
    finally:
        _python_only -= 1


def target_stats() -> Dict[Tuple[str, Tuple[str, str]], dict]:
    """Per ``(rendering, key)`` bound so far — the stock ``loop`` keys and
    the ``observe`` keys of the drains: ``target`` (``"c"`` or
    ``"python"``) of its latest bind, ``binds`` per target, and from the
    compiled side ``cache`` (``"hit"`` / ``"built"``) with ``build_s``, or
    the ``reason`` it fell back (a copy)."""
    return {key: dict(entry, binds=dict(entry["binds"]))
            for key, entry in _TARGETS.items()}


def target_summary() -> str:
    """:func:`target_stats` as one accounting line."""
    if not _TARGETS:
        return "targets: none bound in this process"
    parts = []
    for rendering in COMPILED:
        stats = [entry for (kind, _key), entry in _TARGETS.items()
                 if kind == rendering]
        compiled = sum(entry["target"] == "c" for entry in stats)
        parts.append(f"{rendering} c={compiled} "
                     f"python={len(stats) - compiled}")
    compiled = [s for s in _TARGETS.values() if s["target"] == "c"]
    built = sum(s["cache"] == "built" for s in compiled)
    text = (f"targets: {', '.join(parts)}; built={built} "
            f"build={sum(s['build_s'] for s in compiled):.2f}s")
    reasons = sorted({s["reason"] for s in _TARGETS.values()
                      if s.get("reason")})
    return text + (f" ({'; '.join(reasons)})" if reasons else "")


def bind(rendering: str, key: Key, owner, *args,
         interpreted: bool = False) -> Callable:
    """The ``rendering`` kernel for ``key``, bound to ``owner``'s arrays
    (a cache for ``hit`` / ``loop``, an ATD for ``observe``); ``loop``
    takes the memory channel (or None) as ``args``.

    A stock ``loop`` or ``observe`` is the compiled target wherever this
    process can build and load one (:mod:`repro.cache.native`), the Python
    target otherwise — same signature, same results, bit for bit.  A
    compiled kernel copies its owner's state in and out on every call, so
    it pays per *batch*: the engine binds one for a whole run or a whole
    drain.  ``interpreted=True`` is the caller that also steps the kernel
    one access at a time (an ATD's own ``observe_many``, from which its
    single-access ``observe`` is derived): the Python target outright,
    not recorded in :func:`target_stats`."""
    if rendering in COMPILED and key is not None and not interpreted:
        loaded = None
        if _python_only:
            info = {"reason": "python_target() block"}
        else:
            from repro.cache import native      # ctypes + cc: first use
            loaded, info = native.load(rendering, key)
        target = "python" if loaded is None else "c"
        binds = _TARGETS.get((rendering, key), {}).get(
            "binds", {"c": 0, "python": 0})
        binds[target] += 1
        _TARGETS[rendering, key] = dict(info, target=target, binds=binds)
        if loaded is not None:
            return native.CompiledKernel(loaded, owner, *args)
    return _factory(rendering, key)(owner, *args)
