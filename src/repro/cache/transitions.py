"""One transition spec per paper policy, rendered into every hot kernel.

The paper's replacement decisions are a handful of bit operations — a
used-bit OR with a reset confined to the core's mask (§III-A), a tree-bit
update with ``up``/``down`` vectors forcing a prefix of levels (§III-B) —
small per-set automata in the sense of arXiv:1811.01740.  This module
declares each **once**, as source fragments over the flat ``PolicyState``
/ ``TagStore`` arrays, and composes two kernels from the same text, each
called once per *batch* of accesses:

* ``observe`` — ``observe_many(batch)``, one call per ATD drain;
* ``loop`` — the event loop of ``BatchedEngine.run``, whatever the
  number of threads, bound once per run (:class:`LoopRun`): one call per
  stretch of L2 accesses, returning to its shell where the shell has
  work (a boundary, a freeze, a window end).  No kernel calls back into
  Python.

A third, ``prefilter``, is the private true-LRU L1 the engine walks one
window of a thread's references at a time: its template alone, with no
fragment slot (:data:`PREFILTER_KEY`).

A rendering is Python text that only :func:`translate` reads: it
becomes C (:mod:`repro.cache.cgen`), which :func:`bind` loads or, with
the reason recorded, does not.  So the text says what the C does, over
flat arrays only: a line is looked up by a probe of its set's row of
``tag_lines`` (``way == assoc``: not there), the next thread to run is
an arg-min over one clock per thread, and the L1 walk reads.  The
per-access entry points
(``SetAssociativeCache.access_line_hit``, ``ATD.observe``,
``SmallLRUCache.access_line_rw``) are the classes' own methods — what
the reference engine steps, also on every run without a compiled
kernel (:func:`repro.cmp.engine.batched_refusal`).

:data:`POLICIES` holds, per kernel kind, *promote* on a hit,
*fill an invalid way*, *choose a victim under a mask* (for LRU including
its rotation to MRU), *promote on fill*, and the stock profiler's *SDH
read* of the pre-access state (and any pieces a kind's fragments share,
LRU's ``find`` and ``move`` of a way in its word); :data:`SCHEMES`
holds, per enforcement
scheme, the *candidate mask*, the NRU *reset domain* and the *on-fill*
bookkeeping (``none`` is simply the scheme whose mask and domain are
``full_mask``); :data:`TEMPLATES` holds the kernel skeletons, the
probe and the miss path ``observe`` and ``loop`` share, and the event
loop's access block, which inlines the L2 transition.  Whether a
rendering is exact for an instance is decided by the callers from what
they can observe (:func:`repro.cache.state.kernel_key`), never by an
option.

A line holding only ``$slot`` is replaced by that fragment at the line's
indentation (recursively); ``$line``, ``$core`` and ``$set`` are the
access's line address, core and set index in the rendering at hand.
Rendering is checked — an unknown slot or placeholder raises, and no
policy / scheme fragment may store to a local its skeleton keeps for
itself (:data:`PRIVATE_LOCALS`); the translator holds the closure to
its parameters, its locals and what its factory assigns — and lazy: a
key is rendered on its first :func:`bind`, and translated only when no
compiled object of it is cached.  The tables are literals on purpose:
``repro lint`` (``hot-path-purity``) reads them without importing this
module, and renders and translates every key.  The policy,
scheme and profiler classes and ``tests/seed_reference.py`` stay
hand-written: they are the oracle side every rendering is pinned
against (``tests/test_cache/test_state.py``,
``tests/test_cmp/test_fused_loop.py``, the reference engine, the fuzz
oracle), and no rendering is bound on that side.
"""

from __future__ import annotations

import ast
import re
from collections import namedtuple
from functools import lru_cache
from string import Template
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

__all__ = ["POLICIES", "SCHEMES", "TEMPLATES", "PRIVATE_LOCALS", "C_KINDS",
           "PREFILTER_KEY", "LoopRun", "bind", "render", "rendering_keys",
           "source_name", "target_stats", "target_summary", "translate"]

POLICIES = {
    "lru": {
        # Exact LRU: one word per set, nibble i the way at recency
        # position i (MRU first) and the present ways in the first
        # present[$set].bit_count() nibbles — the paper's A x log2(A)-bit
        # permutation (Table I(a)); each way occurs once.  The words are
        # int64 and wrap (the build's -fwrapv): ``way * 0x1111...`` and a
        # borrow into the sign nibble are exact mod 2**64, and no shift
        # reaches 64.  A valid way is present (fills touch, invalidation
        # removes), so a victim walk always ends inside the set.
        "bind": """\
recency = policy._recency
present = policy._present""",
        # ``below``: the nibbles of ``word`` in front of ``way``'s, found
        # by one SWAR zero-nibble test of ``word ^ way * 0x1111...`` (its
        # lowest set bit is the top bit of ``way``'s nibble; bits above
        # it may be set too and are dropped).
        "find": """\
word = recency[$set]
found = word ^ way * 0x1111111111111111
found = (found - 0x1111111111111111) & ~found & ~0x7777777777777777
below = ((found & -found) - 1) >> 3""",
        # ``way`` to the front, the nibbles ``below`` it one deeper and
        # those behind it where they were: three masks.
        "move": """\
recency[$set] = (word & ~(below << 4 | 15) | (word & below) << 4
                 | way)""",
        "promote": """\
$find
$move""",
        "fill_invalid": """\
$find
$move
present[$set] |= 1 << way""",
        # Deepest member of the mask, walked in a register from the
        # deepest present nibble and moved to MRU in the same step.
        "victim": """\
word = recency[$set]
shift = present[$set].bit_count() * 4 - 4
way = word >> shift & 15
while not (mask >> way) & 1:
    shift -= 4
    way = word >> shift & 15
below = (1 << shift) - 1
$move""",
        "victim_in_mask": True,
        "fill": "",
        # Exact stack position: the way's position in the word plus one
        # (§II-A).
        "sdh": """\
$find
sdh_r[(below.bit_length() >> 2) + 1] += 1""",
        "bind_sdh": "",
    },
    "nru": {
        "bind": """\
used_l = policy._used
pointer = policy._pointer_box""",
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
        "promote": "tree[$set] = (tree[$set] & keep[way]) | setb[way]",
        "fill_invalid": "",
        # The traversal ignores the candidate mask (enforcement is the
        # force vectors), so the victim may be an invalid way outside it.
        # Root-down walk (Figure 5): a set ``up`` bit forces the upper
        # sub-tree, a set ``down`` bit the lower one, else the stored bit
        # decides; a core past the ``assoc`` vector slots (one per core a
        # partition can give a way) walks unforced.  With no vector
        # installed the whole walk is one table lookup.
        "victim": """\
word = tree[$set]
if walk[0]:
    up = 0
    down = 0
    if $core < assoc:
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
misses = stats.misses
fills_invalid = stats.fills_invalid
$bind
$bind_scheme""",
    # Shared miss path: invalid way in the mask, else the policy's victim;
    # install; scheme bookkeeping; promote.  (The promote commutes with
    # install / on_fill: the policy never reads tag or partition state.)
    "miss": """\
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
$on_fill
$fill""",
    # A victim outside the mask may be an invalid way (BT): fill it.
    "evict_any": """\
if tag_lines[row + way] < 0:
    invalid[$set] &= ~(1 << way)
    $count_fill""",
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
            $probe
            if way < assoc:
                $sdh
                $promote
                continue
            sdh_r[miss_reg] += 1
            $miss
        counts[0] += sampled
        counts[1] += skipped

    return observe_many
""",
    # The line's way in its set's row of ``tag_lines`` (the lowest one
    # holding it); ``assoc`` when the line is not there.  A fixed-trip
    # pass of selects down the row: the C target's only exit is the
    # associativity, never a tag.
    "probe": """\
row = $set * assoc
way = assoc
k = assoc
while k:
    k -= 1
    way = k if tag_lines[row + k] == $line else way""",
    # One event per L2 access (see repro.cmp.engine.batched for the
    # exactness argument).  The float expressions are the reference
    # engine's, and so is the pop order: the thread with the least clock
    # runs next, the lowest index among equal clocks (strict ``<``).  The
    # arg-min compares the clocks' ``order_key``s with selects, where one
    # over the doubles would branch on the data (and mispredict at eight
    # threads): every clock is +0.0, positive or +inf, where the keys
    # order as the floats.  The loop returns ``(thread, clock, event)``
    # where the shell has work: event 2 at a pop that reaches a boundary
    # or passes the cycle cap (nothing executed; ``clock`` is the pop's),
    # 1 at a freeze (``clock`` the freeze's) and 0 at a window end
    # (``clock`` the last access's).
    # ``cur[t]`` is then the thread's position in its window; the shell
    # stores the thread's next clock in ``clocks`` and calls again.
    # ``left[t]`` counts down the thread's references to its freeze
    # access: each miss takes off itself and the hits before it, so the
    # freeze is the miss that leaves 0 or, with ``rest`` left within the
    # next gap, that gap's ``rest``-th hit.
    "loop": """\
def build(cache, channel, run):
    $bind_loop
    $bind_channel
    $bind_run

    def loop(boundary, cap):
        while True:
            t = 0
            u = 1
            least = order_key(clocks[0])
            while u < threads:
                key = order_key(clocks[u])
                t = u if key < least else t
                least = key if key < least else least
                u += 1
            now = clocks[t]
            if now >= boundary or now > cap:
                return t, now, 2
            j = cur[t]
            if j < 0:
                # The freeze access is an L1 hit inside the pending gap.
                cur[t] = ~j
                return t, anchor[t] + left[t] * base[t], 1
            line = lines[t * stride + j]
            $access
            anchor[t] = clock
            rest = left[t] - gaps[t * stride + j] - 1
            left[t] = rest
            j += 1
            cur[t] = j
            if rest == 0:
                return t, clock, 1
            if j == stop[t]:
                return t, clock, 0
            gap = gaps[t * stride + j]
            if 0 < rest and rest <= gap:
                # The next event is the freeze: the ``rest``-th L1 hit of
                # the gap before miss ``j`` pops at the key of the hit
                # before it.
                cur[t] = ~j
                clock += (rest - 1) * base[t]
            else:
                clock += gap * base[t]
            clocks[t] = clock

    return loop
""",
    # What one run binds: the fields of its :class:`LoopRun`, in order.
    "bind_run": """\
(threads, stride, l2_hit_pen, mem_pen, lines, gaps, clocks, cur, stop,
 anchor, left, base) = run""",
    "access_fused": """\
s = line & set_mask
$probe
if way < assoc:
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
    # The private L1 in front of one thread (Table II: true LRU), one
    # read window of its references per call.  Each set is ``assoc``
    # slots, MRU first, -1 invalid (always a suffix).  An access moves its
    # line to the front in one fixed-trip pass over the slots: each slot
    # takes what the slot before it held until the line's own slot has
    # been passed (on a miss the last slot — the LRU line or an invalid
    # one — falls off the end), with selects and unconditional stores, so
    # on the C target nothing branches on the data.  The miss stream is
    # written the same way: slot ``n`` of each column is rewritten on
    # every access and kept (``n`` advanced) on a miss.  ``gap`` ends as
    # the window's tail, the hits after its last miss.  The L1's dirty
    # flags are all 0 (its caller checks) and stay so: a read installs
    # clean, and a clean line needs no write-back.
    "prefilter": """\
def build(l1):
    slots = l1._slots
    assoc = l1._assoc
    set_mask = l1._set_mask

    def prefilter(refs, miss_gaps, miss_lines):
        n = 0
        gap = 0
        fills = 0
        for line in refs:
            row = (line & set_mask) * assoc
            hit = 0
            carry = line
            k = 0
            while k < assoc:
                here = slots[row + k]
                slots[row + k] = here if hit else carry
                hit |= here == line
                carry = here
                k += 1
            # ``here``: the last slot, the one a miss drops.
            miss = 1 - hit
            miss_gaps[n] = gap
            miss_lines[n] = line
            n += miss
            gap = (gap + 1) & -hit
            fills += (here < 0) & miss
        return n, fills, gap

    return prefilter
""",
}

#: ``$core`` per rendering (``$set`` is ``s`` and ``$line`` ``line`` in
#: all): the running thread of ``loop``; the ATD's ``observe`` is
#: single-core and keeps no fill count; ``prefilter`` has no placeholder.
_CORE = {"observe": "0", "loop": "t", "prefilter": "0"}

#: The one key of the ``prefilter`` rendering: the private L1 is true LRU
#: with no partitioning, and no policy or scheme fragment enters it.
PREFILTER_KEY = ("lru", "none")

#: Locals each skeleton keeps across the fragments it expands.  A policy
#: or scheme fragment storing to one would corrupt the skeleton without
#: any error (LRU's ``pos`` once overwrote a skeleton counter of that
#: name), so :func:`render` refuses the pair.
PRIVATE_LOCALS = {
    "observe": ("sampled", "skipped"),
    "loop": ("j", "t", "u", "now", "clock", "boundary", "cap"),
}

#: What every name a kernel may touch is in C (the vocabulary is
#: :mod:`repro.cache.cgen`'s): the ``loop`` skeleton's
#: parameters and its run's bindings (:class:`LoopRun`), then the
#: factory bindings of the tag store, the statistics, each policy, each
#: scheme and the memory channel, then the ``observe`` skeleton's
#: parameter and the ATD / SDH bindings, then the ``prefilter``'s
#: window, miss-stream columns and L1 slots.  A name missing here is an
#: error at translation time, never a guess.
C_KINDS = {
    "boundary": "float", "cap": "float",
    "threads": "int", "stride": "int", "l2_hit_pen": "float",
    "mem_pen": "float", "lines": "ints", "gaps": "ints",
    "clocks": "floats", "cur": "ints", "stop": "ints", "anchor": "floats",
    "left": "ints", "base": "floats",
    "tag_lines": "ints", "invalid": "ints", "assoc": "int",
    "full_mask": "int", "set_mask": "int",
    "misses": "cores", "fills_invalid": "cores",
    "recency": "ints", "present": "ints",
    "used_l": "ints", "pointer": "ints",
    "tree": "ints", "keep": "ints", "setb": "ints", "table": "ints",
    "walk": "ints", "up_l": "ints", "down_l": "ints", "levels": "int",
    "masks": "cores", "quota": "cores", "owner_l": "ints",
    "owned_l": "ints", "ncores": "int",
    "limited": "int", "chan": "floats", "chan_count": "ints",
    "service_interval": "float", "latency": "float",
    "batch": "column", "counts": "ints", "l2_set_mask": "int",
    "skip_mask": "int", "set_shift": "int", "sdh_r": "ints",
    "miss_reg": "int", "dist": "ints",
    "refs": "column", "miss_gaps": "ints", "miss_lines": "ints",
    "slots": "ints",
}


#: One run of the ``loop`` rendering, bound with its cache
#: (``TEMPLATES["bind_run"]``).  ``lines`` / ``gaps`` are the run's
#: ``int64`` miss-stream buffer, thread ``t``'s window the ``stride``
#: slots from ``t * stride``; the fields from ``clocks`` on are the
#: ``array('d')`` / ``array('q')`` slots, one per thread, the loop and
#: its shell share (``BatchedEngine.run``): ``stop`` is the window's
#: miss count, ``left`` the references to the freeze access.
LoopRun = namedtuple("LoopRun", "threads stride l2_hit_pen mem_pen lines "
                     "gaps clocks cur stop anchor left base")


def _check_run(bound: Dict[str, object]) -> None:
    """Refuse a run its ``loop`` would index past an end: a per-thread
    array — the run's or a ``cores`` array of the cache — with fewer
    than ``threads`` slots, a buffer with fewer than ``threads *
    stride``.  (A wrong type or layout is refused by the bind.)"""
    threads, stride = bound["threads"], bound["stride"]
    for name, value in bound.items():
        if name in ("lines", "gaps"):
            need, unit = threads * stride, f"{threads} threads of {stride}"
        elif name in LoopRun._fields[6:] or C_KINDS.get(name) == "cores":
            need, unit = threads, f"{threads} threads"
        else:
            continue
        if value is not None and len(value) < need:
            raise ValueError(f"{name}: {len(value)} slots for {unit}")


_SLOT_LINE = re.compile(r"^( *)\$(\w+)$")

Key = Tuple[str, str]


def source_name(rendering: str, key: Key) -> str:
    """Stable pseudo-filename of a rendering (``<repro kernel …>``)."""
    return f"<repro kernel {'/'.join(key)} {rendering}>"


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


@lru_cache(maxsize=None)
def _stores(fragment: str) -> FrozenSet[str]:
    """Names ``fragment`` assigns — parsed once per distinct text, so
    rendering every key does not re-parse every stock fragment."""
    return frozenset(
        node.id for node in ast.walk(ast.parse(_standalone(fragment)))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))


def render(rendering: str, key: Key, policies=POLICIES, schemes=SCHEMES,
           templates=TEMPLATES, private=PRIVATE_LOCALS) -> str:
    """Source of one rendering: a ``build(owner)`` factory whose closure
    is the kernel (:func:`translate` makes it C).  ``key`` is ``(policy
    kind, scheme name)``; ``prefilter`` is its template alone."""
    slots = dict(templates)
    if rendering != "prefilter":
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
            evict="" if policy["victim_in_mask"] else templates["evict_any"],
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
    if rendering != "prefilter":
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
    """``(rendering, key)`` of every rendering there is: each policy for
    ``observe``, each policy x scheme for ``loop`` and the L1
    ``prefilter`` — what ``hot-path-purity`` checks."""
    keys = [("observe", (kind, "none")) for kind in policies]
    keys += [("loop", (kind, scheme)) for kind in policies
             for scheme in schemes]
    return keys + [("prefilter", PREFILTER_KEY)]


#: Per ``(rendering, key)`` bound in this process: its binds and why
#: one did not load.  Observational; nothing on a hot path reads it.
_TARGETS: Dict[Tuple[str, Key], dict] = {}


def target_stats() -> Dict[Tuple[str, Key], dict]:
    """A copy of, per ``(rendering, key)`` bound so far: ``target``
    (``"c"``, or None where no compiled kernel loaded) of its latest
    bind, ``binds`` and ``compiled`` (how many loaded), and ``cache``
    (``"hit"`` / ``"built"``) with ``build_s``, or the ``reason``."""
    return {key: dict(entry) for key, entry in _TARGETS.items()}


def target_summary() -> str:
    """:func:`target_stats` as one accounting line."""
    if not _TARGETS:
        return "targets: none bound in this process"
    parts = []
    for rendering in ("loop", "observe", "prefilter"):
        stats = [entry for (kind, _key), entry in _TARGETS.items()
                 if kind == rendering]
        compiled = sum(entry["target"] == "c" for entry in stats)
        missing = len(stats) - compiled
        parts.append(f"{rendering} c={compiled}"
                     + (f" unavailable={missing}" if missing else ""))
    compiled = [s for s in _TARGETS.values() if s["target"] == "c"]
    built = sum(s["cache"] == "built" for s in compiled)
    text = (f"targets: {', '.join(parts)}; built={built} "
            f"build={sum(s['build_s'] for s in compiled):.2f}s")
    reasons = sorted({s["reason"] for s in _TARGETS.values()
                      if s.get("reason")})
    return text + (f" ({'; '.join(reasons)})" if reasons else "")


def bind(rendering: str, key: Key, owner, *args) -> Optional[Callable]:
    """The compiled ``rendering`` kernel for ``key``, bound to ``owner``'s
    arrays (a cache for ``loop``, an ATD for ``observe``, a private L1 for
    ``prefilter``); ``loop`` also takes the memory channel (or None) and
    its :class:`LoopRun` (:func:`_check_run`); None where this process
    cannot build and load it (:mod:`repro.cache.native`, *Failure*).
    Recorded in :func:`target_stats`.  The kernel works on the owner's
    arrays in place, its argument block built here; a call pays only for
    writing its parameters, once per *batch*: the event loop's accesses
    up to its shell's next event, a whole ATD drain, a whole L1 window."""
    from repro.cache import native          # ctypes + cc: first use

    loaded, info = native.load(rendering, key)
    entry = _TARGETS.get((rendering, key), {"binds": 0, "compiled": 0})
    _TARGETS[rendering, key] = dict(
        info, target=None if loaded is None else "c",
        binds=entry["binds"] + 1,
        compiled=entry["compiled"] + (loaded is not None))
    if loaded is None:
        return None
    bound = loaded.bindings(owner, *args)
    if rendering == "loop":
        _check_run(bound)
    return native.CompiledKernel(loaded, bound)
