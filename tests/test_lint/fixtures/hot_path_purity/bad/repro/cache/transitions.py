"""Fixture: a transition spec whose renderings the translator refuses,
one reason each.

* ``flat``: an attribute chase in its promote fragment (so it lands in
  every event loop) and a float in its SDH read (which refuses its drain
  on the fragment itself);
* ``walk``: an SDH read iterating a tuple table instead of a column;
* ``tally``: a fill counting into ``fills_invalid``, which the event
  loop's factory binds and the drain's never assigns;
* schemes: ``clobber`` stores to the event loop's horizon, ``alloc``
  allocates a list, ``method`` calls a list method and ``global`` looks
  up a global, each in its on-fill bookkeeping.

``walk`` and ``tally`` under ``none`` and the prefilter are clean.
"""

POLICIES = {
    "flat": {
        "bind": "used_l = policy._used",
        "promote": "cache.policy._used[$set] |= 1 << way",
        "fill_invalid": "",
        "victim": "way = (mask & -mask).bit_length() - 1",
        "victim_in_mask": True,
        "fill": "$promote",
        "sdh": """\
distance = ceil_fn(0.75 * used_l[$set].bit_count())
sdh_r[distance] += 1""",
        "bind_sdh": "ceil_fn = atd.profiler.ceil",
    },
    "walk": {
        "bind": "used_l = policy._used",
        "promote": "used_l[$set] |= 1 << way",
        "fill_invalid": "",
        "victim": "way = (mask & -mask).bit_length() - 1",
        "victim_in_mask": True,
        "fill": "$promote",
        "sdh": """\
for shift in spec_l:
    sdh_r[(used_l[$set] >> shift) & 1] += 1""",
        "bind_sdh": "spec_l = policy._path_spec",
    },
    "tally": {
        "bind": "used_l = policy._used",
        "promote": "used_l[$set] |= 1 << way",
        "fill_invalid": "",
        "victim": "way = (mask & -mask).bit_length() - 1",
        "victim_in_mask": True,
        "fill": """\
$promote
fills_invalid[0] += 1""",
        "sdh": "sdh_r[used_l[$set].bit_count()] += 1",
        "bind_sdh": "",
    },
}

SCHEMES = {
    "none": {"bind": "", "mask": "mask = full_mask", "domain": "",
             "on_fill": ""},
    "clobber": {"bind": "", "mask": "horizon = mask = full_mask",
                "domain": "", "on_fill": ""},
    "alloc": {"bind": "", "mask": "mask = full_mask", "domain": "",
              "on_fill": "record = [$core, $line]"},
    "method": {"bind": "", "mask": "mask = full_mask", "domain": "",
               "on_fill": "tag_lines.remove($line)"},
    "global": {"bind": "", "mask": "mask = full_mask", "domain": "",
               "on_fill": "heappush(tag_lines, $line)"},
}

TEMPLATES = {
    "bind_cache": """\
policy = cache.policy
tag_lines = cache.state.lines
invalid = cache.state.invalid
set_mask = cache.state.num_sets - 1
assoc = cache.state.assoc
full_mask = cache.state.full_mask
fills_invalid = cache.stats.fills_invalid
$bind
$bind_scheme""",
    "probe": """\
row = $set * assoc
way = 0
while way < assoc and tag_lines[row + way] != $line:
    way += 1""",
    "miss": """\
$mask
inv = invalid[$set] & mask
if inv:
    way = (inv & -inv).bit_length() - 1
    invalid[$set] &= ~(1 << way)
    $count_fill
else:
    $victim
    $evict
tag_lines[row + way] = $line
$on_fill
$fill""",
    "evict_any": "",
    "observe": """\
def build(atd):
    policy = atd.policy
    tag_lines = atd.state.lines
    invalid = atd.state.invalid
    assoc = atd.assoc
    full_mask = atd.state.full_mask
    sdh_r = atd.sdh._r
    $bind
    $bind_sdh

    def observe_many(batch):
        for line in batch:
            s = line & 7
            $probe
            if way < assoc:
                $sdh
                $promote
                continue
            $miss

    return observe_many
""",
    "loop": """\
def build(cache):
    $bind_loop

    def loop(now, t, clocks, threads, horizon, beyond, lines, cur):
        while True:
            if now >= horizon:
                horizon = beyond(now)
            line = lines[t][cur[t]]
            $access
            clocks[t] = clock
            t = 0
            u = 1
            while u < threads:
                if clocks[u] < clocks[t]:
                    t = u
                u += 1
            now = clocks[t]

    return loop
""",
    "access_fused": """\
s = line & set_mask
$probe
if way < assoc:
    $promote
    clock = now + 1.0
else:
    $miss
    clock = now + 9.0""",
    "prefilter": """\
def build(l1):
    slots = l1._slots

    def prefilter(refs):
        n = 0
        for line in refs:
            n += slots[line & 7] != line
            slots[line & 7] = line
        return n

    return prefilter
""",
}

PRIVATE_LOCALS = {
    "observe": (),
    "loop": ("t", "u", "now", "clock", "horizon"),
}

C_KINDS = {
    "now": "float", "t": "int", "clocks": "floats", "threads": "int",
    "horizon": "float", "beyond": "callout:float(float)", "lines": "rows",
    "cur": "ints", "tag_lines": "ints",
    "invalid": "ints", "set_mask": "int", "assoc": "int",
    "full_mask": "int", "fills_invalid": "cores", "used_l": "ints",
    "batch": "column", "sdh_r": "ints", "spec_l": "ints",
    "refs": "column", "slots": "ints",
}
