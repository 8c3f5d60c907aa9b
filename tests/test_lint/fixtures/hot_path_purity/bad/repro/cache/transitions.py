"""Fixture: a transition spec with an attribute chase in a policy fragment
(so it lands in every rendering) and a float in its SDH read, a second
policy whose SDH read iterates a tuple table, a per-event allocation plus
a global lookup in the call-form access block of the event loop, and a
scheme whose mask fragment stores to the event loop's horizon."""

POLICIES = {
    "flat": {
        "bind": "used_l = policy._used",
        "locate": "",
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
        "locate": "",
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
}

SCHEMES = {
    "none": {"bind": "", "mask": "mask = full_mask", "domain": "",
             "on_fill": ""},
    "clobber": {"bind": "", "mask": "horizon = mask = full_mask",
                "domain": "", "on_fill": ""},
}

TEMPLATES = {
    "bind_cache": """\
policy = cache.policy
tag_map = cache.state.map
tag_get = tag_map.get
tag_lines = cache.state.lines
invalid = cache.state.invalid
set_mask = cache.state.num_sets - 1
assoc = cache.state.assoc
full_mask = cache.state.full_mask
fills_invalid = cache.stats.fills_invalid
$bind
$bind_scheme""",
    "miss": """\
row = $set * assoc
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
tag_map[$line] = way
$fill""",
    "evict_in_mask": "del tag_map[tag_lines[row + way]]",
    "evict_any": "",
    "hit": """\
def build(cache):
    $bind_cache

    def access_line_hit(line, core=0):
        s = line & set_mask
        way = tag_get(line)
        if way is not None:
            $promote
            return True
        $miss
        return False

    return access_line_hit
""",
    "observe": """\
def build(atd):
    policy = atd.policy
    tag_map = atd.state.map
    tag_get = tag_map.get
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
            way = tag_get(line)
            if way is not None:
                $sdh
                $promote
                continue
            $miss

    return observe_many
""",
    "loop": """\
def build(cache):
    $bind_loop

    def loop(now, t, heap, pushpop, horizon, beyond, lines, cur):
        while True:
            if now >= horizon:
                horizon = beyond(now)
            line = lines[t][cur[t]]
            $access
            now, t = pushpop(heap, (clock, t))

    return loop
""",
    "access_fused": """\
s = line & set_mask
way = tag_get(line)
if way is not None:
    $promote
    clock = now + 1.0
else:
    $miss
    clock = now + 9.0""",
    "bind_call": "l2_access_hit = cache.access_line_hit",
    "access_call": """\
record = [t, line]
heappush(heap, record)
clock = now + (1.0 if l2_access_hit(line, t) else 9.0)""",
}

PRIVATE_LOCALS = {
    "hit": (),
    "observe": (),
    "loop": ("t", "now", "clock", "horizon"),
}

C_KINDS = {
    "now": "float", "t": "int", "heap": "heap", "pushpop": "pushpop",
    "horizon": "float", "beyond": "callout:float(float)", "lines": "rows",
    "cur": "ints", "tag_map": "tags:tag_lines,assoc",
    "tag_get": "probe:tag_lines,s,assoc", "tag_lines": "ints",
    "invalid": "ints", "set_mask": "int", "assoc": "int",
    "full_mask": "int", "fills_invalid": "cores", "used_l": "ints",
    "batch": "column", "sdh_r": "ints", "spec_l": "ints",
}
