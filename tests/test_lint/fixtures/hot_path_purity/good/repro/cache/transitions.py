"""Fixture: a one-policy, one-scheme transition spec every rendering of
which translates to C (the tables are literals; the linter renders and
translates them with the package's own renderer and translator)."""

POLICIES = {
    "flat": {
        "bind": "used_l = policy._used",
        "promote": "used_l[$set] |= 1 << way",
        "fill_invalid": "",
        "victim": "way = (mask & -mask).bit_length() - 1",
        "victim_in_mask": True,
        "fill": "$promote",
        "sdh": "sdh_r[used_l[$set].bit_count()] += 1",
        "bind_sdh": "",
    },
}

SCHEMES = {
    "none": {"bind": "", "mask": "mask = full_mask", "domain": "",
             "on_fill": ""},
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
def build(cache, run):
    $bind_loop
    $bind_run

    def loop(horizon):
        while True:
            t = 0
            u = 1
            while u < threads:
                if clocks[u] < clocks[t]:
                    t = u
                u += 1
            now = clocks[t]
            if now >= horizon:
                return t, now
            line = lines[t * stride + cur[t]]
            $access
            clocks[t] = clock

    return loop
""",
    "bind_run": """\
clocks = run.clocks
threads = run.threads
stride = run.stride
lines = run.lines
cur = run.cur""",
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
    "clocks": "floats", "threads": "int", "horizon": "float",
    "stride": "int", "lines": "ints", "cur": "ints", "tag_lines": "ints",
    "invalid": "ints", "set_mask": "int", "assoc": "int",
    "full_mask": "int", "fills_invalid": "cores", "used_l": "ints",
    "batch": "column", "sdh_r": "ints", "spec_l": "ints",
    "refs": "column", "slots": "ints",
}
