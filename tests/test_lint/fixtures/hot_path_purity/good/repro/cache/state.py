"""Good: the kernel closure runs on factory-bound locals only."""

from math import ceil


def _flat_hit_kernel(cache):
    """Everything hot is bound once in the factory."""
    tag_map = cache.state.map
    tag_get = tag_map.get
    order = cache.policy.order
    order_index = order.index
    orders = cache.policy.orders
    accesses = cache.stats.accesses
    ceil_fn = ceil
    scaling = cache.scaling

    def access_line_hit(line, core=0):
        accesses[core] += 1
        way = tag_get(line)
        if way is not None:
            pos = order_index(way)
            order[pos] = way
            o = orders[line & 7]           # C-level list methods on a local
            if o[0] != way:
                o.remove(way)
                o.insert(0, way)
            accesses[o.index(way)] += 1
            return True
        distance = ceil_fn(scaling * line.bit_count())
        tag_map[line] = distance & ((1 << line.bit_length()) - 1)
        try:
            del tag_map[line]
        except KeyError:
            pass
        return False

    return access_line_hit


def _flat_set_run_kernel(cache):
    """Window variant: the whole-window closure is held to the same bar."""
    tag_map = cache.state.map
    tag_get = tag_map.get
    accesses = cache.stats.accesses
    misses = cache.stats.misses

    def run_window(lines, flags):
        pos = 0
        n_miss = 0
        for line in lines:
            way = tag_get(line)
            if way is None:
                n_miss += 1
                tag_map[line] = pos
            else:
                flags[pos] = 1
            pos += 1
        accesses[0] += pos
        misses[0] += n_miss

    return run_window


def derive_observe_kernel(atd, observe_many):
    """Public derived builder: held to the same bar, tuples allowed."""
    skip_mask = atd.skip_mask

    def observe(line):
        if line & skip_mask:
            return False
        observe_many((line,))
        return True

    return observe
