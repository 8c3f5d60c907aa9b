"""Bad: the kernel closure does per-access attribute walks and allocates."""

from math import ceil


def _flat_hit_kernel(cache):
    """Factory forgets to bind the hot values."""
    tag_map = cache.state.map

    def access_line_hit(line, core=0):
        way = tag_map.get(line)            # attribute load per access
        if way is None:
            history = [line, core]         # container allocation per access
            tag_map[line] = history
        distance = ceil(0.5 * core)        # unbound global lookup
        return distance

    return access_line_hit


def _flat_set_run_kernel(cache):
    """Window variant: same impurities, whole-window closure."""
    tag_map = cache.state.map
    orders = cache.policy.orders

    def run_window(lines, flags):
        pos = 0
        for line in lines:
            way = tag_map.get(line)        # attribute load per access
            if way is None:
                tag_map[line] = {pos: line}  # dict allocation per window
            else:
                o = orders[line & 7]
                o.remove(way)              # allowed: C-level list method
                o.sort()                   # any other list attribute is not
            pos += 1
        cache.stats.accesses[0] += pos     # attribute walk at commit time

    return run_window


def derive_observe_kernel(atd, observe_many):
    """Public derived builder: a missing underscore is no exemption."""

    def observe(line):
        if line & atd._skip_mask:          # attribute load per access
            return False
        observe_many((line,))              # a tuple argument is fine
        return True

    return observe
