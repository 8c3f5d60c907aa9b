"""Numpy whole-run set-run kernels (the ``array`` backend).

Drop-in replacements for the python window kernel of
:mod:`repro.cache.state` on the hot unpartitioned kinds — same
``kernel(lines, flags)`` contract, same bit-identical state evolution,
but the per-access Python loop is replaced by window-level numpy passes.
Eligibility (:func:`build`): unpartitioned caches running one of the
three paper policies, kernel kind ``lru``/``nru``/``bt`` (BT additionally
needs its precomputed victim table and no force vectors); everything
else — partitioned caches, the extension policies — delegates back to
the ``python`` backend via the registry.

Exactness argument (pinned by the vector differential suite, the
array-vs-python property tests in ``tests/test_cache/test_state.py``
and the ``repro fuzz`` oracle running every available backend):

* **Grouping.**  A stable argsort by set index groups each set's
  accesses contiguously while preserving per-set trace order, and the
  per-access transition functions of these policies only read/write
  state of the accessed set (plus NRU's global pointer, handled below),
  so each set's subsequence can be analysed independently.
* **Fit sets.**  When a set's distinct nonresident lines fit in its
  invalid ways, no eviction can occur in the window.  Classification is
  then trivial for all three kinds — an access misses iff it is the
  first touch of a nonresident line — and the k-th fill takes the k-th
  lowest invalid way (fills only clear invalid bits, never add them, so
  the bit order is static).  The recency state is reconstructed in one
  commit per set:

  - ``lru``: the final order prefix is the touched ways by last touch
    descending, then the untouched present ways in their prior relative
    order (fills and promotes only insert at the front and shift within
    the live prefix, so the stale tail beyond the final size is
    untouched — byte-identical to the scalar kernel, which the state
    digests of the fuzz oracle check).
  - ``nru``: every access ORs its way bit with a saturation reset.  If
    the initial bits united with all touched bits stay below the full
    mask, no reset can fire and the final value is the plain union;
    otherwise the (rare) set replays its bit sequence scalar.
  - ``bt``: the final tree results from composing the per-way promote
    maps ``f_w(t) = (t & keep[w]) | set[w]`` of the *distinct* touched
    ways in last-touch ascending order — each tree node's final bit is
    written by the latest-touched way beneath it, which that
    composition reproduces.

* **Non-fit LRU sets** are solved exactly with stack distances
  (cf. Monniaux & Touzeau, arXiv:1811.01740): prepend the set's
  residents as virtual accesses in LRU-to-MRU order (folding the
  invalid-fill growth phase into a pure LRU stack) and classify each
  access by its reuse depth — the number of distinct lines touched
  since the previous occurrence — hit iff depth < associativity.  The
  depth is ``N - p - 1`` where ``p`` is the previous occurrence's
  position and ``N`` counts earlier positions whose own previous
  occurrence is at most ``p``; ``N`` is evaluated for all unresolved
  queries at once by a level-doubling dominance count (one key sort and
  two ``searchsorted`` calls per power-of-two block size), after a
  vectorised shortcut resolves every access whose raw reuse *gap* is
  already below the associativity.  Victim ways follow from a pairing
  argument: successive victims have strictly increasing last-access
  positions, so the j-th evicting miss evicts exactly the j-th *dead
  instance* — an occurrence whose next occurrence is a miss, or a final
  occurrence outside the last ``assoc`` distinct lines — in position
  order.  Tenancy start positions (pointer doubling over the previous-
  occurrence links) then map every position to its physical way, and
  the final order/tag/dict state is committed once per set.
* **Non-fit BT sets** replay the scalar kernel body per set (the
  transition reads no cross-set state), with flags scattered back
  through the grouping permutation.
* **Non-fit NRU sets** share one scalar replay in *trace order* —
  NRU's replacement pointer is cache-global — with the pointer value at
  each miss reconstructed as ``(start + misses so far) mod assoc``: the
  pointer is a pure function of the global miss ordinal, and the fit
  sets' miss positions (known after classification) are merged in by a
  prefix count.  Fit and non-fit sets are disjoint, so the relative
  commit order of their state is unobservable.
* **Statistics** are pure sums, so committing them once per window
  instead of once per access is unobservable.  Every value written
  into shared state (tag dict, flat lists, per-set masks) is a plain
  Python ``int`` — the digest-based fuzz observables cannot distinguish
  the backends.

Purity discipline: the closures returned by the ``_*_array_kernel``
factories bind every helper and numpy callable at build time — the
``hot-path-purity`` lint rule checks them under the relaxed array
contract (allocations allowed at window granularity; global lookups and
attribute chains still banned).
"""

from __future__ import annotations

import numpy as np

#: Kernel kinds with an array implementation.
ELIGIBLE_KINDS = frozenset({"lru", "nru", "bt"})

#: Per-set masks (invalid/present/used) ride int64 numpy lanes.
_MAX_ASSOC = 62


def memo_stats() -> dict:
    """Constant zeros: the cold-window memo is gone (0 hits over whole
    reports).  Kept only because ``benchmarks/e2e/workloads.py`` reads
    these keys and only a benchmark PR may edit it — ROADMAP item 3
    drops the metric and this stub."""
    return {"cold_hits": 0, "cold_misses": 0, "cold_entries": 0}

class _Plan:
    """Shared per-window analysis products (one instance per call)."""

    __slots__ = (
        "n", "g_order", "g_lines", "seg_starts", "seg_ends", "seg_sets",
        "seg_sets_l", "seg_of", "uniq_l", "uid", "first_occ", "last_occ",
        "way_uid", "new_first", "n_new", "n_new_l", "inv_rows_l",
        "inv_cnt", "fit", "fit_acc", "n_segs",
    )


def _analyze(arr, set_mask, tag_get, invalid):
    """Group by set, build line-identity chains, split fit/non-fit."""
    p = _Plan()
    n = arr.size
    p.n = n
    sets = arr & set_mask
    if set_mask < 1 << 8:
        key = sets.astype(np.uint8)
    elif set_mask < 1 << 16:
        key = sets.astype(np.uint16)
    else:
        key = sets
    g_order = np.argsort(key, kind="stable")
    g_lines = arr[g_order]
    g_sets = sets[g_order]
    cuts = np.flatnonzero(g_sets[1:] != g_sets[:-1]) + 1
    seg_starts = np.concatenate((np.zeros(1, np.int64), cuts))
    seg_ends = np.concatenate((cuts, np.full(1, n, np.int64)))
    n_segs = seg_starts.size
    p.g_order = g_order
    p.g_lines = g_lines
    p.seg_starts = seg_starts
    p.seg_ends = seg_ends
    p.seg_sets = g_sets[seg_starts]
    p.seg_sets_l = p.seg_sets.tolist()
    p.seg_of = np.repeat(np.arange(n_segs, dtype=np.int64),
                         seg_ends - seg_starts)
    p.n_segs = n_segs

    uniq, uid = np.unique(g_lines, return_inverse=True)
    perm = np.argsort(uid, kind="stable")
    pu = uid[perm]
    first_sorted = np.empty(n, dtype=bool)
    first_sorted[0] = True
    np.not_equal(pu[1:], pu[:-1], out=first_sorted[1:])
    last_sorted = np.empty(n, dtype=bool)
    last_sorted[-1] = True
    np.not_equal(pu[1:], pu[:-1], out=last_sorted[:-1])
    first_occ = np.empty(n, dtype=bool)
    first_occ[perm] = first_sorted
    last_occ = np.empty(n, dtype=bool)
    last_occ[perm] = last_sorted
    p.uniq_l = uniq.tolist()
    p.uid = uid
    p.first_occ = first_occ
    p.last_occ = last_occ

    way_uid = [tag_get(u, -1) for u in p.uniq_l]
    p.way_uid = way_uid
    res_acc = np.asarray(way_uid, dtype=np.int64)[uid] >= 0
    new_first = first_occ & ~res_acc
    p.new_first = new_first
    p.n_new = np.add.reduceat(new_first.astype(np.int64), seg_starts)
    p.n_new_l = p.n_new.tolist()
    inv_rows_l = [invalid[s] for s in p.seg_sets_l]
    p.inv_rows_l = inv_rows_l
    p.inv_cnt = np.bitwise_count(
        np.asarray(inv_rows_l, dtype=np.int64)).astype(np.int64)
    p.fit = p.n_new <= p.inv_cnt
    p.fit_acc = p.fit[p.seg_of]
    return p


def _fit_fills(plan, assoc, tags, tag_map, invalid):
    """Assign invalid ways to the fit sets' new lines; commit tag state.

    The k-th new distinct line of a fit set takes the k-th lowest
    invalid way (no eviction can re-invalidate a way mid-window, so the
    bit order is static).  Updates ``plan.way_uid`` in place so callers
    can resolve a physical way for every fit-set access; returns
    ``(inv_work, new_ways, n_fills)`` where ``inv_work[j]`` is set
    ``j``'s residual invalid mask (committed here for fit sets) and
    ``new_ways[j]`` lists the fill ways in install order.
    """
    inv_work = list(plan.inv_rows_l)
    new_ways = [()] * plan.n_segs
    new_pos = np.flatnonzero(plan.new_first & plan.fit_acc)
    n_fills = new_pos.size
    if n_fills:
        segs = plan.seg_of[new_pos].tolist()
        uids = plan.uid[new_pos].tolist()
        lns = plan.g_lines[new_pos].tolist()
        way_uid = plan.way_uid
        sets_l = plan.seg_sets_l
        for j, u, line in zip(segs, uids, lns):
            m = inv_work[j]
            b = m & -m
            w = b.bit_length() - 1
            inv_work[j] = m ^ b
            way_uid[u] = w
            base = sets_l[j] * assoc
            tags[base + w] = line
            tag_map[line] = w
            ws = new_ways[j]
            new_ways[j] = ws + (w,)
        seen = set()
        for j in segs:
            if j not in seen:
                seen.add(j)
                invalid[sets_l[j]] = inv_work[j]
    return inv_work, new_ways, n_fills


def _way_per_access(plan):
    """Physical way per grouped access (-1 for unfilled non-fit lines)."""
    return np.asarray(plan.way_uid, dtype=np.int64)[plan.uid]


def _last_touch_matrix(plan, way_arr, rows, assoc):
    """(len(rows), assoc) matrix of last-touch grouped positions, -1 if
    untouched.  Rows index into ``rows`` (fit segments).  Safe scatter:
    within a fit set each way maps to exactly one line, so the last
    occurrences contribute at most one position per (row, way) cell."""
    row_of = np.full(plan.n_segs, -1, dtype=np.int64)
    row_of[rows] = np.arange(rows.size, dtype=np.int64)
    lt = np.full((rows.size, assoc), -1, dtype=np.int64)
    lp = np.flatnonzero(plan.last_occ & plan.fit_acc)
    if lp.size:
        lt[row_of[plan.seg_of[lp]], way_arr[lp]] = lp
    return lt


def _chains(cl):
    """Identity chains over a combined sequence: (prev, nxt, last_occ)."""
    t = cl.size
    _, uid = np.unique(cl, return_inverse=True)
    perm = np.argsort(uid, kind="stable")
    pu = uid[perm]
    same = np.zeros(t, dtype=bool)
    np.equal(pu[1:], pu[:-1], out=same[1:])
    prev = np.full(t, -1, dtype=np.int64)
    nxt = np.full(t, -1, dtype=np.int64)
    idx = np.flatnonzero(same)
    prev[perm[idx]] = perm[idx - 1]
    nxt[perm[idx - 1]] = perm[idx]
    last_occ = nxt < 0
    return prev, nxt, last_occ


def _pointer_double(ptr):
    """Resolve functional-graph pointers to their fixpoint roots."""
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            return ptr
        ptr = nxt


def _dominance_counts(loc, prev_loc, seg_base, active, q_idx, max_len):
    """``N[i] = #{k < i, same segment : prev_loc[k] <= prev_loc[i]}``
    for each query ``i`` in ``q_idx``, by level-doubling dominance
    counting: at block size ``2^h`` every pair ``k < i`` whose local
    positions first differ at bit ``h`` is counted via one sorted-key
    ``searchsorted`` (composite key = globally unique pair-block id, by
    the segment-start offset, times a stride plus ``prev_loc + 1``).
    ``active`` masks the contributor positions (segments that still
    have unresolved queries)."""
    m = max_len + 2
    n_q = q_idx.size
    counts = np.zeros(n_q, dtype=np.int64)
    loc_q = loc[q_idx]
    p_q = prev_loc[q_idx]
    base_q = seg_base[q_idx]
    h = 0
    while (1 << h) < max_len:
        half = 1 << h
        contrib = active & ((loc & half) == 0)
        qm = (loc_q & half) != 0
        if contrib.any() and qm.any():
            blk = seg_base + ((loc >> (h + 1)) << (h + 1))
            keys = blk[contrib] * m + (prev_loc[contrib] + 1)
            keys.sort()
            qblk = (base_q[qm] + ((loc_q[qm] >> (h + 1)) << (h + 1))) * m
            lo = np.searchsorted(keys, qblk)
            hi = np.searchsorted(keys, qblk + (p_q[qm] + 2))
            counts[qm] += hi - lo
        h += 1
    return counts


def _lru_nonfit(plan, nf_rows, assoc, full_mask, order, size, present,
                tags, tag_map, invalid, flags):
    """Exact vectorised solve of the non-fit LRU segments.

    Commits the final per-set state and the hit flags; returns
    ``(n_miss, n_fills)``.  See the module docstring for the stack-
    distance and eviction-pairing arguments.
    """
    g_lines = plan.g_lines
    g_order = plan.g_order
    seg_starts = plan.seg_starts
    seg_ends = plan.seg_ends
    sets_l = plan.seg_sets_l
    nf_list = nf_rows.tolist()
    n_nf = len(nf_list)

    # Combined sequence: per segment, residents as virtual accesses in
    # LRU-to-MRU order, then the segment's accesses in trace order.
    v_lines = []
    v_ways = []
    seg_lens = []
    for j in nf_list:
        s = sets_l[j]
        base = s * assoc
        ws = order[base:base + size[s]]
        ws.reverse()
        v_ways.append(ws)
        v_lines.append([tags[base + w] for w in ws])
        seg_lens.append(len(ws) + int(seg_ends[j] - seg_starts[j]))
    total = sum(seg_lens)
    cl = np.empty(total, dtype=np.int64)
    cway = np.full(total, -1, dtype=np.int64)
    is_acc = np.zeros(total, dtype=bool)
    gi = np.full(total, -1, dtype=np.int64)
    cseg = np.repeat(np.arange(n_nf, dtype=np.int64),
                     np.asarray(seg_lens, dtype=np.int64))
    seg_off = np.concatenate(
        (np.zeros(1, np.int64),
         np.cumsum(np.asarray(seg_lens, dtype=np.int64))[:-1]))
    off = 0
    for r, j in enumerate(nf_list):
        sz = len(v_ways[r])
        cl[off:off + sz] = v_lines[r]
        cway[off:off + sz] = v_ways[r]
        a = int(seg_starts[j])
        b = int(seg_ends[j])
        cl[off + sz:off + sz + b - a] = g_lines[a:b]
        is_acc[off + sz:off + sz + b - a] = True
        gi[off + sz:off + sz + b - a] = np.arange(a, b, dtype=np.int64)
        off += seg_lens[r]
    loc = np.arange(total, dtype=np.int64) - seg_off[cseg]
    seg_base = seg_off[cseg]
    max_len = max(seg_lens)

    prev, nxt, last_occ = _chains(cl)
    prev_loc = np.where(prev >= 0, loc[prev], -1)

    # Classification: miss iff no previous occurrence or depth >= assoc.
    # The raw reuse gap bounds the depth from above, resolving most
    # queries without the dominance count.
    has_prev = prev >= 0
    q = is_acc & has_prev
    hit = np.zeros(total, dtype=bool)
    gap = loc - prev_loc - 1
    hit[q & (gap < assoc)] = True
    hard = np.flatnonzero(q & (gap >= assoc))
    if hard.size:
        seg_has = np.zeros(n_nf, dtype=bool)
        seg_has[cseg[hard]] = True
        counts = _dominance_counts(loc, prev_loc, seg_base,
                                   seg_has[cseg], hard, max_len)
        hit[hard] = (counts - prev_loc[hard] - 1) < assoc
    miss = is_acc & ~hit

    # Miss ordinals -> invalid fills, then the eviction pairing.
    mi = np.flatnonzero(miss)
    mseg = cseg[mi]
    seg_first = np.searchsorted(mseg, np.arange(n_nf))
    k_ord = np.arange(mi.size, dtype=np.int64) - seg_first[mseg]
    inv_cnt_nf = plan.inv_cnt[nf_rows]
    fill_m = k_ord < inv_cnt_nf[mseg]
    inv_bits = []
    inv_off = []
    for j in nf_list:
        inv_off.append(len(inv_bits))
        v = plan.inv_rows_l[j]
        while v:
            b = v & -v
            inv_bits.append(b.bit_length() - 1)
            v ^= b
    if inv_bits:
        inv_bits_a = np.asarray(inv_bits, dtype=np.int64)
        inv_off_a = np.asarray(inv_off, dtype=np.int64)
        fmi = mi[fill_m]
        cway[fmi] = inv_bits_a[inv_off_a[mseg[fill_m]] + k_ord[fill_m]]
    ev = mi[~fill_m]

    # Dead instances: next occurrence is a miss, or a final occurrence
    # outside the segment's last `assoc` distinct lines.
    dead = np.zeros(total, dtype=bool)
    hn = np.flatnonzero(nxt >= 0)
    dead[hn] = miss[nxt[hn]]
    t_idx = np.flatnonzero(last_occ)
    tseg = cseg[t_idx]
    t_per_seg = np.bincount(tseg, minlength=n_nf)
    t_first = np.searchsorted(tseg, np.arange(n_nf))
    t_ord = np.arange(t_idx.size, dtype=np.int64) - t_first[tseg]
    surv_m = t_ord >= t_per_seg[tseg] - assoc
    dead[t_idx[~surv_m]] = True
    d_idx = np.flatnonzero(dead)
    if d_idx.size != ev.size:
        raise RuntimeError(
            f"lru array kernel: {ev.size} evictions vs {d_idx.size} dead "
            f"instances (window analysis is inconsistent)"
        )

    # Tenancy anchors, then way resolution through the eviction graph.
    self_idx = np.arange(total, dtype=np.int64)
    anchor = _pointer_double(np.where(hit, prev, self_idx))
    route = self_idx.copy()
    if ev.size:
        route[ev] = anchor[d_idx]
    route = _pointer_double(route)
    way_all = cway[route]

    # Final state: every set ends full; the order prefix is the last
    # `assoc` distinct lines by last occurrence, MRU first.
    surv = t_idx[surv_m]
    s_ways = way_all[anchor[surv]].reshape(n_nf, assoc)[:, ::-1].tolist()
    s_lines = cl[surv].reshape(n_nf, assoc)[:, ::-1].tolist()
    # Evicted-and-not-reinstalled lines are exactly the dead terminals;
    # only those resident at window start (still in the map here — the
    # commit below has not touched these sets yet) need unbinding.
    for line in cl[t_idx[~surv_m]].tolist():
        if line in tag_map:
            del tag_map[line]
    for r, j in enumerate(nf_list):
        s = sets_l[j]
        base = s * assoc
        ways_row = s_ways[r]
        lines_row = s_lines[r]
        order[base:base + assoc] = ways_row
        for w, line in zip(ways_row, lines_row):
            tags[base + w] = line
            tag_map[line] = w
        size[s] = assoc
        present[s] = full_mask
        invalid[s] = 0

    hi_acc = np.flatnonzero(hit)
    flags[g_order[gi[hi_acc]]] = 1
    return int(mi.size), int(inv_cnt_nf.sum())


def _lru_run(arr, flags8, set_mask, assoc, full_mask, order, size,
             present, tags, tag_map, invalid):
    """LRU window body over the cache's flat state; ``(miss, inv)``."""
    plan = _analyze(arr, set_mask, tag_map.get, invalid)
    n_miss = 0
    n_inv = 0

    nf_rows = np.flatnonzero(~plan.fit)
    if nf_rows.size:
        m, f = _lru_nonfit(plan, nf_rows, assoc, full_mask, order, size,
                           present, tags, tag_map, invalid, flags8)
        n_miss += m
        n_inv += f

    inv_work, _, n_fills = _fit_fills(plan, assoc, tags, tag_map,
                                      invalid)
    n_miss += n_fills
    n_inv += n_fills
    fit_rows = np.flatnonzero(plan.fit)
    if fit_rows.size:
        way_arr = _way_per_access(plan)
        lt = _last_touch_matrix(plan, way_arr, fit_rows, assoc)
        args = np.argsort(-lt, axis=1, kind="stable").tolist()
        tcount = np.count_nonzero(lt >= 0, axis=1).tolist()
        sets_l = plan.seg_sets_l
        inv_rows_l = plan.inv_rows_l
        n_new_l = plan.n_new_l
        for r, j in zip(range(len(args)), fit_rows.tolist()):
            s = sets_l[j]
            base = s * assoc
            touched = args[r][:tcount[r]]
            tb = 0
            for w in touched:
                tb |= 1 << w
            old_sz = size[s]
            new_sz = old_sz + n_new_l[j]
            rest = [w for w in order[base:base + old_sz]
                    if not (tb >> w) & 1]
            order[base:base + new_sz] = touched + rest
            size[s] = new_sz
            present[s] |= inv_rows_l[j] & ~inv_work[j]
        fit_hits = np.flatnonzero(plan.fit_acc & ~plan.new_first)
        flags8[plan.g_order[fit_hits]] = 1
    return n_miss, n_inv


def _lru_array_kernel(cache):
    """LRU: stack-distance classification + batched order rebuild."""
    policy = cache.policy
    store = cache.state
    set_mask = store.num_sets - 1
    assoc = store.assoc
    full_mask = store.full_mask
    tag_map = store.map
    tags = store.lines
    invalid = store.invalid
    order = policy._order
    size = policy._size
    present = policy._present
    stats = cache.stats
    accesses = stats.accesses
    misses = stats.misses
    fills_invalid = stats.fills_invalid
    lru_run = _lru_run
    np_asarray = np.asarray
    np_int64 = np.int64
    np_uint8 = np.uint8
    np_frombuffer = np.frombuffer
    py_len = len

    def run_window(lines, flags):
        n = py_len(lines)
        if not n:
            return
        flags8 = np_frombuffer(flags, dtype=np_uint8)
        arr = np_asarray(lines, dtype=np_int64)
        n_miss, n_inv = lru_run(arr, flags8, set_mask, assoc, full_mask,
                                order, size, present, tags, tag_map,
                                invalid)
        accesses[0] += n
        misses[0] += n_miss
        fills_invalid[0] += n_inv

    return run_window


def _nru_run(arr, flags8, set_mask, assoc, full_mask, tags, tag_map,
             invalid, used_l, pointer):
    """NRU window body over the cache's flat state; ``(miss, inv)``."""
    tag_get = tag_map.get
    plan = _analyze(arr, set_mask, tag_get, invalid)
    n_miss = 0
    n_inv = 0

    _, _, n_fills = _fit_fills(plan, assoc, tags, tag_map, invalid)
    n_miss += n_fills
    n_inv += n_fills
    sets_l = plan.seg_sets_l
    fit_rows = np.flatnonzero(plan.fit)
    if fit_rows.size:
        way_arr = _way_per_access(plan)
        bits = np.where(way_arr >= 0,
                        np.left_shift(np.int64(1), way_arr), 0)
        unions = np.bitwise_or.reduceat(bits, plan.seg_starts)[fit_rows]
        seg_starts = plan.seg_starts
        seg_ends = plan.seg_ends
        for j, union in zip(fit_rows.tolist(), unions.tolist()):
            s = sets_l[j]
            u0 = used_l[s]
            if (u0 | union) != full_mask:
                used_l[s] = u0 | union
            else:
                a = seg_starts[j]
                b = seg_ends[j]
                u = u0
                for w in way_arr[a:b].tolist():
                    bit = 1 << w
                    u |= bit
                    if u == full_mask:
                        u = bit
                used_l[s] = u
        fit_hits = np.flatnonzero(plan.fit_acc & ~plan.new_first)
        flags8[plan.g_order[fit_hits]] = 1

    # Non-fit residue: one scalar replay in trace order with the
    # pointer reconstructed from the global miss ordinal.
    ptr0 = pointer[0]
    nf_acc = np.flatnonzero(~plan.fit_acc)
    if nf_acc.size:
        orig = plan.g_order[nf_acc]
        o_sort = np.argsort(orig)
        r_orig = orig[o_sort].tolist()
        r_lines = plan.g_lines[nf_acc][o_sort].tolist()
        f_pos = np.sort(
            plan.g_order[np.flatnonzero(plan.new_first & plan.fit_acc)])
        fmb = np.searchsorted(f_pos, orig[o_sort]).tolist()
        own = 0
        i = 0
        for line in r_lines:
            way = tag_get(line)
            s = line & set_mask
            if way is not None:
                bit = 1 << way
                used = used_l[s] | bit
                used_l[s] = bit if used == full_mask else used
                flags8[r_orig[i]] = 1
                i += 1
                continue
            n_miss += 1
            base = s * assoc
            ptr = ptr0 + fmb[i] + own
            if ptr >= assoc:
                ptr %= assoc
            inv = invalid[s]
            if inv:
                way = (inv & -inv).bit_length() - 1
                invalid[s] = inv & ~(1 << way)
                n_inv += 1
                used = used_l[s]
            else:
                used = used_l[s]
                if used == full_mask:
                    used = 0
                hi = (full_mask & ~used) >> ptr
                if hi:
                    way = ptr + (hi & -hi).bit_length() - 1
                else:
                    free = full_mask & ~used
                    way = (free & -free).bit_length() - 1
                del tag_map[tags[base + way]]
            tags[base + way] = line
            tag_map[line] = way
            bit = 1 << way
            used |= bit
            used_l[s] = bit if used == full_mask else used
            own += 1
            i += 1

    if n_miss:
        pointer[0] = (ptr0 + n_miss) % assoc
    return n_miss, n_inv


def _nru_array_kernel(cache):
    """NRU: used-bit unions per fit set; pointer-exact merged residue."""
    policy = cache.policy
    store = cache.state
    set_mask = store.num_sets - 1
    assoc = store.assoc
    full_mask = store.full_mask
    tag_map = store.map
    tags = store.lines
    invalid = store.invalid
    used_l = policy._used
    pointer = policy._pointer_box
    stats = cache.stats
    accesses = stats.accesses
    misses = stats.misses
    fills_invalid = stats.fills_invalid
    nru_run = _nru_run
    np_asarray = np.asarray
    np_int64 = np.int64
    np_uint8 = np.uint8
    np_frombuffer = np.frombuffer
    py_len = len

    def run_window(lines, flags):
        n = py_len(lines)
        if not n:
            return
        flags8 = np_frombuffer(flags, dtype=np_uint8)
        arr = np_asarray(lines, dtype=np_int64)
        n_miss, n_inv = nru_run(arr, flags8, set_mask, assoc, full_mask,
                                tags, tag_map, invalid, used_l, pointer)
        accesses[0] += n
        misses[0] += n_miss
        fills_invalid[0] += n_inv

    return run_window


def _bt_run(arr, flags8, set_mask, assoc, tags, tag_map, invalid, tree,
            keep, setb, table):
    """BT window body over the cache's flat state; ``(miss, inv)``."""
    tag_get = tag_map.get
    plan = _analyze(arr, set_mask, tag_get, invalid)
    n_miss = 0
    n_inv = 0

    _, _, n_fills = _fit_fills(plan, assoc, tags, tag_map, invalid)
    n_miss += n_fills
    n_inv += n_fills
    sets_l = plan.seg_sets_l
    fit_rows = np.flatnonzero(plan.fit)
    if fit_rows.size:
        way_arr = _way_per_access(plan)
        lt = _last_touch_matrix(plan, way_arr, fit_rows, assoc)
        args = np.argsort(lt, axis=1, kind="stable").tolist()
        ucount = np.count_nonzero(lt >= 0, axis=1).tolist()
        for r, j in zip(range(len(args)), fit_rows.tolist()):
            s = sets_l[j]
            t = tree[s]
            for w in args[r][assoc - ucount[r]:]:
                t = (t & keep[w]) | setb[w]
            tree[s] = t
        fit_hits = np.flatnonzero(plan.fit_acc & ~plan.new_first)
        flags8[plan.g_order[fit_hits]] = 1

    # Evicting sets: per-set scalar replay of the loop-kernel body.
    g_lines = plan.g_lines
    g_order = plan.g_order
    seg_starts = plan.seg_starts
    seg_ends = plan.seg_ends
    for j in np.flatnonzero(~plan.fit).tolist():
        s = sets_l[j]
        base = s * assoc
        a = seg_starts[j]
        b = seg_ends[j]
        seg_orig = g_order[a:b].tolist()
        t = tree[s]
        inv = invalid[s]
        i = 0
        for line in g_lines[a:b].tolist():
            way = tag_get(line)
            if way is not None:
                t = (t & keep[way]) | setb[way]
                flags8[seg_orig[i]] = 1
                i += 1
                continue
            n_miss += 1
            if inv:
                way = (inv & -inv).bit_length() - 1
                inv &= ~(1 << way)
                n_inv += 1
            else:
                way = table[t]
                old = tags[base + way]
                if old >= 0:
                    del tag_map[old]
                else:
                    inv &= ~(1 << way)
                    n_inv += 1
            tags[base + way] = line
            tag_map[line] = way
            t = (t & keep[way]) | setb[way]
            i += 1
        tree[s] = t
        invalid[s] = inv
    return n_miss, n_inv


def _bt_array_kernel(cache):
    """BT: last-touch promote composition; evicting sets replayed."""
    policy = cache.policy
    if policy._victim_table is None or policy._force:
        return None
    store = cache.state
    set_mask = store.num_sets - 1
    assoc = store.assoc
    tag_map = store.map
    tags = store.lines
    invalid = store.invalid
    tree = policy._tree
    keep = policy._touch_keep
    setb = policy._touch_set
    table = policy._victim_table
    stats = cache.stats
    accesses = stats.accesses
    misses = stats.misses
    fills_invalid = stats.fills_invalid
    bt_run = _bt_run
    np_asarray = np.asarray
    np_int64 = np.int64
    np_uint8 = np.uint8
    np_frombuffer = np.frombuffer
    py_len = len

    def run_window(lines, flags):
        n = py_len(lines)
        if not n:
            return
        flags8 = np_frombuffer(flags, dtype=np_uint8)
        arr = np_asarray(lines, dtype=np_int64)
        n_miss, n_inv = bt_run(arr, flags8, set_mask, assoc, tags, tag_map,
                               invalid, tree, keep, setb, table)
        accesses[0] += n
        misses[0] += n_miss
        fills_invalid[0] += n_inv

    return run_window


_ARRAY_KERNELS = {
    "lru": _lru_array_kernel,
    "nru": _nru_array_kernel,
    "bt": _bt_array_kernel,
}


def build(cache):
    """Array kernel for ``cache``, or ``None`` when ineligible.

    Eligible: unpartitioned caches (candidate masks and fill hooks are
    partition machinery the array commits bypass), kernel kind in
    :data:`ELIGIBLE_KINDS`, associativity small enough for int64 mask
    lanes, and — for BT — a precomputed victim table with no force
    vectors.  Policies without a kernel kind stay on the python
    backend's loop over the generic ``access_line_hit``.
    """
    if cache.partition is not None:
        return None
    if cache.state.assoc > _MAX_ASSOC:
        return None
    factory = _ARRAY_KERNELS.get(getattr(cache.policy, "kernel_kind", ""))
    return None if factory is None else factory(cache)
