"""Separated- and spanning-set counting over orbit pools.

Three separation senses on a pool of equal-length orbits:

* ``dinh_sibony``   - a pair separates if some point distance exceeds eps OR
                      some label differs;
* ``friedland``     - labels are ignored, itineraries only;
* ``per_word``      - the pool is filtered to one label word, points only.

Because label words partition a pool into blocks with no cross-block
conflicts (different words always separate), the maximum separated family in
the symbol-aware sense is exactly the sum of per-word maxima. The counter
exploits that: blocks at or below the exact cutoff get a branch-and-bound
maximum independent set of the conflict graph, larger blocks fall back to a
seeded greedy maximal family and report ``exact=False``. Greedy families are
certified lower bounds, which is the useful direction when the counts feed a
sup/limsup growth estimate. The branch and bound refuses, with
BudgetExceeded, to branch on a connected component of more than
JOINT_CUTOFF orbits. Every count takes an ``OrbitPool`` and raises EmptyPool
on an empty one.

Every count takes its conflict (not separated) pairs from one walk. Two
orbits conflict iff their x_0 are within eps and their suffixes are equal
or conflict, so the walk goes from x_nu down to x_0 and tests only sibling
classes of equal suffixes and the children of the pairs that conflicted a
step earlier (the dual-tree recursion of Gray and Moore, NIPS 2000). On a
backward tree the classes are its nodes and a step costs its siblings and
the children of its conflicts; a pool with no shared suffix, such as
forward orbits, tests all k^2 pairs at x_nu. The classes and their sibling
pairs depend on the rows only: they make a plan, the walk's only input.
A walk tests about TEST_SLICE candidate pairs at a time, so that it holds
little beyond the pairs it lists.

The counts of an eps grid share one pool's plan, word blocks and pair
list, which ``_count_classes`` builds once per pool and mode. A pair that
conflicts at eps conflicts at every larger eps, so one walk at the grid's
largest eps lists every pair of the grid with its distance d, the largest
test value it passed; the pairs at eps are those with d <= eps, the very
pairs of a walk at eps, so each cell filters the list and walks none.
Where a key of that walk would test more than PAIR_BUDGET children of
conflicting pairs, as on a dense pool, there is no list, and each count
walks, as does a count at an eps above the list's or one with no shared
classes. The greedy asks only for the pairs of orbits that may still
join. Its first call starts from one row, so where a few members
conflict with most orbits a walk lists about their pairs, not all k^2;
each later call takes as many rows as the last call's pairs per row
allow within WALK_PAIRS pairs, so a count takes about two calls.

The spanning and shift-orbit counts take their pairs from the same walk,
with a radius per column. To the horizon h the shifted metric weighs
column k (x_k and a_{k+1}) by w_k = 2^-max(k-h, 0). As w_k is a power of
two, d w_k <= eps holds iff d <= eps / w_k, so column k gets that radius;
where w_k <= eps the column cannot separate (d <= 1), so it is not tested
and its labels are not compared. The pairs are those of the shifted
metric exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import logging
import math

import numpy as np

from .errors import BudgetExceeded, DepthMismatch, EmptyPool, MixedNu
from .orbits import OrbitPool

EXACT_CUTOFF = 20
JOINT_CUTOFF = 32
WALK_PAIRS = 4096  # about how many conflict pairs a greedy walk lists
TEST_SLICE = 4096  # about how many candidate pairs a walk tests at a time
PAIR_BUDGET = 1 << 20  # children of conflicting pairs a key of a pair list may test

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SeparationCount:
    """One counted cell: the family size at a given (epsilon, nu, mode)."""

    epsilon: float
    nu: int
    mode: str
    count: int
    pool_size: int
    exact: bool


def _check_pool(pool, epsilon, closed=False):
    """EmptyPool, or ValueError unless 0 < eps < 1 (eps <= 1 when closed)."""
    if len(pool) == 0:
        raise EmptyPool("cannot count an empty pool")
    _check_epsilon(epsilon, closed)


def _check_epsilon(epsilon, closed=False):
    if not (0.0 < epsilon < 1.0 or closed and epsilon == 1.0):
        raise ValueError("epsilon must lie in " + ("(0, 1]" if closed else "(0, 1)"))


def _word_blocks(symbols):
    """(words, ids, blocks): the distinct label words in sorted order, each
    row's index into them, and each word's rows in pool order."""
    k, nu = symbols.shape
    # (np.unique(axis=0) sorts the same way, some ten times slower)
    order = np.lexsort(symbols.T[::-1]) if nu else np.arange(k)
    rows = symbols[order]
    first = np.ones(k, dtype=bool)  # the first row of each word in sorted order
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    ids = np.empty(k, dtype=np.intp)
    ids[order] = np.cumsum(first) - 1
    blocks = np.split(np.argsort(ids, kind="stable"),
                      np.cumsum(np.bincount(ids))[:-1])
    return [tuple(w) for w in rows[first].tolist()], ids, blocks


def _count_classes(pool: OrbitPool, mode: str, top: float | None = None):
    """(plan, words, ids, blocks, listed): what the counts of the pool in
    the mode share at every eps. The walk plan has labels unless in
    friedland mode, where the words are None and every row is in one
    block; otherwise they are ``_word_blocks(pool.symbols)``.

    ``listed`` is None, or, when ``top`` (the largest eps to count) is
    given, (top, i, j, d): the conflict pairs at eps top with their
    distances, so that the pairs at any eps <= top are those with d <= eps.
    It is None too when the children of a key's conflicting pairs are more
    than PAIR_BUDGET; the counts then walk."""
    if mode not in ("per_word", "friedland", "dinh_sibony"):
        raise ValueError(f"unknown mode {mode!r}")
    plan = _walk_plan(pool, mode != "friedland")
    listed = None
    if top is not None:
        _check_epsilon(top)
        try:
            listed = (top, *_conflict_pairs(plan, top, budget=PAIR_BUDGET))
            log.info("pair list: mode=%s nu=%d eps=%g pairs=%d",
                     mode, pool.nu, top, len(listed[1]))
        except BudgetExceeded as exc:
            log.info("pair list: mode=%s nu=%d eps=%g none: %s (PAIR_BUDGET=%d)",
                     mode, pool.nu, top, exc, PAIR_BUDGET)
    if mode == "friedland":
        return (plan, None, np.zeros(len(pool), dtype=np.intp),
                [np.arange(len(pool))], listed)
    return (plan, *_word_blocks(pool.symbols), listed)


def count_separated(pool: OrbitPool, epsilon: float, mode: str, word=None,
                    seed: int | None = 0, exact_cutoff: int = EXACT_CUTOFF,
                    classes=None) -> SeparationCount:
    """Size of a maximal separated family in the requested sense.

    Exact (maximum) when every counted block is at most ``exact_cutoff``
    orbits; otherwise a seeded greedy maximal family with ``exact=False``.
    ``word`` is required in per_word mode and ignored otherwise.
    ``classes`` is ``_count_classes(pool, mode, top)``, built here (with no
    pair list) when None; the counts of one pool in one mode at several eps
    can share it.
    """
    _check_pool(pool, epsilon)
    plan, words, ids, blocks, listed = (_count_classes(pool, mode) if classes is None
                                        else classes)
    pairs = _pair_source(plan, epsilon, listed)
    label = mode
    counted = range(len(blocks))
    if mode == "per_word":
        if word is None:
            raise ValueError("per_word mode needs the word to filter on")
        word = tuple(int(a) for a in word)
        if word not in words:
            raise EmptyPool(f"no orbits with word {word}")
        label, counted = "per_word" + repr(word), [words.index(word)]
    small = [b for b in counted if len(blocks[b]) <= max(exact_cutoff, 1)]
    large = [b for b in counted if len(blocks[b]) > max(exact_cutoff, 1)]
    count = 0
    if small:
        split = _split_pairs(*pairs(np.isin(ids, small)), ids, blocks)
        count += sum(_mis_exact(_masks(len(blocks[b]), *split[b])) for b in small)
    if large:
        # no pair crosses blocks, so one greedy walks every block's own order;
        # a block's shuffle depends on its size only
        shuffles = {} if seed is None else {
            n: np.random.default_rng(seed).permutation(n) for n in {len(blocks[b]) for b in large}}
        order = np.concatenate([blocks[b][shuffles[len(blocks[b])]] if shuffles else blocks[b]
                                for b in large])
        kept, degrees = _greedy(pairs, order, len(pool))
        family = np.bincount(ids[kept], minlength=len(blocks))
        touched = np.bincount(ids[kept], weights=degrees, minlength=len(blocks))
        for b in large:
            log.info("greedy count: mode=%s eps=%g nu=%d block=%d family=%d pairs=%d",
                     label, epsilon, pool.nu, len(blocks[b]), family[b], touched[b])
        count += len(kept)
    return SeparationCount(epsilon, pool.nu, label, count, len(pool), not large)


def _pair_source(plan, epsilon, listed=None):
    """The pair source of a count at eps: a function of a source mask that
    gives the conflict pairs with a source, as ``_conflict_pairs(plan, eps,
    sources)`` does. It filters the listed pairs (see ``_count_classes``)
    when they reach eps, and walks the plan otherwise."""
    if listed is None or epsilon > listed[0]:
        return lambda sources: _conflict_pairs(plan, epsilon, sources)
    _, i, j, d = listed
    near = d <= epsilon
    i, j = i[near], j[near]

    def source(sources):
        keep = sources[i] | sources[j]
        return i[keep], j[keep]
    return source


def _conflict_pairs(plan, radius, sources=None, budget=None):
    """(i, j): every row pair i < j of the plan's pool, one of them in
    ``sources`` (a row mask, all rows when None), whose test value
    |a0 b1 - a1 b0| with a row j is at most the radius in every column, and
    in a plan with labels whose labels agree. ``plan`` is
    ``_walk_plan(pool, labels)``; walks over the same rows share it.
    ``radius`` is a number or one per column; a column of infinite radius
    is not tested, and its labels are not compared.

    With a ``budget`` the walk returns (i, j, d), d being each pair's
    distance: the largest of the test values it passed, which a pair
    carries from its parents to its children. For a number radius, a walk
    at any r <= radius lists exactly the pairs with d <= r. It raises
    BudgetExceeded, before it builds them, when the children of a key's
    conflicting pairs are more than ``budget``.

    The keys run x_nu, a_nu, x_{nu-1}, ..., a_1, x_0 (labels only in a plan
    with labels). A class of a key is a run of rows equal in it and in every
    key before (the rows, at x_0), so it lies in one class of the key
    before, its parent. Two classes conflict iff they pass the key's test
    and their parents are one class or conflict: each key tests siblings
    and the children of conflicting pairs, those with a source only. Equal
    keys in different runs make classes that conflict, so row order does
    not matter. Canonical rows have real h0, so each product, and the test
    value, has the same bits whichever row is a.
    """
    radius = np.broadcast_to(radius, plan[0][0] + 1)  # the first key is x_nu
    pa = pb = np.zeros(0, dtype=np.intp)  # the previous key's conflicting class pairs
    pd = np.zeros(0)  # and their distances
    for c, label, first, heads, stops, (sx, sy), values in plan:
        wanted = None if sources is None else np.logical_or.reduceat(sources, first)

        def conflicts(x, y, d):
            """The candidate pairs (x, y), at distance d before this key,
            that conflict, and their distances."""
            if wanted is not None:
                keep = wanted[x] | wanted[y]
                x, y, d = x[keep], y[keep], d[keep]
            if label:
                close = (values[x] == values[y]) | (radius[c] == np.inf)
            else:
                test = np.abs(values[0][y] * values[1][x] - values[1][y] * values[0][x])
                close, d = test <= radius[c], np.maximum(d, test)
            return x[close], y[close], d[close]

        size = (stops[pa] - heads[pa]) * (stops[pb] - heads[pb])  # children per pair
        if budget is not None and size.sum() > budget:
            raise BudgetExceeded(f"{size.sum()} candidate pairs at one key, over {budget}")
        # the siblings (whose parents are one class, at distance 0), then the
        # children of each conflicting pair, about TEST_SLICE candidates at a
        # time, so that the walk's temporaries stay that small
        parts = [conflicts(sx[n:n + TEST_SLICE], sy[n:n + TEST_SLICE],
                           np.zeros(min(TEST_SLICE, len(sx) - n)))
                 for n in range(0, len(sx), TEST_SLICE)]
        part = (np.cumsum(size) - size) // TEST_SLICE
        cuts = np.append(np.flatnonzero(np.diff(part, prepend=-1)), len(pa)).tolist()
        for lo, hi in zip(cuts, cuts[1:]):
            t, u = _ranges(heads[pa[lo:hi]], stops[pa[lo:hi]])
            s, v = _ranges(heads[pb[lo:hi]][t], stops[pb[lo:hi]][t])
            parts.append(conflicts(u[s], v, pd[lo:hi][t[s]]))
        # (the empty triple stands in for a key with no candidates)
        pa, pb, pd = map(np.concatenate, zip(*parts, (pa[:0], pb[:0], pd[:0])))
    return (pa, pb) if budget is None else (pa, pb, pd)


def _walk_plan(pool, labels):
    """The classes of each key of ``_conflict_pairs`` over the pool's rows,
    with the label keys when ``labels``: per key its column c, whether it
    is a label, each class's first row, the first class (head) and the end
    (stop) of each parent's children, the pairs of each class with its
    later siblings, and each class's value in the key (its label, or its h0
    and h1). The last key's classes are the rows."""
    h0, h1, symbols = pool.h0, pool.h1, pool.symbols
    start = np.arange(len(pool)) == 0  # first rows of the previous key's classes
    keys = [(c, False) for c in range(pool.nu, -1, -1)]
    if labels:  # a_{c+1} splits a class of x_{c+1} before x_c
        keys[1:] = [(c, label) for c, _ in keys[1:] for label in (True, False)]
    plan = []
    for c, label in keys:
        split = start.copy()
        if label:
            split[1:] |= symbols[1:, c] != symbols[:-1, c]
        elif c:
            split[1:] |= (h0[1:, c] != h0[:-1, c]) | (h1[1:, c] != h1[:-1, c])
        else:
            split[:] = True  # the last key's classes are the rows
        first = np.flatnonzero(split)  # each class's first row
        born = start[first]            # whether it is its parent's first child
        heads = np.flatnonzero(born)
        stops = np.append(heads[1:], len(first))  # end of each parent's children
        # each class with its later siblings
        siblings = _ranges(np.arange(1, len(first) + 1), stops[np.cumsum(born) - 1])
        values = symbols[first, c] if label else (h0[first, c], h1[first, c])
        plan.append((c, label, first, heads, stops, siblings, values))
        start = split
    return plan


def _ranges(starts, stops):
    """(t, n) for every n in starts[t]..stops[t]-1, t in turn."""
    lengths = stops - starts
    t = np.repeat(np.arange(len(starts)), lengths)
    skip = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return t, starts[t] + np.arange(len(t)) - skip


def _split_pairs(i, j, ids, blocks):
    """Each block's pairs in the block's own row numbers (a block's rows
    ascend, and no pair crosses blocks)."""
    by = np.argsort(ids[i], kind="stable")
    cuts = np.cumsum(np.bincount(ids[i], minlength=len(blocks)))[:-1]
    return [(np.searchsorted(rows, i[s]), np.searchsorted(rows, j[s]))
            for rows, s in zip(blocks, np.split(by, cuts))]


def _greedy(pairs, order, k):
    """(family, degrees): the greedy maximal family in the order it joined,
    and each member's number of conflict pairs.

    Walking ``order`` (an array of rows out of k), a row joins unless it
    conflicts with a member. The rows that may still join are settled a
    batch at a time by one call of ``pairs``, a pair source (see
    ``_pair_source``), with them as sources. A member is a source of the
    call that settles it, so it blocks all its neighbours, and any batch
    gives the same family. The first batch is one row, so a dense conflict
    graph lists little beyond its members' pairs; each later batch takes
    as many rows as the last call's pairs per source allow within
    WALK_PAIRS pairs, and at least len(family) + 1. (Rows that conflict
    more than the last batch's make a walk list more than WALK_PAIRS.)
    """
    blocked = np.zeros(k, dtype=bool)
    kept, degrees, size = [], [], 1
    while len(order):
        batch, order = order[:size], order[size:]
        mask = np.zeros(k, dtype=bool)
        mask[batch] = True
        i, j = pairs(mask)
        ends, near = np.concatenate([i, j]), np.concatenate([j, i])
        near = near[np.argsort(ends, kind="stable")].tolist()
        ptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=k))])
        lo, hi = ptr[batch], ptr[batch + 1]
        # blocked rows left the order, and a row the call paired with nothing
        # conflicts with no row: it joins and blocks nothing. A paired row
        # joins unless a member before it in the batch blocks it.
        joins = lo == hi
        paired = np.flatnonzero(~joins)
        hit = set()
        for n, r, a, b in zip(paired.tolist(), batch[paired].tolist(),
                              lo[paired].tolist(), hi[paired].tolist()):
            if r not in hit:
                joins[n] = True
                hit.update(near[a:b])
        blocked[list(hit)] = True
        kept += batch[joins].tolist()
        degrees += (hi - lo)[joins].tolist()
        order = order[~blocked[order]]
        size = max(len(kept) + 1, WALK_PAIRS * len(batch) // max(len(i), 1))
    return kept, degrees


def _masks(k, i, j):
    """Bitmask adjacency of the conflict graph with pairs (i, j)."""
    adj = [0] * k
    for x, y in zip(i.tolist(), j.tolist()):
        adj[x] |= 1 << y
        adj[y] |= 1 << x
    return adj


def _mis_exact(adj) -> int:
    """Maximum independent set size by branch and bound with memoization.

    Raises BudgetExceeded rather than branch on a connected component of
    more than JOINT_CUTOFF vertices."""
    n = len(adj)
    memo: dict[int, int] = {}

    def best(mask: int) -> int:
        if mask == 0:
            return 0
        hit = memo.get(mask)
        if hit is not None:
            return hit
        # vertices isolated within the mask always join the set
        m, picked, residual = mask, 0, mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if adj[v] & residual == 0:
                picked += 1
                residual &= ~(1 << v)
        if residual == 0:
            memo[mask] = picked
            return picked
        # a disjoint union's maximum is the sum of its parts': split off the
        # component of the lowest residual vertex
        part, grow = 0, residual & -residual
        while grow:
            part |= grow
            m, grow = grow, 0
            while m:
                grow |= adj[(m & -m).bit_length() - 1]
                m &= m - 1
            grow &= residual & ~part
        if part != residual:
            out = picked + best(part) + best(residual & ~part)
            memo[mask] = out
            return out
        if bin(residual).count("1") > JOINT_CUTOFF:
            raise BudgetExceeded(
                f"exact maximum limited to conflict components of {JOINT_CUTOFF} orbits")
        # branch on a maximum-degree vertex of the residual graph
        v_best, deg_best, mm = -1, -1, residual
        while mm:
            v = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            deg = bin(adj[v] & residual).count("1")
            if deg > deg_best:
                v_best, deg_best = v, deg
        take = 1 + best(residual & ~(adj[v_best] | (1 << v_best)))
        skip = best(residual & ~(1 << v_best))
        out = picked + max(take, skip)
        memo[mask] = out
        return out

    return best((1 << n) - 1)


def sum_up_partition(pool, epsilon: float):
    """Exact per-word maxima and the exact joint maximum, independently.

    The joint count deliberately runs a monolithic branch and bound over the
    whole pool (symbol-aware conflicts) instead of summing the per-word
    blocks, so the partition identity it returns is a genuine cross-check of
    the counting engine rather than a restatement of it.

    Returns (per_word: dict word -> count, joint: int, equal: bool).
    """
    _check_pool(pool, epsilon)
    if len(pool) > JOINT_CUTOFF:
        raise BudgetExceeded(
            f"joint exact count limited to pools of {JOINT_CUTOFF} orbits")
    words, _, blocks = _word_blocks(pool.symbols)
    per_word = {}
    for w, rows in zip(words, blocks):
        if len(rows) > EXACT_CUTOFF:
            raise BudgetExceeded("per-word block too large for exact counting")
        per_word[w] = _mis_exact(_masks(len(rows), *_conflict_pairs(
            _walk_plan(pool[rows], False), epsilon)))
    joint = _mis_exact(_masks(len(pool), *_conflict_pairs(
        _walk_plan(pool, True), epsilon)))
    return per_word, joint, joint == sum(per_word.values())


# -- spanning numbers and shift-orbit counts ------------------------------------


def spanning_number(pool: OrbitPool, epsilon: float, n: int) -> tuple[int, bool]:
    """(count, exact): the size of a minimum eps-spanning subset of the pool.

    y spans x when the shifted path distance stays at most eps for n steps
    (j = 0..n-1). Minimum set cover is exact for pools up to EXACT_CUTOFF and
    greedy, with exact False, above it.
    """
    _check_pool(pool, epsilon, closed=True)
    if n < 1:
        raise ValueError("spanning horizon must be at least 1")
    if pool.nu < n:
        raise DepthMismatch(f"pool depth {pool.nu} below horizon {n}")
    k = len(pool)
    covers = [m | 1 << y for y, m in
              enumerate(_masks(k, *_shift_pairs(pool, epsilon, n - 1)))]
    full = (1 << k) - 1
    if k <= EXACT_CUTOFF:
        return _min_cover_exact(covers, full), True
    return _min_cover_greedy(covers, full), False


def _shift_pairs(pool, epsilon, horizon):
    """The conflict pairs of the shifted metric to the horizon: column k has
    radius eps / w_k, and none where w_k = 2^-max(k - horizon, 0) <= eps."""
    w = 0.5 ** np.maximum(np.arange(pool.nu + 1) - horizon, 0)
    return _conflict_pairs(_walk_plan(pool, True),
                           np.where(w > epsilon, epsilon / w, np.inf))


def _min_cover_exact(covers, full):
    from itertools import combinations
    k = len(covers)
    upper = _min_cover_greedy(covers, full)
    for size in range(1, upper):
        for combo in combinations(range(k), size):
            m = 0
            for c in combo:
                m |= covers[c]
            if m == full:
                return size
    return upper


def _min_cover_greedy(covers, full):
    uncovered = full
    picked = 0
    while uncovered:
        gain, choice = -1, -1
        for i, c in enumerate(covers):
            g = bin(c & uncovered).count("1")
            if g > gain:
                gain, choice = g, i
        uncovered &= ~covers[choice]
        picked += 1
    return picked


def bowen_orbit_count(pool: OrbitPool, epsilon: float, horizon: int) -> int:
    """Exact maximum eps-separated set of shift orbits of the given duration.

    Separation is max over j = 0..horizon of the path distance between the
    j-fold shifts, evaluated in closed form on the pool's rows. A connected
    conflict component above JOINT_CUTOFF orbits raises BudgetExceeded.
    """
    _check_pool(pool, epsilon, closed=True)
    if horizon > pool.nu:
        raise DepthMismatch(f"horizon {horizon} exceeds depth {pool.nu}")
    return _mis_exact(_masks(len(pool), *_shift_pairs(pool, epsilon, horizon)))


def c_of_eps(epsilon: float) -> int:
    """Greatest integer strictly below log2(1/eps) (unit-diameter space).

    ValueError unless 0 < eps < 1, as for the counts."""
    _check_epsilon(epsilon)
    level = math.log2(1.0 / epsilon)
    nearest = round(level)
    if abs(level - nearest) < 1e-9:
        return int(nearest) - 1
    return math.floor(level)


def sandwich_counts(pool: OrbitPool, epsilon: float, nu: int):
    """The three exact counts tying orbit separation to shift separation.

    ``pool`` must have depth nu + C(eps). Returns a dict with the prefix
    count N(eps, nu), the shift-orbit count M(eps, nu), the extended count
    N(eps, nu + C), and C itself; the chain N <= M <= N_ext holds whenever
    the pool is closed under extension, i.e. always for a pool of full-depth
    orbits. A word block above the exact cutoff would leave a greedy lower
    bound in N or N_ext, so it raises BudgetExceeded, as M does for a
    conflict component above JOINT_CUTOFF orbits.
    """
    _check_pool(pool, epsilon)
    c = c_of_eps(epsilon)
    if pool.nu != nu + c:
        raise MixedNu(f"pool must have depth nu + C = {nu + c}, got {pool.nu}")
    n_nu, n_ext = (count_separated(_distinct_heads(pool, k), epsilon, "dinh_sibony")
                   for k in (nu, nu + c))
    if not (n_nu.exact and n_ext.exact):
        raise BudgetExceeded(
            f"sandwich counts need exact maxima: word blocks above {EXACT_CUTOFF} orbits")
    m_nu = bowen_orbit_count(pool, epsilon, nu)
    return {"N_nu": n_nu.count, "M_nu": m_nu, "N_ext": n_ext.count, "C": c}


def _distinct_heads(pool, nu):
    """The distinct nu-orbit heads of the pool's rows, in first-seen order."""
    pool = OrbitPool(pool.h0[:, :nu + 1], pool.h1[:, :nu + 1], pool.symbols[:, :nu])
    first: dict = {}
    for i, key in enumerate(zip(*(map(tuple, a.tolist())
                                  for a in (pool.symbols, pool.h0, pool.h1)))):
        first.setdefault(key, i)
    return pool[list(first.values())]
