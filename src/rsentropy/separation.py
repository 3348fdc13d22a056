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
sup/limsup growth estimate.

Every count takes its conflict (not separated) pairs from one walk. Two
orbits conflict iff their x_0 are within eps and their suffixes are equal
or conflict, so the walk goes from x_nu down to x_0 and tests only sibling
classes of equal suffixes and the children of the pairs that conflicted a
step earlier (the dual-tree recursion of Gray and Moore, NIPS 2000). On a
backward tree the classes are its nodes and a step costs its siblings and
the children of its conflicts; a pool with no shared suffix, such as
forward orbits, tests all k^2 pairs at x_nu. The greedy asks only for the
pairs of orbits that may still join, so where a few members conflict with
most orbits it lists about their pairs, not all k^2.

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


def _check_pool(pool, epsilon):
    if len(pool) == 0:
        raise EmptyPool("cannot count an empty pool")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")


def _word_blocks(symbols):
    """(words, ids, blocks): the distinct label words in sorted order, each
    row's index into them, and each word's rows in pool order."""
    words, ids = np.unique(symbols, axis=0, return_inverse=True)
    ids = ids.reshape(-1)
    blocks = np.split(np.argsort(ids, kind="stable"),
                      np.cumsum(np.bincount(ids))[:-1])
    return [tuple(w) for w in words.tolist()], ids, blocks


def count_separated(pool: OrbitPool, epsilon: float, mode: str, word=None,
                    seed: int | None = 0,
                    exact_cutoff: int = EXACT_CUTOFF) -> SeparationCount:
    """Size of a maximal separated family in the requested sense.

    Exact (maximum) when every counted block is at most ``exact_cutoff``
    orbits; otherwise a seeded greedy maximal family with ``exact=False``.
    ``word`` is required in per_word mode and ignored otherwise.
    """
    _check_pool(pool, epsilon)
    if mode not in ("per_word", "friedland", "dinh_sibony"):
        raise ValueError(f"unknown mode {mode!r}")
    label, symbols = mode, None
    ids, blocks = np.zeros(len(pool), dtype=np.intp), [np.arange(len(pool))]
    if mode != "friedland":
        symbols = pool.symbols
        words, ids, blocks = _word_blocks(symbols)
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
        pairs = _split_pairs(*_conflict_pairs(pool.h0, pool.h1, epsilon, symbols,
                                              np.isin(ids, small)), ids, blocks)
        count += sum(_mis_exact(_masks(len(blocks[b]), *pairs[b])) for b in small)
    if large:
        # no pair crosses blocks, so one greedy walks every block's own order
        order = np.concatenate([blocks[b] if seed is None else blocks[b][
            np.random.default_rng(seed).permutation(len(blocks[b]))] for b in large])
        kept, degrees = _greedy(pool.h0, pool.h1, epsilon, symbols, order)
        family = np.bincount(ids[kept], minlength=len(blocks))
        touched = np.bincount(ids[kept], weights=degrees, minlength=len(blocks))
        for b in large:
            log.info("greedy count: mode=%s eps=%g nu=%d block=%d family=%d pairs=%d",
                     label, epsilon, pool.nu, len(blocks[b]), family[b], touched[b])
        count += len(kept)
    return SeparationCount(epsilon, pool.nu, label, count, len(pool), not large)


def _conflict_pairs(h0, h1, radius, symbols=None, sources=None):
    """(i, j): every row pair i < j, one of them in ``sources`` (a row mask,
    all rows when None), whose test value |a0 b1 - a1 b0| with a row j is at
    most the radius in every column, and with ``symbols`` whose labels
    agree. ``radius`` is a number or one per column; a column of infinite
    radius is not tested, and its labels are not compared.

    The keys run x_nu, a_nu, x_{nu-1}, ..., a_1, x_0 (labels only with
    ``symbols``). A class of a key is a run of rows equal in it and in every
    key before (the rows, at x_0), so it lies in one class of the key
    before, its parent. Two classes conflict iff they pass the key's test
    and their parents are one class or conflict: each key tests siblings
    and the children of conflicting pairs, those with a source only. Equal
    keys in different runs make classes that conflict, so row order does
    not matter. Canonical rows have real h0, so each product, and the test
    value, has the same bits whichever row is a.
    """
    k = h0.shape[0]
    sources = np.ones(k, dtype=bool) if sources is None else sources
    radius = np.broadcast_to(radius, h0.shape[1:])
    start = np.arange(k) == 0  # first rows of the previous key's classes
    pa = pb = np.zeros(0, dtype=np.intp)  # and its conflicting class pairs
    keys = [(c, False) for c in range(h0.shape[1] - 1, -1, -1)]
    if symbols is not None:  # a_{c+1} splits a class of x_{c+1} before x_c
        keys[1:] = [(c, label) for c, _ in keys[1:] for label in (True, False)]
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
        # each class with its later siblings, and the children of each pair
        x, y = _ranges(np.arange(1, len(first) + 1), stops[np.cumsum(born) - 1])
        t, u = _ranges(heads[pa], stops[pa])
        s, v = _ranges(heads[pb][t], stops[pb][t])
        x, y = np.concatenate([x, u[s]]), np.concatenate([y, v])
        wanted = np.logical_or.reduceat(sources, first)
        x, y = x[wanted[x] | wanted[y]], y[wanted[x] | wanted[y]]
        rx, ry = first[x], first[y]
        if label:
            close = (symbols[rx, c] == symbols[ry, c]) | (radius[c] == np.inf)
        else:
            close = np.abs(h0[ry, c] * h1[rx, c] - h1[ry, c] * h0[rx, c]) <= radius[c]
        pa, pb, start = x[close], y[close], split
    return pa, pb


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


def _greedy(h0, h1, epsilon, symbols, order):
    """(family, degrees): the greedy maximal family in the order it joined,
    and each member's number of conflict pairs.

    Walking ``order`` (a row array), a row joins unless it conflicts with a
    member. The rows that may still join are settled len(family) + 1 at a
    time by one walk with them as sources, so a fast-growing family takes
    few walks and a dense conflict graph lists little beyond its members'
    pairs.
    """
    k = h0.shape[0]
    blocked = np.zeros(k, dtype=bool)
    kept, degrees = [], []
    while len(order):
        batch, order = order[:len(kept) + 1], order[len(kept) + 1:]
        i, j = _conflict_pairs(h0, h1, epsilon, symbols, np.isin(np.arange(k), batch))
        ends, near = np.concatenate([i, j]), np.concatenate([j, i])
        near = near[np.argsort(ends, kind="stable")]
        ptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=k))]).tolist()
        for r in batch.tolist():
            if not blocked[r]:
                kept.append(r)
                degrees.append(ptr[r + 1] - ptr[r])
                blocked[near[ptr[r]:ptr[r + 1]]] = True
        order = order[~blocked[order]]
    return kept, degrees


def _masks(k, i, j):
    """Bitmask adjacency of the conflict graph with pairs (i, j)."""
    adj = [0] * k
    for x, y in zip(i.tolist(), j.tolist()):
        adj[x] |= 1 << y
        adj[y] |= 1 << x
    return adj


def _mis_exact(adj) -> int:
    """Maximum independent set size by branch and bound with memoization."""
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


def sum_up_partition(pool, epsilon: float,
                     exact_cutoff: int = EXACT_CUTOFF,
                     joint_cutoff: int = JOINT_CUTOFF):
    """Exact per-word maxima and the exact joint maximum, independently.

    The joint count deliberately runs a monolithic branch and bound over the
    whole pool (symbol-aware conflicts) instead of summing the per-word
    blocks, so the partition identity it returns is a genuine cross-check of
    the counting engine rather than a restatement of it.

    Returns (per_word: dict word -> count, joint: int, equal: bool).
    """
    _check_pool(pool, epsilon)
    if len(pool) > joint_cutoff:
        raise BudgetExceeded(
            f"joint exact count limited to pools of {joint_cutoff} orbits")
    words, _, blocks = _word_blocks(pool.symbols)
    per_word = {}
    for w, rows in zip(words, blocks):
        if len(rows) > exact_cutoff:
            raise BudgetExceeded("per-word block too large for exact counting")
        per_word[w] = _mis_exact(_masks(len(rows), *_conflict_pairs(
            pool.h0[rows], pool.h1[rows], epsilon)))
    joint = _mis_exact(_masks(len(pool), *_conflict_pairs(
        pool.h0, pool.h1, epsilon, pool.symbols)))
    return per_word, joint, joint == sum(per_word.values())


# -- spanning numbers and shift-orbit counts ------------------------------------


def spanning_number(pool, epsilon: float, n: int,
                    exact_cutoff: int = EXACT_CUTOFF,
                    return_details: bool = False):
    """Minimum pool subset whose shift orbits eps-shadow the whole pool.

    y spans x when the shifted path distance stays at most eps for n steps
    (j = 0..n-1). Minimum set cover is exact for pools up to the cutoff and
    greedy above it; pass return_details=True to receive (count, exact).
    """
    rows = OrbitPool.from_paths(pool)
    if n < 1:
        raise ValueError("spanning horizon must be at least 1")
    if rows.nu < n:
        raise DepthMismatch(f"pool depth {rows.nu} below horizon {n}")
    k = len(rows)
    covers = [m | 1 << y for y, m in
              enumerate(_masks(k, *_shift_pairs(rows, epsilon, n - 1)))]
    full = (1 << k) - 1
    if k <= exact_cutoff:
        count, exact = _min_cover_exact(covers, full), True
    else:
        count, exact = _min_cover_greedy(covers, full), False
    if return_details:
        return count, exact
    return count


def _shift_pairs(pool, epsilon, horizon):
    """The conflict pairs of the shifted metric to the horizon: column k has
    radius eps / w_k, and none where w_k = 2^-max(k - horizon, 0) <= eps."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    w = 0.5 ** np.maximum(np.arange(pool.nu + 1) - horizon, 0)
    return _conflict_pairs(pool.h0, pool.h1, np.where(w > epsilon, epsilon / w, np.inf),
                           pool.symbols)


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


def bowen_orbit_count(paths, epsilon: float, horizon: int) -> int:
    """Exact maximum eps-separated set of shift orbits of the given duration.

    Separation is max over j = 0..horizon of the path distance between the
    j-fold shifts, evaluated in closed form on the truncated paths.
    """
    pool = OrbitPool.from_paths(paths)
    if horizon > pool.nu:
        raise DepthMismatch(f"horizon {horizon} exceeds depth {pool.nu}")
    return _mis_exact(_masks(len(pool), *_shift_pairs(pool, epsilon, horizon)))


def c_of_eps(epsilon: float) -> int:
    """Greatest integer strictly below log2(1/eps) (unit-diameter space)."""
    level = math.log2(1.0 / epsilon)
    nearest = round(level)
    if abs(level - nearest) < 1e-9:
        return int(nearest) - 1
    return math.floor(level)


def sandwich_counts(paths, epsilon: float, nu: int):
    """The three exact counts tying orbit separation to shift separation.

    ``paths`` must have depth nu + C(eps). Returns a dict with the prefix
    count N(eps, nu), the shift-orbit count M(eps, nu), the extended count
    N(eps, nu + C), and C itself; the chain N <= M <= N_ext holds whenever
    the pool is closed under extension, i.e. always for pools presented as
    full-depth paths.
    """
    c = c_of_eps(epsilon)
    pool = OrbitPool.from_paths(paths)
    if pool.nu != nu + c:
        raise MixedNu(f"paths must have depth nu + C = {nu + c}, got {pool.nu}")
    n_nu, n_ext = (count_separated(_distinct_heads(pool, k), epsilon,
                                   "dinh_sibony").count for k in (nu, nu + c))
    m_nu = _mis_exact(_masks(len(pool), *_shift_pairs(pool, epsilon, nu)))
    return {"N_nu": n_nu, "M_nu": m_nu, "N_ext": n_ext, "C": c}


def _distinct_heads(pool, nu):
    """The distinct nu-orbit heads of the pool's rows, in first-seen order."""
    pool = OrbitPool(pool.h0[:, :nu + 1], pool.h1[:, :nu + 1], pool.symbols[:, :nu])
    first: dict = {}
    for i, key in enumerate(zip(*(map(tuple, a.tolist())
                                  for a in (pool.symbols, pool.h0, pool.h1)))):
        first.setdefault(key, i)
    return pool[list(first.values())]
