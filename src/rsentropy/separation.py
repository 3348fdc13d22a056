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
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import BudgetExceeded, DepthMismatch, EmptyPool, MixedNu
from .orbits import NuOrbit, shifted_separation

EXACT_CUTOFF = 20
JOINT_CUTOFF = 32


@dataclass(frozen=True)
class SeparationCount:
    """One counted cell: the family size at a given (epsilon, nu, mode)."""

    epsilon: float
    nu: int
    mode: str
    count: int
    pool_size: int
    exact: bool


def _pool_arrays(pool):
    k = len(pool)
    t = len(pool[0].points)
    h0 = np.empty((k, t), dtype=np.complex128)
    h1 = np.empty((k, t), dtype=np.complex128)
    for i, orb in enumerate(pool):
        h0[i] = [p.h0 for p in orb.points]
        h1[i] = [p.h1 for p in orb.points]
    return h0, h1


def _check_pool(pool, epsilon):
    if not pool:
        raise EmptyPool("cannot count an empty pool")
    nu = pool[0].nu
    if any(o.nu != nu for o in pool):
        raise MixedNu("pool mixes orbits of different lengths")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return nu


def count_separated(pool, epsilon: float, mode: str, word=None,
                    seed: int | None = 0,
                    exact_cutoff: int = EXACT_CUTOFF) -> SeparationCount:
    """Size of a maximal separated family in the requested sense.

    Exact (maximum) when every counted block is at most ``exact_cutoff``
    orbits; otherwise a seeded greedy maximal family with ``exact=False``.
    ``word`` is required in per_word mode and ignored otherwise.
    """
    nu = _check_pool(pool, epsilon)
    if mode == "per_word":
        if word is None:
            raise ValueError("per_word mode needs the word to filter on")
        word = tuple(word)
        sub = [o for o in pool if o.symbols == word]
        if not sub:
            raise EmptyPool(f"no orbits with word {word}")
        cnt, exact = _count_points_only(sub, epsilon, seed, exact_cutoff)
        label = "per_word" + repr(word)
        return SeparationCount(epsilon, nu, label, cnt, len(pool), exact)
    if mode == "friedland":
        cnt, exact = _count_points_only(pool, epsilon, seed, exact_cutoff)
        return SeparationCount(epsilon, nu, mode, cnt, len(pool), exact)
    if mode == "dinh_sibony":
        groups: dict = {}
        for o in pool:
            groups.setdefault(o.symbols, []).append(o)
        total = 0
        exact = True
        for w in sorted(groups):
            cnt, ex = _count_points_only(groups[w], epsilon, seed, exact_cutoff)
            total += cnt
            exact = exact and ex
        return SeparationCount(epsilon, nu, mode, total, len(pool), exact)
    raise ValueError(f"unknown mode {mode!r}")


def _count_points_only(orbits, epsilon, seed, exact_cutoff):
    k = len(orbits)
    if k == 1:
        return 1, True
    h0, h1 = _pool_arrays(orbits)
    if k <= exact_cutoff:
        adj = _conflict_masks(h0, h1, epsilon)
        return _mis_exact(adj), True
    order = np.arange(k)
    if seed is not None:
        order = np.random.default_rng(seed).permutation(k)
    chosen: list[int] = []
    sel0 = np.empty((k, h0.shape[1]), dtype=np.complex128)
    sel1 = np.empty((k, h0.shape[1]), dtype=np.complex128)
    for idx in order:
        if chosen:
            s = len(chosen)
            d = np.abs(h0[idx] * sel1[:s] - h1[idx] * sel0[:s]).max(axis=1)
            if not (d > epsilon).all():
                continue
        sel0[len(chosen)] = h0[idx]
        sel1[len(chosen)] = h1[idx]
        chosen.append(int(idx))
    return len(chosen), False


def _conflict_masks(h0, h1, epsilon):
    """Bitmask adjacency of the NOT-separated graph."""
    k = h0.shape[0]
    adj = [0] * k
    for i in range(k):
        d = np.abs(h0[i] * h1[i + 1:] - h1[i] * h0[i + 1:]).max(axis=1)
        for off in np.nonzero(~(d > epsilon))[0]:
            j = i + 1 + int(off)
            adj[i] |= 1 << j
            adj[j] |= 1 << i
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
    nu = _check_pool(pool, epsilon)
    del nu
    if len(pool) > joint_cutoff:
        raise BudgetExceeded(
            f"joint exact count limited to pools of {joint_cutoff} orbits")
    groups: dict = {}
    for o in pool:
        groups.setdefault(o.symbols, []).append(o)
    per_word = {}
    for w in sorted(groups):
        if len(groups[w]) > exact_cutoff:
            raise BudgetExceeded("per-word block too large for exact counting")
        h0, h1 = _pool_arrays(groups[w])
        per_word[w] = _mis_exact(_conflict_masks(h0, h1, epsilon))

    h0, h1 = _pool_arrays(pool)
    k = len(pool)
    words = [o.symbols for o in pool]
    adj = [0] * k
    for i in range(k):
        d = np.abs(h0[i] * h1[i + 1:] - h1[i] * h0[i + 1:]).max(axis=1)
        for off in range(k - i - 1):
            j = i + 1 + off
            separated = d[off] > epsilon or words[i] != words[j]
            if not separated:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    joint = _mis_exact(adj)
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
    if not pool:
        raise EmptyPool("cannot span an empty pool")
    if n < 1:
        raise ValueError("spanning horizon must be at least 1")
    depth = pool[0].depth
    if any(p.depth != depth for p in pool):
        raise MixedNu("pool mixes path depths")
    if depth < n:
        raise DepthMismatch(f"pool depth {depth} below horizon {n}")
    k = len(pool)
    covers = []
    for y in pool:
        mask = 0
        for i, x in enumerate(pool):
            if shifted_separation(x, y, n - 1) <= epsilon:
                mask |= 1 << i
        covers.append(mask)
    full = (1 << k) - 1
    if k <= exact_cutoff:
        count, exact = _min_cover_exact(covers, full), True
    else:
        count, exact = _min_cover_greedy(covers, full), False
    if return_details:
        return count, exact
    return count


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
    if not paths:
        raise EmptyPool("empty path pool")
    k = len(paths)
    adj = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if not shifted_separation(paths[i], paths[j], horizon) > epsilon:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return _mis_exact(adj)


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
    depth = paths[0].depth
    if depth != nu + c:
        raise MixedNu(f"paths must have depth nu + C = {nu + c}, got {depth}")

    prefixes = {}
    for p in paths:
        key = (p.symbols[:nu], tuple((pt.h0, pt.h1) for pt in p.points[:nu + 1]))
        if key not in prefixes:
            prefixes[key] = NuOrbit(points=p.points[:nu + 1], symbols=p.symbols[:nu])
    n_nu = count_separated(list(prefixes.values()), epsilon, "dinh_sibony").count

    m_nu = bowen_orbit_count(paths, epsilon, nu)

    full_orbits = {}
    for p in paths:
        key = (p.symbols, tuple((pt.h0, pt.h1) for pt in p.points))
        if key not in full_orbits:
            full_orbits[key] = NuOrbit(points=p.points, symbols=p.symbols)
    n_ext = count_separated(list(full_orbits.values()), epsilon, "dinh_sibony").count
    return {"N_nu": n_nu, "M_nu": m_nu, "N_ext": n_ext, "C": c}
