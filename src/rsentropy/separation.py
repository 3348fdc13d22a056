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
sup/limsup growth estimate. The greedy tests an orbit only against members
near it on a grid over the sphere, which builds the same family as testing
it against every member.
"""

from __future__ import annotations

from dataclasses import dataclass

import logging
import math

import numpy as np

from .errors import BudgetExceeded, DepthMismatch, EmptyPool, MixedNu
from .orbits import OrbitPool, shifted_separation

EXACT_CUTOFF = 20
JOINT_CUTOFF = 32
GREEDY_BATCH = 64          # orbits settled by one vectorised test
GREEDY_BATCH_PAIRS = 4096  # member candidates that close a batch early

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
    label, blocks = mode, [slice(None)]
    if mode != "friedland":
        words, _, blocks = _word_blocks(pool.symbols)
    if mode == "per_word":
        if word is None:
            raise ValueError("per_word mode needs the word to filter on")
        word = tuple(int(a) for a in word)
        if word not in words:
            raise EmptyPool(f"no orbits with word {word}")
        label, blocks = "per_word" + repr(word), [blocks[words.index(word)]]
    count, exact = 0, True
    for rows in blocks:
        cnt, ex = _count_points_only(pool.h0[rows], pool.h1[rows], epsilon,
                                     seed, exact_cutoff, label)
        count += cnt
        exact = exact and ex
    return SeparationCount(epsilon, pool.nu, label, count, len(pool), exact)


def _count_points_only(h0, h1, epsilon, seed, exact_cutoff, mode):
    k = h0.shape[0]
    if k == 1:
        return 1, True
    if k <= exact_cutoff:
        return _mis_exact(_conflict_masks(h0, h1, epsilon)), True
    order = np.arange(k)
    if seed is not None:
        order = np.random.default_rng(seed).permutation(k)
    kept, tested = _greedy_count(h0, h1, epsilon, order.tolist())
    log.info("greedy count: mode=%s eps=%g nu=%d block=%d family=%d tested=%d",
             mode, epsilon, h0.shape[1] - 1, k, len(kept), tested)
    return len(kept), False


def _greedy_count(h0, h1, epsilon, order):
    """Seeded greedy maximal family: (its rows in the order they joined,
    candidate pairs tested).

    Walking ``order``, an orbit joins the family when its sup distance to
    every member exceeds eps. Two exact prunings leave every decision as a
    test against all members would make it:

    * a conflict needs d(x_0, y_0) <= eps, so only members whose x_0 lies in
      one of the 27 grid cells around the orbit's x_0 are candidates
      (fixed-radius near neighbours, Bentley-Stanat-Williams 1977);
    * a candidate whose middle point is more than eps away is separated, so
      the full sup-metric test runs on the other candidates only.

    Orbits are settled a batch at a time: one vectorised test covers each
    batch orbit against the members, and the earlier batch orbits, near it;
    a sequential pass then replays the greedy decisions from the results.
    Every test evaluates |a0 b1 - a1 b0| with a the later orbit in ``order``.
    """
    cells = _grid_cells(h0[:, 0], h1[:, 0], epsilon)
    base = int(cells.max()) + 2  # packed keys of cells and neighbours never alias
    keys = [(x * base + y) * base + z for x, y, z in cells.tolist()]
    offsets = [(dx * base + dy) * base + dz
               for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
    # near[cell]: the members in the 27 cells around it, kept only for cells
    # that hold an orbit of the pool, as no other cell is ever looked up
    near: dict[int, list[int]] = {key: [] for key in keys}
    reach = {key: [key + off for off in offsets if key + off in near]
             for key in near}
    mid = h0.shape[1] // 2
    m0, m1 = h0[:, mid].copy(), h1[:, mid].copy()
    kept = []
    tested = pos = 0
    while pos < len(order):
        # the next batch, each orbit with the members near it
        batch, rows, members = [], [], []
        while (pos < len(order) and len(batch) < GREEDY_BATCH
               and len(members) < GREEDY_BATCH_PAIRS):
            idx = order[pos]
            pos += 1
            cand = near[keys[idx]]
            rows += [len(batch)] * len(cand)
            members += cand
            batch.append(idx)
        # candidate pairs by batch position (later, earlier), n standing for
        # a member: near members, then earlier batch orbits in the 27 cells
        n = len(batch)
        b = np.array(batch)
        c = cells[b]
        p, q = np.nonzero(np.tril(np.abs(c[:, None] - c[None]).max(axis=2) <= 1, -1))
        later_pos = np.concatenate([np.array(rows, dtype=np.intp), p])
        earlier_pos = np.concatenate([np.full(len(members), n, dtype=np.intp), q])
        later = b[later_pos]
        earlier = np.concatenate([np.array(members, dtype=np.intp), b[q]])
        tested += len(later)
        close = ~(np.abs(m0[later] * m1[earlier] - m1[later] * m0[earlier]) > epsilon)
        later, earlier = later[close], earlier[close]
        d = np.abs(h0[later] * h1[earlier] - h1[later] * h0[earlier]).max(axis=1)
        close[close] = ~(d > epsilon)
        # replay the greedy; bit n of ``taken`` stands for the members
        conflicts = [0] * n
        for i, j in zip(later_pos[close].tolist(), earlier_pos[close].tolist()):
            conflicts[i] |= 1 << j
        taken = 1 << n
        for i, idx in enumerate(batch):
            if conflicts[i] & taken:
                continue
            taken |= 1 << i
            for cell in reach[keys[idx]]:
                near[cell].append(idx)
            kept.append(idx)
    return kept, tested


def _grid_cells(h0, h1, epsilon):
    """Grid cells of points by Bloch vector, every coordinate >= 1.

    For representatives h, h' the test value |h0 h1' - h1 h0'| equals
    |h| |h'| |v - v'| / 2 with v the Bloch vector of h/|h|, so a value at
    most eps puts v' within 2 eps / min|h|^2 of v in every coordinate. Cells
    of at least that side keep every such pair in neighbouring cells; the
    relative and absolute margins absorb rounding in v and in the test.
    """
    n2 = h0.real ** 2 + h0.imag ** 2 + h1.real ** 2 + h1.imag ** 2
    cross = 2.0 * h0 * h1.conj()
    bloch = np.stack([cross.real, cross.imag,
                      h0.real ** 2 + h0.imag ** 2 - h1.real ** 2 - h1.imag ** 2],
                     axis=1) / n2[:, None]
    side = 2.0 * epsilon / n2.min() * (1.0 + 1e-9) + 1e-12
    cells = np.floor(bloch / side).astype(np.int64)
    return cells - (cells.min(axis=0) - 1)


def _conflict_masks(h0, h1, epsilon, ids=None):
    """Bitmask adjacency of the NOT-separated graph.

    With ``ids`` (one label word id per row), rows whose words differ always
    separate, as in the symbol-aware sense.
    """
    k = h0.shape[0]
    adj = [0] * k
    for i in range(k):
        d = np.abs(h0[i] * h1[i + 1:] - h1[i] * h0[i + 1:]).max(axis=1)
        near = ~(d > epsilon)
        if ids is not None:
            near &= ids[i + 1:] == ids[i]
        for off in np.nonzero(near)[0]:
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
    _check_pool(pool, epsilon)
    if len(pool) > joint_cutoff:
        raise BudgetExceeded(
            f"joint exact count limited to pools of {joint_cutoff} orbits")
    words, ids, blocks = _word_blocks(pool.symbols)
    per_word = {}
    for w, rows in zip(words, blocks):
        if len(rows) > exact_cutoff:
            raise BudgetExceeded("per-word block too large for exact counting")
        per_word[w] = _mis_exact(_conflict_masks(pool.h0[rows], pool.h1[rows],
                                                 epsilon))
    joint = _mis_exact(_conflict_masks(pool.h0, pool.h1, epsilon, ids))
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
    pool = OrbitPool.from_paths(paths)
    if pool.nu != nu + c:
        raise MixedNu(f"paths must have depth nu + C = {nu + c}, got {pool.nu}")
    n_nu, n_ext = (count_separated(_distinct_heads(pool, k), epsilon,
                                   "dinh_sibony").count for k in (nu, nu + c))
    m_nu = bowen_orbit_count(paths, epsilon, nu)
    return {"N_nu": n_nu, "M_nu": m_nu, "N_ext": n_ext, "C": c}


def _distinct_heads(pool, nu):
    """The distinct nu-orbit heads of the pool's rows, in first-seen order."""
    pool = OrbitPool(pool.h0[:, :nu + 1], pool.h1[:, :nu + 1], pool.symbols[:, :nu])
    first: dict = {}
    for i, key in enumerate(zip(*(map(tuple, a.tolist())
                                  for a in (pool.symbols, pool.h0, pool.h1)))):
        first.setdefault(key, i)
    return pool[list(first.values())]
