import itertools
import logging
import math
import re

import numpy as np
import pytest

import rsentropy as rs
from rsentropy import estimate, separation
from rsentropy.errors import (
    BudgetExceeded,
    DepthMismatch,
    EmptyPool,
    MixedNu,
    NonCanonicalPoint,
)
from rsentropy.estimate import ladder_tree
from rsentropy.separation import _conflict_pairs, _shift_pairs
from util import (
    IDENTITY,
    QUAD5,
    Z2,
    Z3,
    affine_translation,
    brute_force_max_separated,
    group_by_word,
    pool_paths,
    random_exact_map,
    reference_conflict_pairs,
    reference_greedy,
    reference_shift_pairs,
)


def corr(*maps, mults=None):
    return rs.build_correspondence(rs.GeneratorSet(list(maps)), mults)


def circle_orbits(nu, count=8):
    starts = [rs.point_at(np.exp(2j * np.pi * k / count)) for k in range(count)]
    return rs.forward_orbits(corr(Z2), starts, nu)


def test_single_orbit_pool():
    pool = rs.forward_orbits(corr(Z2), rs.sample_points(1, 0), 3)
    for mode in ("dinh_sibony", "friedland"):
        res = rs.count_separated(pool, 0.3, mode)
        assert res.count == 1 and res.exact


def test_decorated_identity_pool():
    # all 2^nu label decorations of a single constant itinerary
    nu = 4
    pool = rs.forward_orbits(corr(IDENTITY, mults=[2]), [rs.point_at(1)], nu)
    ds = rs.count_separated(pool, 0.1, "dinh_sibony")
    fr = rs.count_separated(pool, 0.1, "friedland")
    assert ds.count == 2 ** nu and ds.exact
    assert fr.count == 1


def test_exact_count_matches_brute_force():
    pool = circle_orbits(3)
    for eps in (0.3, 0.1):
        res = rs.count_separated(pool, eps, "dinh_sibony")
        assert res.exact
        assert res.count == brute_force_max_separated(pool_paths(pool), eps,
                                                      symbols_count=True)
        fr = rs.count_separated(pool, eps, "friedland")
        assert fr.count == brute_force_max_separated(pool_paths(pool), eps,
                                                     symbols_count=False)


def test_per_word_mode():
    pool = rs.forward_orbits(corr(Z2, Z3), rs.sample_points(3, 1), 2)
    res = rs.count_separated(pool, 0.2, "per_word", word=(1, 2))
    assert res.count <= 3
    assert res.mode == "per_word(1, 2)"
    with pytest.raises(EmptyPool):
        rs.count_separated(pool, 0.2, "per_word", word=(9, 9))
    # a word read off the pool's label array gives the same cell
    word = pool.symbols[0]
    label = rs.count_separated(pool, 0.2, "per_word", word=word).mode
    assert label == "per_word" + repr(tuple(word.tolist()))


def test_pool_validation():
    pool = circle_orbits(2)
    with pytest.raises(EmptyPool):
        rs.count_separated([], 0.2, "friedland")
    with pytest.raises(MixedNu):
        # points of 2-step orbits with the labels of 3-step ones
        mixed = rs.OrbitPool(pool.h0, pool.h1, circle_orbits(3).symbols)
        rs.count_separated(mixed, 0.2, "friedland")
    with pytest.raises(ValueError):
        rs.count_separated(pool, 1.5, "friedland")


def test_monotonicity_in_epsilon_exact():
    pool = circle_orbits(3)
    counts = [rs.count_separated(pool, eps, "dinh_sibony").count
              for eps in (0.02, 0.05, 0.1, 0.2, 0.4)]
    assert counts == sorted(counts, reverse=True)


def test_monotonicity_under_pool_extension():
    big = circle_orbits(3, count=14)
    for eps in (0.1, 0.3):
        small = rs.count_separated(big[:7], eps, "dinh_sibony")
        full = rs.count_separated(big, eps, "dinh_sibony")
        assert full.count >= small.count
    # greedy path with order-preserving extension
    grown = rs.forward_orbits(corr(Z2), rs.sample_points(40, 2), 3)
    c1 = rs.count_separated(grown[:25], 0.1, "friedland", seed=None, exact_cutoff=5)
    c2 = rs.count_separated(grown, 0.1, "friedland", seed=None, exact_cutoff=5)
    assert c2.count >= c1.count
    assert not c2.exact


def test_friedland_below_dinh_sibony():
    pool = rs.forward_orbits(corr(Z2, Z3), rs.sample_points(2, 5), 2)
    for eps in (0.05, 0.1, 0.2):
        ds = rs.count_separated(pool, eps, "dinh_sibony")
        fr = rs.count_separated(pool, eps, "friedland")
        assert fr.count <= ds.count


def test_sum_up_partition_identity():
    pool = rs.forward_orbits(corr(Z2, Z3), rs.sample_points(2, 7), 2)
    per_word, joint, ok = rs.sum_up_partition(pool, 0.2)
    assert ok and joint == sum(per_word.values())
    assert set(per_word) == set(itertools.product((1, 2), repeat=2))
    assert list(per_word) == sorted(per_word)
    assert all(type(a) is int for w in per_word for a in w)


def test_sum_up_single_word():
    pool = rs.forward_orbits(corr(Z2), rs.sample_points(5, 8), 3)
    per_word, joint, ok = rs.sum_up_partition(pool, 0.1)
    assert ok and list(per_word.values()) == [joint]


def test_sum_up_symbol_only_separation():
    nu = 3
    pool = rs.forward_orbits(corr(IDENTITY, mults=[2]), [rs.point_at(1)], nu)
    per_word, joint, ok = rs.sum_up_partition(pool, 0.4)
    assert ok
    assert joint == 2 ** nu and all(v == 1 for v in per_word.values())


def test_spanning_examples():
    single = rs.forward_orbits(corr(Z2), rs.sample_points(1, 0), 3)
    assert rs.spanning_number(single, 0.2, 3) == (1, True)

    nu = 4
    pool = rs.forward_orbits(corr(IDENTITY, mults=[2]), [rs.point_at(1)], nu)
    assert rs.spanning_number(pool, 0.5, nu) == (2 ** nu, True)
    assert rs.spanning_number(pool, 1.0, nu) == (1, True)  # everything within diameter


def test_spanning_greedy_matches_exact_on_classes():
    nu = 6
    pool = rs.forward_orbits(corr(IDENTITY, mults=[2]), [rs.point_at(1)], nu)
    count, exact = rs.spanning_number(pool, 0.5, nu)
    assert count == 2 ** nu and not exact  # greedy, but classes are disjoint


def test_shift_counts_raise_typed_errors():
    pool = rs.forward_orbits(corr(Z2, Z3), rs.sample_points(2, 0), 3)
    # the pool of every orbit shifted once: x_0 and a_1 dropped
    shifted = rs.OrbitPool(pool.h0[:, 1:], pool.h1[:, 1:], pool.symbols[:, 1:])
    tilted = pool.h0.copy()
    tilted[0, 0] = 1j
    # a pool is built before a count runs: the array errors come from building it
    with pytest.raises(MixedNu):
        rs.OrbitPool(pool.h0, pool.h1, shifted.symbols)
    with pytest.raises(NonCanonicalPoint):
        rs.OrbitPool(tilted, pool.h1, pool.symbols)
    spanning = lambda *args: rs.spanning_number(*args)[0]
    for count in (spanning, rs.bowen_orbit_count):
        with pytest.raises(EmptyPool):
            count(pool[:0], 0.2, 2)
        with pytest.raises(DepthMismatch):
            count(pool, 0.2, 4)  # beyond the depth 3
        for eps in (0.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                count(pool, eps, 2)
        assert count(pool, 1.0, 3) == 1
    for n in (0, -1):
        with pytest.raises(ValueError):
            rs.spanning_number(pool, 0.2, n)
    # the horizon n - 1 = 2 fits the depth 3 for spanning, not n = 3
    with pytest.raises(DepthMismatch):
        rs.spanning_number(shifted, 0.2, 3)


def test_c_of_eps_edges():
    assert rs.c_of_eps(0.25) == 1   # log2(4) integral: strictly-less rule
    assert rs.c_of_eps(0.2) == 2
    assert rs.c_of_eps(0.1) == 3
    assert rs.c_of_eps(0.05) == 4
    assert rs.c_of_eps(0.02) == 5
    assert rs.c_of_eps(0.5) == 0
    # the counts' epsilon check: 0 < eps < 1
    for eps in (0.0, -0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
            rs.c_of_eps(eps)


def _sandwich_pool(gens, eps, nu, n_starts, n_words, seed):
    # the forward orbits of n_words random label words from each start
    rng = np.random.default_rng(seed)
    depth = nu + rs.c_of_eps(eps)
    n = len(gens.maps) ** depth
    pick = sorted(rng.choice(n, size=min(n_words, n), replace=False).tolist())
    pool = rs.forward_orbits(rs.build_correspondence(gens),
                             rs.sample_points(n_starts, seed + 1), depth)
    return pool[[s * n + i for s in range(n_starts) for i in pick]]


def test_sandwich_chain_holds():
    gens = rs.GeneratorSet([Z2, Z3])
    cases = [(0.2, 2, 2, 6, 11), (0.1, 2, 3, 5, 12), (0.05, 2, 1, 15, 13)]
    for eps, nu, n_starts, n_words, seed in cases:
        pool = _sandwich_pool(gens, eps, nu, n_starts, n_words, seed)
        res = rs.sandwich_counts(pool, eps, nu)
        assert res["N_nu"] <= res["M_nu"] <= res["N_ext"]


def test_sandwich_refuses_greedy_counts():
    # 25 starts make word blocks of 25 orbits at nu 1, above the exact cutoff
    pool = rs.forward_orbits(corr(Z2, Z3), rs.sample_points(25, 1), 3)
    assert not rs.count_separated(separation._distinct_heads(pool, 1), 0.2,
                                  "dinh_sibony").exact
    with pytest.raises(BudgetExceeded, match="exact maxima"):
        rs.sandwich_counts(pool, 0.2, 1)


def test_sandwich_empty_pool():
    # depth 4 is nu + C(0.2); an empty pool of another depth is empty first
    for depth in (3, 4):
        empty = rs.forward_orbits(corr(Z2, Z3), rs.sample_points(2, 0), depth)[:0]
        with pytest.raises(EmptyPool):
            rs.sandwich_counts(empty, 0.2, 2)


def test_sandwich_checks_epsilon_first():
    # before C(eps), the greatest integer below log2(1 / eps), is taken: eps 0
    # raised ZeroDivisionError there, and eps 1 a depth mismatch
    pool = rs.forward_orbits(corr(Z2, Z3), rs.sample_points(2, 0), 4)
    for eps in (0.0, -0.1, 1.0, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            rs.sandwich_counts(pool, eps, 2)


# -- the conflict-pair walk and its greedy against the all-pairs oracles --------

ORACLE_EPS = (0.02, 0.05, 0.2, 0.45, 0.9)
ORACLE_SEEDS = (None, 0, 7, 101)


def assert_matches_oracle(pool, eps, seed):
    # exact_cutoff 1 sends every block of two or more orbits to the greedy
    fr = rs.count_separated(pool, eps, "friedland", seed=seed, exact_cutoff=1)
    assert not fr.exact
    assert fr.count == reference_greedy(pool_paths(pool), eps, seed)
    groups = group_by_word(pool_paths(pool))
    ds = rs.count_separated(pool, eps, "dinh_sibony", seed=seed, exact_cutoff=1)
    assert not ds.exact
    assert ds.count == sum(reference_greedy(groups[w], eps, seed)
                           for w in sorted(groups))


def random_forward_pool(seed):
    rng = np.random.default_rng(seed)
    maps = [random_exact_map(rng), random_exact_map(rng)]
    if maps[0] == maps[1]:
        maps = [Z2, Z3]
    return rs.forward_orbits(corr(*maps), rs.sample_points(40, seed), 2)


def meridian_point(theta):
    """The point whose Bloch vector is (sin theta, 0, cos theta)."""
    return rs.normalize(math.cos(theta / 2), math.sin(theta / 2))


def boundary_pool(eps):
    """x_0 on Bloch-grid planes and on exact eps-chains, x_1 shared.

    Bloch z-coordinates -1 + 2 eps j sit on cell boundaries of a 2 eps grid,
    and the chain steps 2 arcsin(eps) put neighbours exactly eps apart.
    """
    shared = rs.point_at(0.5)
    steps = int(1.0 / eps)
    thetas = [math.acos(max(-1.0, min(1.0, -1.0 + 2 * eps * j)))
              for j in range(steps + 1)]
    step = 2 * math.asin(eps)
    thetas += [step * j for j in range(int(math.pi / step) + 1)]
    heads, labels = [], []
    for j, theta in enumerate(thetas):
        x0 = meridian_point(theta)
        # the same latitudes on the equator's plane, rotated off the meridian
        heads += [x0, rs.normalize(x0.h0, x0.h1 * 1j)]
        labels += [1 + j % 2] * 2
    return rs.OrbitPool(np.array([[x.h0, shared.h0] for x in heads], dtype=np.complex128),
                        np.array([[x.h1, shared.h1] for x in heads], dtype=np.complex128),
                        np.array(labels, dtype=np.int64).reshape(-1, 1))


def doubled_pool(pool):
    """Every orbit twice: the rows, then the rows in reverse order."""
    rows = np.arange(len(pool))
    return pool[np.concatenate([rows, rows[::-1]])]


@pytest.mark.parametrize("eps", ORACLE_EPS)
@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_greedy_matches_oracle_on_random_pools(eps, seed):
    for pool_seed in (1, 2):
        assert_matches_oracle(random_forward_pool(pool_seed), eps, seed)


@pytest.mark.parametrize("eps", ORACLE_EPS)
@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_greedy_matches_oracle_with_poles_and_duplicates(eps, seed):
    starts = [rs.point_at(0), rs.INFINITY] + rs.sample_points(30, 4)
    pool = rs.forward_orbits(corr(Z2, Z3), starts, 2)
    assert_matches_oracle(pool, eps, seed)
    # every orbit twice: copies sit at distance 0 from each other
    doubled = doubled_pool(pool)
    assert_matches_oracle(doubled, eps, seed)


@pytest.mark.parametrize("eps", ORACLE_EPS)
@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_greedy_matches_oracle_on_cell_boundaries(eps, seed):
    assert_matches_oracle(boundary_pool(eps), eps, seed)


@pytest.fixture(scope="module")
def readme_nu5_pool():
    pool = ladder_tree(corr(Z2, Z3), 2, 5, 42, 20_000)[5]
    assert len(pool) == 5 ** 5
    return pool


@pytest.mark.parametrize("eps", (0.02, 0.2))
def test_greedy_matches_oracle_on_readme_tree(readme_nu5_pool, eps):
    assert_matches_oracle(readme_nu5_pool, eps, 42)


def dense_tree(nu):
    # backward orbits of {2z, 3z} all crowd together: at eps 0.2 every pair
    # of the 2^nu orbits conflicts
    maps = [rs.make_map([2, 0], [0, 1]), rs.make_map([3, 0], [0, 1])]
    return ladder_tree(corr(*maps), 2, nu, 0, 20_000)[nu]


@pytest.mark.parametrize("eps", ORACLE_EPS)
@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_greedy_matches_oracle_on_dense_tree(eps, seed):
    # (each label word holds one orbit of this tree, so only friedland mode
    # reaches the greedy)
    pool = dense_tree(8)
    fr = rs.count_separated(pool, eps, "friedland", seed=seed, exact_cutoff=1)
    assert fr.count == reference_greedy(pool_paths(pool), eps, seed)


def test_greedy_lists_few_pairs_on_a_dense_tree(monkeypatch):
    pool = dense_tree(10)
    listed = []
    real = separation._conflict_pairs

    def spy(*args):
        pairs = real(*args)
        listed.append(len(pairs[0]))
        return pairs

    monkeypatch.setattr(separation, "_conflict_pairs", spy)
    res = rs.count_separated(pool, 0.2, "friedland", seed=5)
    # the first orbit conflicts with all 1,023 others, which all of 523,776
    # pairs do; one walk from it settles the count
    assert (res.count, listed) == (1, [len(pool) - 1])


def test_greedy_settles_a_count_in_few_walks(readme_nu5_pool, monkeypatch):
    walks = []
    real = separation._conflict_pairs

    def spy(*args):
        walks[-1] += 1
        return real(*args)

    monkeypatch.setattr(separation, "_conflict_pairs", spy)
    for mode in ("dinh_sibony", "friedland"):
        for eps in (0.02, 0.05, 0.1, 0.2):
            walks.append(0)
            # every nu-5 word block holds 32 or more orbits, so only the
            # greedy walks
            assert not rs.count_separated(readme_nu5_pool, eps, mode, seed=42).exact
    assert max(walks) <= 3


def test_plans_and_word_blocks_are_built_once_per_level(monkeypatch):
    built = {"plan": 0, "blocks": 0}
    real_plan, real_blocks = separation._walk_plan, separation._word_blocks

    def plan(*args):
        built["plan"] += 1
        return real_plan(*args)

    def blocks(*args):
        built["blocks"] += 1
        return real_blocks(*args)

    monkeypatch.setattr(separation, "_walk_plan", plan)
    monkeypatch.setattr(separation, "_word_blocks", blocks)
    c = corr(Z2, Z3)
    levels = ladder_tree(c, 2, 5, 42, 5000)
    grid = (0.02, 0.05, 0.1, 0.2)
    for method, words in (("ds", 4), ("friedland", 0)):
        built.update(plan=0, blocks=0)
        _, rows = estimate.estimate_entropy(c, method, grid, 2, 5, 42, levels=levels)
        # four levels (nu 2..5), each counted at four eps
        assert len(rows) == 16
        assert built == {"plan": 4, "blocks": words}


def test_greedy_blocks_log_at_info(caplog):
    pool = rs.forward_orbits(corr(Z2, Z3), rs.sample_points(30, 9), 2)
    with caplog.at_level(logging.INFO, logger="rsentropy"):
        ds = rs.count_separated(pool, 0.1, "dinh_sibony", seed=3)
        exact = rs.count_separated(pool[:10], 0.1, "friedland")
    assert not ds.exact and exact.exact
    lines = [r.getMessage() for r in caplog.records
             if r.name == "rsentropy.separation" and r.levelno == logging.INFO]
    # one line per greedy block (four words of 30 orbits), none for exact ones
    assert len(lines) == 4
    fields = [dict(re.findall(r"(\w+)=(\S+)", line)) for line in lines]
    words = sorted(set(map(tuple, pool.symbols.tolist())))
    for f, w in zip(fields, words):
        assert (f["mode"], f["eps"], f["nu"], f["block"]) == ("dinh_sibony", "0.1", "2", "30")
        # pairs: the block's conflict pairs that hold a family member
        ref = reference_conflict_pairs(pool[np.flatnonzero((pool.symbols == w).all(axis=1))], 0.1)
        family = []
        for r in np.random.default_rng(3).permutation(30).tolist():
            if not any((min(r, m), max(r, m)) in ref for m in family):
                family.append(r)
        assert int(f["family"]) == len(family)
        assert int(f["pairs"]) == sum(i in family or j in family for i, j in ref)
    assert sum(int(f["family"]) for f in fields) == ds.count
    assert sum(int(f["pairs"]) for f in fields) > 0


def walk_pairs(pool, eps, labels=False):
    i, j = _conflict_pairs(separation._walk_plan(pool, labels), eps)
    pairs = list(zip(i.tolist(), j.tolist()))
    assert len(pairs) == len(set(pairs)) and all(a < b for a, b in pairs)
    return set(pairs)


def assert_pairs_match(pool, eps):
    for labels in (False, True):
        assert walk_pairs(pool, eps, labels) == reference_conflict_pairs(pool, eps, labels)


@pytest.mark.parametrize("eps", (0.02, 0.05, 0.1, 0.2))
def test_pairs_match_oracle_on_readme_tree(readme_nu5_pool, eps):
    # rows shuffled: the classes of equal suffixes are no longer runs
    perm = np.random.default_rng(3).permutation(len(readme_nu5_pool))
    for pool in (readme_nu5_pool, readme_nu5_pool[perm]):
        ref = reference_conflict_pairs(pool, eps)
        assert walk_pairs(pool, eps) == ref
        assert walk_pairs(pool, eps, labels=True) == {
            (i, j) for i, j in ref if (pool.symbols[i] == pool.symbols[j]).all()}


def test_pairs_of_sources_match_oracle(readme_nu5_pool):
    pool = readme_nu5_pool
    sources = np.random.default_rng(4).random(len(pool)) < 0.1
    i, j = _conflict_pairs(separation._walk_plan(pool, False), 0.2, sources)
    ref = reference_conflict_pairs(pool, 0.2)
    assert set(zip(i.tolist(), j.tolist())) == {
        (a, b) for a, b in ref if sources[a] or sources[b]}
    assert len(i) == len(set(zip(i.tolist(), j.tolist())))


@pytest.mark.parametrize("case", ("readme", "poles", "dense"))
def test_a_shared_plan_walks_like_a_fresh_one(readme_nu5_pool, case):
    # one plan of the rows serves every walk over them, as in the greedy:
    # each source mask, radius and label setting gives the pairs, in the
    # same order, of a walk that builds its own plan, and the oracle's
    if case == "readme":  # 1,000 orbits shuffled, so the classes are not runs
        pool = readme_nu5_pool[np.random.default_rng(3).permutation(len(readme_nu5_pool))[:1000]]
    elif case == "poles":  # every orbit twice, the copies far apart
        starts = [rs.point_at(0), rs.INFINITY] + rs.sample_points(30, 4)
        pool = doubled_pool(rs.forward_orbits(corr(Z2, Z3), starts, 2))
    else:
        pool = dense_tree(8)
    k, rng = len(pool), np.random.default_rng(6)
    masks = [None, rng.random(k) < 0.02, rng.random(k) < 0.3, np.arange(k) == k - 1]
    # radii that double with the column, none in the last two, as in the
    # shifted metric (so that the trees hold pairs with labels too)
    radii = [0.1, np.append(0.1 * 2.0 ** np.arange(pool.nu - 1), [np.inf, np.inf])]
    for labels in (False, True):
        plan = separation._walk_plan(pool, labels)
        for radius in radii:
            ref = reference_conflict_pairs(pool, radius, labels)
            for sources in masks:
                shared = _conflict_pairs(plan, radius, sources)
                fresh = _conflict_pairs(separation._walk_plan(pool, labels), radius, sources)
                assert all(np.array_equal(a, b) for a, b in zip(shared, fresh))
                assert set(zip(*(a.tolist() for a in shared))) == {
                    (i, j) for i, j in ref if sources is None or sources[i] or sources[j]}


def test_pairs_match_oracle_on_dense_tree():
    assert_pairs_match(dense_tree(8), 0.05)


@pytest.mark.parametrize("eps", (0.05, 0.2, 0.45))
def test_pairs_match_oracle_on_pruned_tree(monkeypatch, eps):
    # the pruned tree of mp_family, where steps branch in varying numbers
    trees = []
    real = estimate.preimage_tree_levels

    def spy(*args, **kwargs):
        trees.append(real(*args, **kwargs))
        return trees[-1]

    monkeypatch.setattr(estimate, "preimage_tree_levels", spy)
    fam = rs.mp_family(rs.GeneratorSet([Z2, Z3]), 0.1, 4, seed=2, samples=100)
    tree = trees[0][4]
    assert fam.pruned and len(tree) == 500
    assert_pairs_match(tree, eps)


@pytest.mark.parametrize("eps", (0.05, 0.2, 0.45))
def test_pairs_match_oracle_off_trees(eps):
    pool = random_forward_pool(1)
    assert_pairs_match(pool, eps)
    # every orbit twice, the copies far apart in row order
    doubled = doubled_pool(pool)
    assert_pairs_match(doubled, eps)
    k = len(doubled)
    assert {(i, k - 1 - i) for i in range(k // 2)} <= walk_pairs(doubled, eps)


def test_test_value_is_the_same_either_way(readme_nu5_pool):
    # The walk tests each pair once; the greedy oracle tests the later orbit
    # as a. Canonical rows have real h0, so every product in the test value
    # commutes bit for bit, also where numpy fuses a complex product's
    # multiply-add (for general complex rows it then need not).
    starts = [rs.point_at(0), rs.INFINITY] + rs.sample_points(30, 4)
    small = [rs.forward_orbits(corr(Z2, Z3), starts, 2)]
    small += [boundary_pool(eps) for eps in ORACLE_EPS]  # values at eps
    perm = np.random.default_rng(13).permutation(len(readme_nu5_pool))
    cases = [(p, *np.triu_indices(len(p), 1)) for p in small]
    cases += [(readme_nu5_pool, perm, np.roll(perm, 1)),
              (readme_nu5_pool, np.arange(len(perm) - 1), np.arange(1, len(perm)))]
    for pool, i, j in cases:
        assert not pool.h0.imag.any()
        a0, a1, b0, b1 = pool.h0[j], pool.h1[j], pool.h0[i], pool.h1[i]
        one = np.abs(a0 * b1 - a1 * b0)
        other = np.abs(b0 * a1 - b1 * a0)
        assert np.array_equal(one.view(np.uint64), other.view(np.uint64))


# -- one pair list per level: every cell of an eps grid filters it -------------

GRID = (0.02, 0.05, 0.1, 0.2)


@pytest.mark.parametrize("case", ("readme", "shuffled", "poles", "random", "dense"))
def test_pair_list_filters_to_the_walk_at_every_eps(readme_nu5_pool, case):
    if case == "readme":
        pool = ladder_tree(corr(Z2, Z3), 2, 4, 42, 20_000)[4]
    elif case == "shuffled":  # so that the classes are not runs
        pool = readme_nu5_pool[np.random.default_rng(3).permutation(len(readme_nu5_pool))[:600]]
    elif case == "poles":  # every orbit twice, the copies far apart
        starts = [rs.point_at(0), rs.INFINITY] + rs.sample_points(30, 4)
        pool = doubled_pool(rs.forward_orbits(corr(Z2, Z3), starts, 2))
    elif case == "random":
        pool = random_forward_pool(2)
    else:
        pool = dense_tree(8)
    h0, h1 = pool.h0, pool.h1
    for labels in (False, True):
        plan = separation._walk_plan(pool, labels)
        for top, grid in ((0.2, GRID), (0.9, ORACLE_EPS)):
            i, j, d = _conflict_pairs(plan, top, budget=separation.PAIR_BUDGET)
            assert [a.tolist() for a in _conflict_pairs(plan, top)] == [i.tolist(), j.tolist()]
            # d is the largest test value of the pair, bit for bit
            assert np.array_equal(d, np.abs(h0[j] * h1[i] - h1[j] * h0[i]).max(axis=1))
            assert (d <= top).all()
            for eps in grid:
                near = d <= eps
                walk = set(zip(*(a.tolist() for a in _conflict_pairs(plan, eps))))
                assert set(zip(i[near].tolist(), j[near].tolist())) == walk
            # a count's pair source filters the list by eps and by its sources,
            # also at an eps that some listed pair's distance equals
            sources = np.random.default_rng(5).random(len(pool)) < 0.3
            for eps in grid + tuple(np.sort(d)[::-max(len(d) // 3, 1)][:3].tolist()):
                got = separation._pair_source(plan, eps, (top, i, j, d))(sources)
                want = _conflict_pairs(plan, eps, sources)
                assert sorted(zip(*(a.tolist() for a in got))) == sorted(zip(*(a.tolist() for a in want)))
    ref = reference_conflict_pairs(pool, 0.2)
    assert set(zip(*(a.tolist() for a in _conflict_pairs(
        separation._walk_plan(pool, False), 0.2, budget=separation.PAIR_BUDGET)[:2]))) == ref


def test_pair_list_refuses_a_key_over_its_budget():
    plan = separation._walk_plan(dense_tree(8), False)
    # the 256 orbits conflict in all 32,640 pairs at eps 0.2
    assert len(_conflict_pairs(plan, 0.2, budget=32_640)[0]) == 32_640
    with pytest.raises(BudgetExceeded, match="candidate pairs at one key, over 1000"):
        _conflict_pairs(plan, 0.2, budget=1000)


def fresh_rows(method, seed, levels, grid):
    """The rows of estimate_entropy, counted cell by cell with no shared
    classes, so each with its own walks."""
    mode = {"ds": "dinh_sibony", "friedland": "friedland"}[method]
    return [rs.count_separated(levels[nu], eps, mode, seed=seed * 10007 + i_nu * 101 + i_eps)
            for i_nu, nu in enumerate(range(2, max(levels) + 1))
            for i_eps, eps in enumerate(grid)]


@pytest.mark.parametrize("budget", (None, 1))
def test_estimate_rows_equal_fresh_counts(monkeypatch, budget):
    # with a budget of one candidate pair no level is listed, and every cell walks
    if budget is not None:
        monkeypatch.setattr(separation, "PAIR_BUDGET", budget)
    cases = [(corr(Z2, Z3), 5, seed, 20_000) for seed in (42, 7)]
    cases.append((corr(*QUAD5), 4, 42, 10 ** 6))
    for c, nu_max, seed, tree_budget in cases:
        levels = ladder_tree(c, 2, nu_max, seed, tree_budget)
        assert max(levels) == nu_max
        for method in ("ds", "friedland"):
            _, rows = estimate.estimate_entropy(c, method, GRID, 2, nu_max, seed, levels=levels)
            assert rows == fresh_rows(method, seed, levels, GRID)


def test_a_level_walks_once_per_method(monkeypatch):
    walks = []
    real = separation._conflict_pairs

    def spy(*args, **kwargs):
        walks.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(separation, "_conflict_pairs", spy)
    c = corr(Z2, Z3)
    levels = ladder_tree(c, 2, 5, 42, 5000)
    for method in ("ds", "friedland"):
        walks.clear()
        _, rows = estimate.estimate_entropy(c, method, GRID, 2, 5, 42, levels=levels)
        # four levels (nu 2..5), each listed once at the grid's largest eps
        assert len(rows) == 16 and walks == [0.2] * 4


@pytest.mark.parametrize("mode", ("dinh_sibony", "friedland"))
def test_eps_above_the_list_walks_like_a_fresh_count(readme_nu5_pool, monkeypatch, mode):
    pool = readme_nu5_pool
    classes = separation._count_classes(pool, mode, 0.05)
    assert classes[-1][0] == 0.05
    walks = []
    real = separation._conflict_pairs

    def spy(*args, **kwargs):
        walks.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(separation, "_conflict_pairs", spy)
    for eps in (0.02, 0.05, 0.1, 0.2):
        walks.clear()
        shared = rs.count_separated(pool, eps, mode, seed=3, classes=classes)
        # a cell at or below the list's eps filters it; above it, it walks
        if eps <= 0.05:
            assert walks == []
        else:
            assert walks and set(walks) == {eps}
        assert shared == rs.count_separated(pool, eps, mode, seed=3)


def test_pair_lists_log_at_info(caplog, monkeypatch):
    c = corr(Z2, Z3)
    levels = ladder_tree(c, 2, 5, 42, 5000)
    with caplog.at_level(logging.INFO, logger="rsentropy"):
        for method in ("ds", "friedland"):
            estimate.estimate_entropy(c, method, GRID, 2, 5, 42, levels=levels)
        monkeypatch.setattr(separation, "PAIR_BUDGET", 100)
        estimate.estimate_entropy(c, "friedland", GRID, 2, 5, 42, levels=levels)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "rsentropy.separation" and r.getMessage().startswith("pair list:")]
    listed = [f"pair list: mode={mode} nu={nu} eps=0.2 pairs={pairs}"
              for mode, counts in (("dinh_sibony", (0, 0, 0, 0)), ("friedland", (11, 93, 723, 5341)))
              for nu, pairs in zip(range(2, 6), counts)]
    assert len(lines) == 12 and lines[:9] == listed + listed[4:5]
    # at a budget of 100, nu 2 is still listed and nu 3..5 are not
    for nu, line in zip(range(3, 6), lines[9:]):
        over = re.fullmatch(f"pair list: mode=friedland nu={nu} eps=0\\.2 none: (\\d+) "
                            "candidate pairs at one key, over 100 \\(PAIR_BUDGET=100\\)", line)
        assert over and int(over.group(1)) > 100


# -- shift-orbit pairs: the walk with a radius per column against the metric ----

SHIFT_EPS = (0.02, 0.05, 0.1, 0.2, 0.25, 0.5, 0.75, 1.0)  # 1/4, 1/2, 1 are weights


def shift_pools():
    z23 = corr(Z2, Z3)
    big = rs.preimage_tree(z23, rs.sample_points(1, 5)[0], 4)
    starts = [rs.point_at(0), rs.INFINITY] + rs.sample_points(2, 3)
    return {
        "forward": rs.forward_orbits(z23, starts, 3),
        "tree": rs.preimage_tree(z23, rs.sample_points(1, 9)[0], 3),
        # translations: the backward orbits crowd towards infinity
        "translations": rs.preimage_tree(
            corr(affine_translation(1), affine_translation(1j)), rs.point_at(0.5), 5),
        "shuffled": big[np.random.default_rng(3).permutation(len(big))[:80]],
    }


@pytest.mark.parametrize("name", ("forward", "tree", "translations", "shuffled"))
def test_shift_pairs_match_shifted_metric(name):
    pool = shift_pools()[name]
    paths, nu = pool_paths(pool), pool.nu
    seen = set()
    for horizon in sorted({0, 1, nu // 2, nu - 1, nu}):
        for eps in SHIFT_EPS:
            i, j = _shift_pairs(pool, eps, horizon)
            pairs = set(zip(i.tolist(), j.tolist()))
            assert len(pairs) == len(i) and all(a < b for a, b in pairs)
            assert pairs == reference_shift_pairs(paths, eps, horizon)
            seen.add(len(pairs))
    assert len(seen) > 3  # the cases do not all list the same pairs


def test_shift_counts_match_brute_force():
    # 8 orbits each: every subset is tried for the maximum separated family
    # and the minimum spanning set under the shifted metric
    translations = corr(affine_translation(1), affine_translation(1j))
    scalings = corr(rs.make_map([2, 0], [0, 1]), rs.make_map([3, 0], [0, 1]))
    for c in (translations, scalings):
        pool = rs.preimage_tree(c, rs.point_at(0.5), 3)
        paths, k = pool_paths(pool), len(pool)
        for horizon in range(4):
            for eps in (0.05, 0.2, 0.3, 0.5, 0.75):
                near = reference_shift_pairs(paths, eps, horizon)
                separated = [m for m in range(1 << k) if not any(
                    m >> i & 1 and m >> j & 1 for i, j in near)]
                assert rs.bowen_orbit_count(pool, eps, horizon) == max(
                    bin(m).count("1") for m in separated)
                if horizon == 3:
                    continue  # spanning for n = 4 steps needs depth 4
                covers = [1 << y | sum(1 << x for x in range(k)
                                       if (min(x, y), max(x, y)) in near)
                          for y in range(k)]
                spanning = min(bin(m).count("1") for m in range(1, 1 << k)
                               if _union(covers, m) == (1 << k) - 1)
                assert rs.spanning_number(pool, eps, horizon + 1) == (spanning, True)


def _union(covers, m):
    out = 0
    for y, c in enumerate(covers):
        if m >> y & 1:
            out |= c
    return out


# -- exact maximum independent sets: components solved apart --------------------


def _brute_mis(adj):
    """The largest independent vertex set, by trying every subset."""
    n = len(adj)
    masks = np.arange(1 << n)
    members = [(masks >> v & 1).astype(bool) for v in range(n)]
    independent = np.ones(1 << n, dtype=bool)
    for v in range(n):
        independent &= ~(members[v] & (masks & adj[v] != 0))
    return int(np.sum(members, axis=0)[independent].max())


def test_mis_exact_matches_brute_force_on_disconnected_graphs():
    rng = np.random.default_rng(21)
    for _ in range(1500):
        sizes = rng.integers(1, 5, size=int(rng.integers(2, 5)))
        order = rng.permutation(int(sizes.sum()))  # interleave the parts
        adj = [0] * len(order)
        start = 0
        for size in sizes.tolist():
            part = order[start:start + size].tolist()
            start += size
            density = rng.random()
            for a, b in itertools.combinations(range(size), 2):
                # a path through the part keeps it connected
                if b == a + 1 or rng.random() < density:
                    adj[part[a]] |= 1 << part[b]
                    adj[part[b]] |= 1 << part[a]
        assert separation._mis_exact(adj) == _brute_mis(adj)


def test_bowen_count_splits_the_conflict_graph():
    # the doubled identity's 64 label-only orbits: at horizon 1 and eps 0.2
    # the conflict graph is 16 disjoint 4-cliques
    doubled = rs.forward_orbits(corr(IDENTITY, mults=(2,)), [rs.point_at(0.3)], 6)
    for horizon, eps in ((1, 0.2), (3, 0.5)):
        assert rs.bowen_orbit_count(doubled, eps, horizon) == 16


def test_exact_maximum_refuses_a_large_component():
    # 48 starts times 8 words: at eps 0.4 and horizon 0 the conflict graph
    # has a connected component above JOINT_CUTOFF, where branch and bound
    # took seconds at 384 orbits and over half a minute at 512
    pool = rs.forward_orbits(corr(Z2, Z3), rs.sample_points(48, 3), 3)
    assert len(pool) == 384
    with pytest.raises(BudgetExceeded, match="conflict components"):
        rs.bowen_orbit_count(pool, 0.4, 0)
