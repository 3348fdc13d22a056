import numpy as np
import pytest

import rsentropy as rs
from rsentropy import orbits
from rsentropy.errors import BudgetExceeded, DepthMismatch, MixedNu, NonGenericTerminal
from rsentropy.estimate import ladder_tree
from util import (
    IDENTITY,
    QUAD5,
    Z2,
    Z3,
    EmptyPath,
    TruncatedPath,
    delta_metric,
    pool_from_paths,
    pool_paths,
    reference_tree_levels,
    shift,
    shifted_separation,
    steps_match,
)


def corr(*maps, mults=None):
    return rs.build_correspondence(rs.GeneratorSet(list(maps)), mults)


def test_forward_orbit_counts():
    single = corr(Z2)
    assert len(rs.forward_orbits(single, rs.sample_points(1, 0), 5)) == 1
    pair = corr(Z2, Z3)
    assert len(rs.forward_orbits(pair, rs.sample_points(3, 1), 4)) == 3 * 2 ** 4


def test_forward_orbit_example_word():
    pair = corr(Z2, Z3)
    orbits = rs.forward_orbits(pair, [rs.point_at(2)], 2)
    by_word = {o.symbols: o for o in pool_paths(orbits)}
    pts = [p.affine().real for p in by_word[(1, 2)].points]
    assert pts == pytest.approx([2.0, 4.0, 64.0])


def test_forward_orbit_budget(monkeypatch):
    # 10 starts and 2^10 words make 10,240 orbits; at the budget they are built
    monkeypatch.setattr(orbits, "ORBIT_BUDGET", 100)
    with pytest.raises(BudgetExceeded, match="10240 forward orbits exceed the budget 100"):
        rs.forward_orbits(corr(Z2, Z3), rs.sample_points(10, 2), 10)
    monkeypatch.setattr(orbits, "ORBIT_BUDGET", 12)
    assert len(rs.forward_orbits(corr(Z2, Z3), rs.sample_points(3, 2), 2)) == 12


def test_preimage_tree_budget():
    with pytest.raises(BudgetExceeded):
        rs.preimage_tree(corr(Z2, Z3), rs.sample_points(1, 2)[0], 8, budget=1000)
    # with no budget passed, the default is the CLI's TREE_BUDGET: 5^7 = 78,125
    # orbits exceed it, where the forward-orbit budget would admit them
    for build in (rs.preimage_tree, rs.preimage_tree_levels):
        with pytest.raises(BudgetExceeded):
            build(corr(Z2, Z3), rs.sample_points(1, 2)[0], 7)


def test_preimage_tree_examples():
    c = corr(Z2)
    two = rs.preimage_tree(c, rs.point_at(4), 1)
    assert sorted(o.points[0].affine().real for o in pool_paths(two)) == pytest.approx([-2.0, 2.0])

    eight = rs.preimage_tree(c, rs.sample_points(1, 3)[0], 3)
    assert len(eight) == 8

    pair = corr(Z2, Z3)
    tree = rs.preimage_tree(pair, rs.sample_points(1, 4)[0], 2)
    assert len(tree) == 25
    sizes = {}
    for o in pool_paths(tree):
        sizes[o.symbols] = sizes.get(o.symbols, 0) + 1
    assert sorted(sizes.values()) == [4, 6, 6, 9]


def test_preimage_tree_weight_invariant():
    pair = corr(Z2, Z3)
    for nu in (1, 2, 3):
        tree = rs.preimage_tree(pair, rs.sample_points(1, 5)[0], nu)
        assert len(tree) == rs.d_top(pair) ** nu


def test_preimage_tree_orbits_validate_and_rerun_forward():
    pair = corr(Z2, Z3)
    tree = rs.preimage_tree(pair, rs.sample_points(1, 6)[0], 3)
    comps = pair.primed()
    for o in pool_paths(tree[::5]):
        assert steps_match(pair, o, 1e-9)
        x = o.points[0]
        for j, a in enumerate(o.symbols):
            x = rs.evaluate(comps[a - 1], x)
            assert rs.chordal_dist(x, o.points[j + 1]) < 1e-8


def test_preimage_tree_perturbs_critical_terminal():
    # terminal 0 is a critical value of z^2; automatic perturbation kicks in
    tree = rs.preimage_tree(corr(Z2), rs.point_at(0), 2)
    assert len(tree) == 4


def test_tree_refuses_a_terminal_that_stays_critical(monkeypatch):
    # every preimage a double root: the terminal and its 5 perturbations
    # each hit a critical value
    calls = []
    monkeypatch.setattr(orbits, "preimages", lambda f, q: calls.append(q) or [(q, 2)])
    with pytest.raises(NonGenericTerminal,
                       match="after 5 perturbations: critical value at depth 1$"):
        rs.preimage_tree_levels(corr(Z2), rs.point_at(2), 2)
    assert len(calls) == 6


README_TERMINAL = rs.sample_points(1, 42 + 9001)[0]  # ladder_tree's at seed 42


@pytest.mark.parametrize("maps, terminal, nu, jac_floor", (
    ([Z2, Z3], README_TERMINAL, 5, 0.0),
    (QUAD5, README_TERMINAL, 3, 0.0),
    (QUAD5, README_TERMINAL, 3, 1.0),   # prunes 150 of 1,000 orbits
    ([Z2], rs.point_at(0), 4, 0.0),     # a critical value: perturbed
), ids=("readme", "quad5", "quad5-pruned", "z2-critical"))
def test_tree_levels_match_the_reference_step_loop(maps, terminal, nu, jac_floor):
    levels = rs.preimage_tree_levels(corr(*maps), terminal, nu, jac_floor)
    want = reference_tree_levels(corr(*maps), terminal, nu, jac_floor)
    assert sorted(levels) == sorted(want) == list(range(nu + 1))
    for k, (h0, h1, symbols) in want.items():
        for got, ref in zip((levels[k].h0, levels[k].h1, levels[k].symbols), (h0, h1, symbols)):
            assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes()
    if jac_floor:
        assert len(levels[nu]) < rs.d_top(corr(*maps)) ** nu
    if terminal == rs.point_at(0):
        assert levels[0].h0[0, 0] != 0.0


def test_preimage_tree_jacobian_floor_prunes():
    c = corr(Z2)
    terminal = rs.sample_points(1, 13)[0]
    full = rs.preimage_tree(c, terminal, 3, jac_floor=0.0)
    assert len(full) == 8
    # a floor above the peak Jacobian (4 for z^2) collapses every step
    pruned = rs.preimage_tree(c, terminal, 3, jac_floor=10.0)
    assert len(pruned) == 1
    # pruned steps keep a genuinely low-Jacobian preimage
    comps = c.primed()
    for orbit in pool_paths(pruned):
        for j, a in enumerate(orbit.symbols):
            assert rs.fs_jacobian(comps[a - 1], orbit.points[j]) < 10.0


def test_shift_examples():
    path = TruncatedPath(
        points=(rs.point_at(0), rs.point_at(1), rs.point_at(2)),
        symbols=(1, 2),
    )
    shifted = shift(path)
    assert shifted.depth == 1
    assert shifted.symbols == (2,)
    assert shifted.points[0].affine() == 1.0

    twice = shift(shift(path))
    assert twice.depth == 0 and twice.points[0].affine() == 2.0
    with pytest.raises(EmptyPath):
        shift(twice)


def test_delta_metric_examples():
    pts = tuple(rs.point_at(k) for k in range(5))
    p = TruncatedPath(points=pts, symbols=(1, 1, 1, 1))
    assert delta_metric(p, p) == 0.0

    q = TruncatedPath(points=pts, symbols=(2, 1, 1, 1))
    assert delta_metric(p, q) == 1.0

    # points differing only at x_3 by chordal 0.4 -> 0.4 / 2^3
    base = [rs.point_at(0.1 * k) for k in range(5)]
    other = list(base)
    target = 0.4
    lo, hi = 0.0, 5.0
    for _ in range(80):  # solve for an affine offset giving chordal 0.4
        mid = 0.5 * (lo + hi)
        if rs.chordal_dist(base[3], rs.point_at(0.3 + mid)) < target:
            lo = mid
        else:
            hi = mid
    other[3] = rs.point_at(0.3 + 0.5 * (lo + hi))
    pp = TruncatedPath(points=tuple(base), symbols=(1, 1, 1, 1))
    qq = TruncatedPath(points=tuple(other), symbols=(1, 1, 1, 1))
    assert delta_metric(pp, qq) == pytest.approx(0.05, abs=1e-6)

    with pytest.raises(DepthMismatch):
        delta_metric(p, shift(q))


def test_shift_lemma_closed_form():
    # max over shifts of the path metric equals the reweighted closed form
    pair = corr(Z2, Z3)
    pool = pool_paths(rs.forward_orbits(pair, rs.sample_points(4, 8), 6))
    rng = np.random.default_rng(9)
    for _ in range(1000):
        i, j = rng.integers(0, len(pool), size=2)
        p, q = pool[i], pool[j]
        for n in (0, 2, 5):
            direct = max(
                delta_metric(_shift_k(p, k), _shift_k(q, k))
                for k in range(n + 1)
            )
            assert direct == shifted_separation(p, q, n)


def _shift_k(path, k):
    for _ in range(k):
        path = shift(path)
    return path


def test_doubled_component_labels():
    doubled = corr(IDENTITY, mults=[2])
    orbits = rs.forward_orbits(doubled, [rs.point_at(1)], 3)
    assert len(orbits) == 8  # 2^3 label decorations of one itinerary
    assert len({o.symbols for o in pool_paths(orbits)}) == 8
    itineraries = {tuple(round(p.h0.real, 12) for p in o.points) for o in pool_paths(orbits)}
    assert len(itineraries) == 1


# -- the array pool ----------------------------------------------------------------


@pytest.fixture(scope="module")
def readme_levels():
    # the README {z^2, z^3} tree at seed 42, levels 0..5
    return ladder_tree(corr(Z2, Z3), 2, 5, 42, 20_000)


def _row_bytes(h0, h1, symbols):
    return [(a.tobytes(), b.tobytes(), s.tobytes()) for a, b, s in zip(h0, h1, symbols)]


def test_tree_levels_extend_parent_rows(readme_levels):
    assert sorted(readme_levels) == list(range(6))
    for k in range(1, 6):
        level, parent = readme_levels[k], readme_levels[k - 1]
        assert len(level) == rs.d_top(corr(Z2, Z3)) ** k
        assert level.nu == k and level.h0.shape == level.h1.shape == (len(level), k + 1)
        assert level.h0.dtype == np.complex128 and level.symbols.shape == (len(level), k)
        # dropping the head column leaves a parent row, bit for bit, and the
        # rows run in parent order, then label order
        index = {row: i for i, row in enumerate(_row_bytes(parent.h0, parent.h1,
                                                           parent.symbols))}
        tails = _row_bytes(level.h0[:, 1:], level.h1[:, 1:], level.symbols[:, 1:])
        order = [(index[t], int(a)) for t, a in zip(tails, level.symbols[:, 0])]
        assert order == sorted(order)


def test_pool_round_trips_through_paths(readme_levels):
    pool = readme_levels[5]
    back = pool_from_paths(pool_paths(pool))
    for name in ("h0", "h1", "symbols"):
        a, b = getattr(pool, name), getattr(back, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for mode in ("dinh_sibony", "friedland"):
        for eps in (0.05, 0.2):
            res = rs.count_separated(pool, eps, mode, seed=42)
            assert rs.count_separated(back, eps, mode, seed=42) == res
            assert all(type(v) is int for v in (res.nu, res.count, res.pool_size))


def test_pool_rows_select_by_slice_or_sequence(readme_levels):
    pool = readme_levels[2]
    assert pool_paths(pool[[3, 1]]) == [pool_paths(pool)[3], pool_paths(pool)[1]]
    assert len(pool[:7]) == 7 and pool[:7].nu == 2
    with pytest.raises(TypeError):
        pool[0]
    with pytest.raises(TypeError):
        list(pool)


def test_pool_from_paths_rejects_empty_and_mixed():
    with pytest.raises(rs.errors.EmptyPool):
        pool_from_paths([])
    paths = pool_paths(rs.forward_orbits(corr(Z2), rs.sample_points(2, 0), 2))
    with pytest.raises(MixedNu):
        pool_from_paths(paths + [shift(paths[0])])


def test_pool_rejects_arrays_that_disagree_on_shape():
    pool = rs.forward_orbits(corr(Z2, Z3), rs.sample_points(3, 0), 3)
    h0, h1, symbols = pool.h0, pool.h1, pool.symbols
    bad = {
        # 3 x 4 points with 3 x 1 labels once passed as nu 1
        "labels short": (h0[:3], h1[:3], symbols[:3, :1]),
        "labels long": (h0[:, :3], h1[:, :3], symbols),
        "h1 rows": (h0[:3], h1[:2], symbols[:3]),
        "h1 columns": (h0, h1[:, :3], symbols),
        "label rows": (h0, h1, symbols[:5]),
        "flat h0": (h0[0], h1[0], symbols[0]),
        "flat labels": (h0[:, :1], h1[:, :1], np.zeros(len(pool), dtype=np.int64)),
        "no columns": (h0[:, :0], h1[:, :0], symbols[:, :0]),
    }
    for arrays in bad.values():
        with pytest.raises(MixedNu, match=r"shapes h0 \(.*\) disagree on k or nu"):
            rs.OrbitPool(*arrays)
    # an empty selection and a pool of 0-step orbits are pools
    for good in (pool[:0], rs.OrbitPool(h0[:, :1], h1[:, :1], symbols[:, :0])):
        assert rs.OrbitPool(good.h0, good.h1, good.symbols).nu == good.nu
    assert (len(pool[:0]), pool[:0].nu) == (0, 3)


def test_pool_rejects_non_canonical_points(readme_levels):
    pool = rs.forward_orbits(corr(Z2), rs.sample_points(1, 0), 1)
    for x0 in (rs.ProjPoint(1j, 0), rs.ProjPoint(-0.6, 0.8)):
        h0, h1 = np.vstack([pool.h0, pool.h0]), np.vstack([pool.h1, pool.h1])
        h0[1, 0], h1[1, 0] = x0.h0, x0.h1
        with pytest.raises(rs.errors.NonCanonicalPoint):
            rs.OrbitPool(h0, h1, np.vstack([pool.symbols, pool.symbols]))
    # canonical h0 is real and nonnegative, [0 : 1] included
    pool = rs.forward_orbits(corr(Z2, Z3), [rs.point_at(0), rs.INFINITY], 2)
    assert (pool.h0.real >= 0).all() and not pool.h0.imag.any()
    assert pool_from_paths(pool_paths(pool)).h0.tobytes() == pool.h0.tobytes()
    level = readme_levels[5]
    assert (level.h0.real >= 0).all() and not level.h0.imag.any()
