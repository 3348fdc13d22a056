import math

import numpy as np
import pytest

import rsentropy as rs
from rsentropy import estimate
from rsentropy.errors import BudgetExceeded, InsufficientData
from util import IDENTITY, Z2, Z3, group_by_word, pool_paths, reference_greedy


def test_entropy_fit_exact_geometric():
    rows = [rs.SeparationCount(0.1, n, "dinh_sibony", 2 ** n, 2 ** n, True)
            for n in range(3, 10)]
    fit = rs.entropy_fit(rows)
    assert abs(fit.value - math.log(2)) < 1e-12
    assert fit.slope_stderr < 1e-12


def test_entropy_fit_constant_counts():
    rows = [rs.SeparationCount(0.1, n, "friedland", 7, 100, False) for n in range(2, 8)]
    assert rs.entropy_fit(rows).value == 0.0


def test_entropy_fit_noisy_power():
    rng = np.random.default_rng(5)
    rows = [
        rs.SeparationCount(0.1, n, "dinh_sibony",
                           int(5 ** n * (1 + rng.uniform(-0.02, 0.02))), 10 ** 9, False)
        for n in range(3, 10)
    ]
    fit = rs.entropy_fit(rows)
    assert abs(fit.value - math.log(5)) < 0.02


def test_entropy_fit_needs_three_rungs():
    rows = [rs.SeparationCount(0.1, n, "friedland", 2 ** n, 99, True) for n in (2, 3)]
    with pytest.raises(InsufficientData):
        rs.entropy_fit(rows)


def test_entropy_fit_takes_best_epsilon():
    rows = []
    for n in range(2, 6):
        rows.append(rs.SeparationCount(0.1, n, "friedland", 2 ** n, 99, True))
        rows.append(rs.SeparationCount(0.2, n, "friedland", 3 ** n, 99, True))
    fit = rs.entropy_fit(rows)
    assert fit.best_epsilon == 0.2
    assert abs(fit.value - math.log(3)) < 1e-12


def test_estimate_entropy_single_quadratic():
    c = rs.build_correspondence(rs.GeneratorSet([Z2]))
    est, rows = rs.estimate_entropy(c, "ds", nu_min=3, nu_max=7, seed=0)
    assert abs(est.value - math.log(2)) < 0.05
    assert {r.nu for r in rows} == {3, 4, 5, 6, 7}


def test_estimate_budget_shortens_ladder():
    c = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))
    est, rows = rs.estimate_entropy(c, "ds", nu_min=2, nu_max=12, seed=0,
                                    tree_budget=700)
    assert max(r.nu for r in rows) == 4  # 5^4 = 625 <= 700 < 5^5
    with pytest.raises(InsufficientData):
        rs.estimate_entropy(c, "ds", nu_min=2, nu_max=12, seed=0, tree_budget=30)


def test_estimate_rejects_an_unknown_method():
    c = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))
    # a count mode is not a method; the method is checked before the tree,
    # whose budget of 30 orbits would leave too short a ladder
    for method in ("bogus", "dinh_sibony", "DS"):
        with pytest.raises(ValueError, match=f"^unknown method '{method}'$"):
            rs.estimate_entropy(c, method, nu_min=2, nu_max=12, seed=0, tree_budget=30)


def test_estimate_rejects_a_repeated_or_empty_epsilon_grid(monkeypatch):
    c = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))
    trees = []
    monkeypatch.setattr(estimate, "preimage_tree_levels", lambda *a, **kw: trees.append(a))
    # both are refused before a tree is built
    with pytest.raises(ValueError, match=r"^epsilon grid \[0.1, 0.1, 0.2\] repeats an epsilon$"):
        rs.estimate_entropy(c, "ds", epsilon_grid=(0.1, 0.1, 0.2), nu_min=2, nu_max=4)
    with pytest.raises(InsufficientData):
        rs.estimate_entropy(c, "friedland", epsilon_grid=(), nu_min=2, nu_max=4)
    assert trees == []


def test_mp_family_identity_generator():
    fam = rs.mp_family(rs.GeneratorSet([IDENTITY]), 0.9, 5, seed=0, samples=50)
    assert fam.count == 1


def test_mp_family_budget_is_exact():
    # 2^5 = 32 orbits: above tree_budget 20, though within twice it
    with pytest.raises(BudgetExceeded):
        rs.mp_family(rs.GeneratorSet([Z2]), 0.9, 5, seed=0, samples=50,
                     tree_budget=20)
    fam = rs.mp_family(rs.GeneratorSet([Z2]), 0.9, 5, seed=0, samples=50,
                       tree_budget=32)
    assert fam.count >= 1


def test_mp_family_quadratic_lower_bound():
    beta, nu = 0.9, 6
    fam = rs.mp_family(rs.GeneratorSet([Z2]), beta, nu, seed=1, samples=200)
    assert fam.count >= 2 ** (math.floor(beta * nu))
    assert fam.jacobian_bound >= 4.0  # true peak Jacobian of z^2
    assert fam.jacobian_floor == pytest.approx(
        fam.jacobian_bound ** (-beta / (1 - beta)))
    # verified pairwise separation within each word
    _assert_family_separated(fam)


def test_mp_family_two_generators():
    beta, nu = 0.9, 4
    fam = rs.mp_family(rs.GeneratorSet([Z2, Z3]), beta, nu, seed=2, samples=100)
    assert fam.count >= 5 ** (math.floor(beta * nu) + 1)
    _assert_family_separated(fam)


def test_mp_family_drops_violators_in_pool_order(monkeypatch):
    # every tree orbit twice: the verification keeps the first copy of each
    # in pool order, word by word in sorted order, and drops the second
    gens = rs.GeneratorSet([Z2, Z3])
    tree = rs.preimage_tree(rs.build_correspondence(gens), rs.sample_points(1, 4)[0], 2)
    paths = pool_paths(tree)
    doubled = tree[np.tile(np.arange(len(tree)), 2)]
    monkeypatch.setattr(estimate, "preimage_tree_levels", lambda *args, **kw: {2: doubled})
    fam = rs.mp_family(gens, 0.9, 2, seed=2, samples=100)
    groups = group_by_word(paths)
    assert all(reference_greedy(g, fam.epsilon, None) == len(g) for g in groups.values())
    assert pool_paths(fam.family) == [p for w in sorted(groups) for p in groups[w]]
    assert (fam.count, fam.dropped) == (len(paths), len(paths))


def _assert_family_separated(fam):
    for word, orbits in group_by_word(pool_paths(fam.family)).items():
        for i in range(len(orbits)):
            for j in range(i + 1, len(orbits)):
                gap = max(
                    rs.chordal_dist(a, b)
                    for a, b in zip(orbits[i].points, orbits[j].points)
                )
                assert gap > fam.epsilon


def test_friedland_estimate_within_proven_bounds():
    # the itinerary-entropy estimate must land inside the two-sided bounds
    # (slack 0.1 both ways) on the semigroups the acceptance suite runs
    cases = [
        (rs.GeneratorSet([Z2]), (0.05, 0.2), 3, 9, 20000),
        (rs.GeneratorSet([Z2, Z3]), (0.05, 0.2), 2, 5, 4000),
        (rs.GeneratorSet([rs.make_map([2, 0], [0, 1]), rs.make_map([3, 0], [0, 1])]),
         (0.1, 0.2), 6, 12, 20000),
        (rs.GeneratorSet([rs.make_map([1, 1], [0, 1]),
                          rs.make_map([1, rs.GaussianRational(0, 1)], [0, 1])]),
         (0.1, 0.2), 8, 14, 20000),
    ]
    for gens, grid, nu_min, nu_max, budget in cases:
        bounds = rs.friedland_bounds(gens, depth=10)
        c = rs.build_correspondence(gens)
        est, _ = rs.estimate_entropy(c, "friedland", epsilon_grid=grid,
                                     nu_min=nu_min, nu_max=nu_max, seed=0,
                                     tree_budget=budget)
        assert bounds.lower - 0.1 <= est.value <= bounds.upper + 0.1
