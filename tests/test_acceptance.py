"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Estimator criteria run the real pipelines at the configured desk scale;
exact criteria must hit closed forms on the nose. Each test reports its
wall time against the criterion's budget.
"""

import itertools
import json
import math
import time

import numpy as np

import rsentropy as rs
from rsentropy import cli, separation
from util import (
    Z2,
    Z3,
    Z4,
    affine_translation,
    apply_unitary,
    delta_metric,
    group_by_word,
    pool_paths,
    random_exact_map,
    random_unitary,
    scaling,
    shift,
    shifted_separation,
    steps_match,
)

LOG2 = math.log(2.0)
LOG5 = math.log(5.0)


def _verdict(num, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def _write_config(tmp_path, data, name):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


Z23_GENERATORS = [
    {"num": ["1", "0", "0"], "den": ["0", "0", "1"]},
    {"num": ["1", "0", "0", "0"], "den": ["0", "0", "0", "1"]},
]


def test_criterion_01_exact_formula(tmp_path, capsys):
    start = time.monotonic()
    path = _write_config(tmp_path, {"generators": Z23_GENERATORS}, "z23.json")
    assert cli.main(["exact", "--config", path]) == 0
    r1 = json.loads(capsys.readouterr().out)

    mobius = {"generators": [
        {"num": ["1", "1"], "den": ["0", "1"]},
        {"num": ["2", "0"], "den": ["0", "1"]},
    ]}
    path2 = _write_config(tmp_path, mobius, "mob.json")
    assert cli.main(["exact", "--config", path2]) == 0
    r2 = json.loads(capsys.readouterr().out)

    ok = r1["exact"]["h_top_exact"] == LOG5 and r2["exact"]["h_top_exact"] == LOG2
    _verdict(1, "exact formula on the line", ok, time.monotonic() - start, 1.0)


def test_criterion_02_projective_space_formula():
    start = time.monotonic()
    ok = rs.exact_htop([2, 2], 2) == math.log(8)
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        degrees = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 5)))]
        lower, upper = rs.general_bounds_eval(degrees, n)
        ok = ok and lower == upper
    _verdict(2, "degree-sum formula in dimension n", ok, time.monotonic() - start, 1.0)


def test_criterion_03_degree_ledger():
    start = time.monotonic()
    c = rs.build_correspondence(rs.GeneratorSet([Z2, Z4]))
    sq = rs.compose_corr(c, c)
    ok = [(f.degree, m) for f, m in sq.components] == [(4, 1), (8, 2), (16, 1)]
    ok = ok and rs.d_top(sq) == 36 == rs.d_top(c) ** 2
    ok = ok and rs.support_degree(sq) == 28 < 36
    _verdict(3, "degree ledger under composition", ok, time.monotonic() - start, 1.0)


def test_criterion_04_doubling_law():
    start = time.monotonic()
    starts = rs.sample_points(12, 404)
    base_corr = rs.build_correspondence(rs.GeneratorSet([Z2]))
    doubled = rs.build_correspondence(rs.GeneratorSet([Z2]), [2])
    ok = True
    for nu in range(2, 9):
        base_pool = rs.forward_orbits(base_corr, starts, nu)
        doubled_pool = rs.forward_orbits(doubled, starts, nu)
        for eps in (0.05, 0.2):
            base = rs.count_separated(base_pool, eps, "dinh_sibony")
            dbl = rs.count_separated(doubled_pool, eps, "dinh_sibony")
            ok = ok and base.exact and dbl.exact
            ok = ok and dbl.count == 2 ** nu * base.count
    _verdict(4, "multiplicity doubling law", ok, time.monotonic() - start, 30.0)


def test_criterion_05_single_map_estimator():
    start = time.monotonic()
    c = rs.build_correspondence(rs.GeneratorSet([Z2]))
    est, _ = rs.estimate_entropy(c, "ds", nu_min=4, nu_max=12, seed=0)
    ok = 0.55 <= est.value <= 0.80

    fam = rs.mp_family(rs.GeneratorSet([Z2]), 0.9, 8, seed=1, samples=200)
    ok = ok and fam.count >= 2 ** math.floor(0.9 * 8)
    # re-verify the advertised separation directly
    for orbits in group_by_word(pool_paths(fam.family)).values():
        for a, b in itertools.combinations(orbits, 2):
            gap = max(rs.chordal_dist(p, q) for p, q in zip(a.points, b.points))
            ok = ok and gap > fam.epsilon
    _verdict(5, "single-map estimator convergence", ok, time.monotonic() - start, 180.0)


def test_criterion_06_two_generator_lower_bound():
    start = time.monotonic()
    c = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))
    est, _ = rs.estimate_entropy(c, "ds", nu_min=2, nu_max=8, seed=42,
                                 tree_budget=20000)
    ok = est.value >= 0.75 * LOG5 and est.value <= LOG5 + 0.05
    _verdict(6, "two-generator estimator brackets", ok, time.monotonic() - start, 300.0)


def _sandwich_cases():
    c = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))
    cases = []
    rng = np.random.default_rng(7007)
    for idx, (eps, nu) in enumerate(itertools.product((0.05, 0.1, 0.2), (2, 3))):
        for rep in range(4 if eps == 0.2 else 3):
            depth = nu + rs.c_of_eps(eps)
            n = 2 ** depth  # label words, in the order forward_orbits runs them
            pick = sorted(rng.choice(n, size=min(7, n), replace=False).tolist())
            pool = rs.forward_orbits(c, rs.sample_points(2, 1000 + 31 * idx + rep), depth)
            cases.append((pool[[s * n + i for s in range(2) for i in pick]][:15], eps, nu))
    return cases[:20]


def test_criterion_07_and_08_sandwich_and_sum_up():
    start = time.monotonic()
    cases = _sandwich_cases()
    ok = len(cases) == 20
    sum_up_checked = 0
    for pool, eps, nu in cases:
        res = rs.sandwich_counts(pool, eps, nu)
        ok = ok and res["N_nu"] <= res["M_nu"] <= res["N_ext"]
        # criterion 8 on the same instances: prefix orbits, exact counts
        heads = rs.OrbitPool(pool.h0[:, :nu + 1], pool.h1[:, :nu + 1], pool.symbols[:, :nu])
        prefixes = {}
        for r, key in enumerate(zip(*(map(tuple, a.tolist())
                                      for a in (heads.symbols, heads.h0, heads.h1)))):
            prefixes.setdefault(key, r)
        per_word, joint, equal = rs.sum_up_partition(heads[list(prefixes.values())], eps)
        ok = ok and equal and joint == res["N_nu"]
        sum_up_checked += 1
    elapsed = time.monotonic() - start
    _verdict(7, "separation sandwich chain", ok, elapsed, 60.0)
    _verdict(8, "per-word sum-up identity", ok and sum_up_checked == 20, elapsed, 60.0)


def test_criterion_09_shared_fixed_point_pair():
    start = time.monotonic()
    gens = rs.GeneratorSet([scaling(2), scaling(3)])
    kinds = {rs.classify_mobius(f).kind for f in gens.maps}
    ok = kinds == {"loxodromic"}
    ok = ok and rs.exact_htop([1, 1], 1) == LOG2

    c = rs.build_correspondence(gens)
    est, _ = rs.estimate_entropy(c, "friedland", epsilon_grid=(0.1, 0.2),
                                 nu_min=6, nu_max=12, seed=0)
    ok = ok and est.value <= 0.1

    fb = rs.friedland_bounds(gens, depth=12)
    ok = ok and fb.lower == 0.0 and fb.upper == LOG2
    _verdict(9, "shared-fixed-point Mobius pair", ok, time.monotonic() - start, 120.0)


def test_criterion_10_translation_semigroup():
    start = time.monotonic()
    t1 = affine_translation(1)
    ti = rs.make_map([1, rs.GaussianRational(0, 1)], [0, 1])  # z + i
    gens = rs.GeneratorSet([t1, ti])

    points = rs.coincidence_set(gens)
    ok = len(points) == 1 and points[0].point.is_infinity() and points[0].exact

    fiber = rs.fiber_entropy(gens, [rs.INFINITY])
    ok = ok and fiber.value == LOG2

    fb = rs.friedland_bounds(gens, depth=12)
    ok = ok and fb.lower == 0.0 and fb.upper == LOG2

    c = rs.build_correspondence(gens)
    est, _ = rs.estimate_entropy(c, "friedland", epsilon_grid=(0.1, 0.2),
                                 nu_min=8, nu_max=14, seed=0, tree_budget=20000)
    ok = ok and est.value <= 0.15
    _verdict(10, "translation semigroup", ok, time.monotonic() - start, 120.0)


def test_criterion_11_property_suites():
    start = time.monotonic()
    ok = True

    # metric axioms on 10^4 random triples
    pts = rs.sample_points(2000, 1101)
    rng = np.random.default_rng(1102)
    for _ in range(10_000):
        i, j, k = rng.integers(0, len(pts), size=3)
        a, b, c = pts[i], pts[j], pts[k]
        dab = rs.chordal_dist(a, b)
        ok = ok and dab == rs.chordal_dist(b, a)
        ok = ok and rs.chordal_dist(a, c) <= dab + rs.chordal_dist(b, c) + 1e-12
        ok = ok and 0.0 <= dab <= 1.0
    # unitary invariance on 10^4 sampled pairs
    for _ in range(10_000):
        i, j = rng.integers(0, len(pts), size=2)
        u, v = random_unitary(rng)
        d0 = rs.chordal_dist(pts[i], pts[j])
        d1 = rs.chordal_dist(apply_unitary(u, v, pts[i]),
                             apply_unitary(u, v, pts[j]))
        ok = ok and abs(d0 - d1) < 1e-10

    # map algebra invariants
    for _ in range(100):
        f = random_exact_map(rng)
        g = random_exact_map(rng)
        ok = ok and rs.compose(f, g).degree == f.degree * g.degree
    for _ in range(30):
        f, g = random_exact_map(rng, 2), random_exact_map(rng, 2)
        q = rs.sample_points(1, int(rng.integers(0, 10**6)))[0]
        ok = ok and sum(m for _, m in rs.preimages(f, q)) == f.degree
        h = rs.compose(f, g)
        p = rs.sample_points(1, int(rng.integers(0, 10**6)))[0]
        direct = rs.evaluate(f, rs.evaluate(g, p))
        ok = ok and rs.chordal_dist(rs.evaluate(h, p), direct) <= 1e-9
        jf = rs.fs_jacobian(h, p)
        jr = rs.fs_jacobian(f, rs.evaluate(g, p)) * rs.fs_jacobian(g, p)
        if jr > 1e-10:
            ok = ok and abs(jf - jr) / jr < 1e-8

    # orbit-space invariants: shift lemma (10^3 pairs), the pool's shifted
    # pairs against it, plus tree consistency
    pair = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))
    pool = rs.forward_orbits(pair, rs.sample_points(4, 1103), 6)
    paths = pool_paths(pool)
    grid = (0.05, 0.2, 0.5)
    listed = {(n, eps): set(zip(*(a.tolist() for a in separation._shift_pairs(pool, eps, n))))
              for n in (0, 3, 5) for eps in grid}
    outcomes = set()
    for _ in range(1000):
        i, j = rng.integers(0, len(paths), size=2)
        p, q = paths[i], paths[j]
        for n in (0, 3, 5):
            acc = 0.0
            pp, qq = p, q
            for step in range(n + 1):
                acc = max(acc, delta_metric(pp, qq))
                if step < n:
                    pp, qq = shift(pp), shift(qq)
            ok = ok and acc == shifted_separation(p, q, n)
            for eps in grid:
                # the walk lists a pair once, as (i, j) with i < j; an orbit
                # is at distance 0 from itself
                near = i == j or (min(i, j), max(i, j)) in listed[n, eps]
                ok = ok and near == (shifted_separation(p, q, n) <= eps)
                outcomes.add(near)
    ok = ok and outcomes == {False, True}
    tree = rs.preimage_tree(pair, rs.sample_points(1, 1104)[0], 3)
    ok = ok and len(tree) == rs.d_top(pair) ** 3
    comps = pair.primed()
    for orbit in pool_paths(tree):
        ok = ok and steps_match(pair, orbit, 1e-9)
        x = orbit.points[0]
        for j, a in enumerate(orbit.symbols):
            x = rs.evaluate(comps[a - 1], x)
            ok = ok and rs.chordal_dist(x, orbit.points[j + 1]) <= 1e-8
    _verdict(11, "metric and algebra property suites", ok, time.monotonic() - start, 60.0)


def test_criterion_12_determinism(tmp_path):
    start = time.monotonic()
    cfg = {
        "generators": Z23_GENERATORS,
        "estimator": {"nu_min": 2, "nu_max": 8},
    }
    path = _write_config(tmp_path, cfg, "det.json")
    blobs = []
    # the report echoes its output paths, so both runs write to the same ones
    report, csv = tmp_path / "run.json", tmp_path / "run.csv"
    for _ in (1, 2):
        code = cli.main(["estimate", "--config", path, "--method", "ds",
                         "--seed", "42", "--report", str(report),
                         "--csv", str(csv)])
        blobs.append((code, report.read_bytes(), csv.read_bytes()))
    ok = blobs[0] == blobs[1] and blobs[0][0] == 0
    _verdict(12, "seeded byte-identical reports", ok, time.monotonic() - start, 620.0)
