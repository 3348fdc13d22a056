import itertools
import math

import numpy as np
import pytest

import rsentropy as rs
from rsentropy import coincidence
from rsentropy.errors import BudgetExceeded, InconsistentItinerary
from rsentropy.projective import NearPoints, ring_around
from util import Z2, Z3, Z4, affine_translation, scaling, scan_return_depths


def test_coincidence_translations():
    gens = rs.GeneratorSet([affine_translation(1), affine_translation(2)])
    pts = rs.coincidence_set(gens)
    assert len(pts) == 1
    assert pts[0].point.is_infinity()
    assert pts[0].exact
    assert pts[0].witnesses == frozenset({(1, 2)})


def test_coincidence_z2_z3():
    pts = rs.coincidence_set(rs.GeneratorSet([Z2, Z3]))
    labels = set()
    for cp in pts:
        assert cp.exact
        labels.add("inf" if cp.point.is_infinity() else round(cp.point.affine().real, 9))
    assert labels == {0.0, 1.0, "inf"}


def test_coincidence_single_generator_empty():
    assert rs.coincidence_set(rs.GeneratorSet([Z2])) == []


def test_coincidence_witness_consistency():
    gens = rs.GeneratorSet([Z2, Z3, Z4])
    for cp in rs.coincidence_set(gens):
        for (i, j) in cp.witnesses:
            fi, fj = gens.maps[i - 1], gens.maps[j - 1]
            assert rs.chordal_dist(
                rs.evaluate(fi, cp.point), rs.evaluate(fj, cp.point)) <= 1e-9


def test_is_recurrent_examples():
    gens = rs.GeneratorSet([affine_translation(1), affine_translation(2)])
    c = rs.build_correspondence(gens)
    inf = rs.coincidence_set(gens)[0]
    cert = rs.is_recurrent(c, inf.point, 5, exact_point=inf.exact_coords)
    assert cert.status == "recurrent"
    assert cert.return_depths == (1, 2, 3, 4, 5)

    g23 = rs.GeneratorSet([Z2, Z3])
    c23 = rs.build_correspondence(g23)
    one = rs.point_at(1)
    cert1 = rs.is_recurrent(c23, one, 4)
    assert cert1.status == "recurrent" and cert1.return_depths[0] == 1

    # under {z^2, z^4}, -1 maps into the fixed point 1 and never returns
    c24 = rs.build_correspondence(rs.GeneratorSet([Z2, Z4]))
    cert_neg = rs.is_recurrent(c24, rs.point_at(-1), 6)
    assert cert_neg.status == "not_found_within_depth"


def test_fiber_entropy_translation_pair():
    gens = rs.GeneratorSet([affine_translation(1), affine_translation(2)])
    val = rs.fiber_entropy(gens, [rs.INFINITY])
    assert val.value == math.log(2)
    assert val.profile == (2,)


def test_fiber_entropy_unique_symbols():
    # the primitive cube roots of unity form a 2-cycle of z^2 that avoids
    # every coincidence of {z^2, z^3}, so each step has one decoration
    gens = rs.GeneratorSet([Z2, Z3])
    w = rs.point_at(complex(-0.5, math.sqrt(3) / 2))
    w2 = rs.evaluate(Z2, w)
    val = rs.fiber_entropy(gens, [w, w2])
    assert val.profile == (1, 1)
    assert val.value == 0.0


def test_fiber_entropy_profile_2_1():
    inv = rs.make_map([0, 1], [1, 0])          # 1/z
    shifted = rs.make_map([1, 1], [1, 0])      # (z+1)/z
    gens = rs.GeneratorSet([inv, shifted])
    zero, inf = rs.point_at(0), rs.INFINITY
    val = rs.fiber_entropy(gens, [zero, inf])
    assert val.profile == (2, 1)
    assert val.value == pytest.approx(0.5 * math.log(2))

    with pytest.raises(InconsistentItinerary):
        rs.fiber_entropy(gens, [rs.point_at(5), rs.point_at(7)])


def test_fiber_entropy_spanning_cross_check():
    # build the decorated fiber of the (0, inf) cycle and span it directly
    inv = rs.make_map([0, 1], [1, 0])
    shifted = rs.make_map([1, 1], [1, 0])
    gens = rs.GeneratorSet([inv, shifted])
    target = 0.5 * math.log(2)
    for depth in (6, 8, 10, 12):
        pool = _fiber_pool(gens, [rs.point_at(0), rs.INFINITY], depth)
        count = rs.spanning_number(pool, 0.5, depth)
        rate = math.log(count) / depth
        if depth == 12:
            assert abs(rate - target) < 0.05


def _fiber_pool(gens, cycle, depth):
    pts = [cycle[k % len(cycle)] for k in range(depth + 1)]
    admissible_per_step = []
    for k in range(depth):
        ok = [j + 1 for j, f in enumerate(gens.maps)
              if rs.chordal_dist(rs.evaluate(f, pts[k]), pts[k + 1]) <= 1e-9]
        admissible_per_step.append(ok)
    pool = []
    for word in itertools.product(*admissible_per_step):
        pool.append(rs.TruncatedPath(points=tuple(pts), symbols=tuple(word)))
    return pool


def test_infinite_fiber_criterion():
    inv = rs.make_map([0, 1], [1, 0])
    shifted = rs.make_map([1, 1], [1, 0])
    gens = rs.GeneratorSet([inv, shifted])
    branching = rs.fiber_entropy(gens, [rs.point_at(0), rs.INFINITY])
    assert max(branching.profile) >= 2  # fiber grows without bound
    sizes = [len(_fiber_pool(gens, [rs.point_at(0), rs.INFINITY], d)) for d in (4, 6, 8)]
    assert sizes == sorted(sizes) and sizes[-1] > sizes[0]

    # an itinerary avoiding every coincidence stays single-decoration;
    # the unit circle keeps the z^2 orbit at resolvable scale
    g23 = rs.GeneratorSet([Z2, Z3])
    x = rs.point_at(complex(math.cos(0.7), math.sin(0.7)))
    pts = [x]
    for _ in range(6):
        pts.append(rs.evaluate(Z2, pts[-1]))
    words = _admissible_count(g23, pts)
    assert words == 1


def _admissible_count(gens, pts):
    total = 1
    for k in range(len(pts) - 1):
        m = sum(1 for f in gens.maps
                if rs.chordal_dist(rs.evaluate(f, pts[k]), pts[k + 1]) <= 1e-9)
        total *= m
    return total


def test_friedland_bounds_translations():
    gens = rs.GeneratorSet([affine_translation(1), affine_translation(2)])
    fb = rs.friedland_bounds(gens, depth=8)
    assert fb.lower == 0.0
    assert fb.upper == math.log(2)
    assert fb.s_hat == pytest.approx(math.log(2))
    assert fb.details["exact"]


def test_friedland_bounds_single_quadratic():
    fb = rs.friedland_bounds(rs.GeneratorSet([Z2]), depth=8)
    assert fb.s_hat == 0.0
    assert fb.lower == fb.upper == math.log(2)


def test_friedland_bounds_shared_fixed_points():
    gens = rs.GeneratorSet([scaling(2), scaling(3)])
    for f in gens.maps:
        assert rs.classify_mobius(f).kind == "loxodromic"
    fb = rs.friedland_bounds(gens, depth=8)
    assert fb.lower == 0.0 and fb.upper == math.log(2)
    assert fb.s_hat == pytest.approx(math.log(2))


def test_friedland_bounds_z2_z3():
    fb = rs.friedland_bounds(rs.GeneratorSet([Z2, Z3]), depth=8)
    assert fb.upper == math.log(5)
    assert fb.lower == pytest.approx(math.log(5) - math.log(2))
    assert not fb.details["depth_cap_hit"]


def test_friedland_bounds_basilica_graph_exact_and_float():
    # 0 -> -1 -> 0 under z^2 - 1 is a recurrent coincidence point of
    # {z^2 - 1, z^3 - 1}; exact nodes are keyed by their coordinates
    exact = rs.GeneratorSet([rs.make_map([1, 0, -1], [0, 0, 1]),
                             rs.make_map([1, 0, 0, -1], [0, 0, 0, 1])])
    fb = rs.friedland_bounds(exact, depth=8)
    assert fb.details["exact"]
    assert (fb.details["graph_nodes"], fb.details["graph_edges"]) == (130, 130)
    assert fb.s_hat == pytest.approx(math.log(2))
    # the same maps with float coefficients take the chordal-tolerance path,
    # which builds the same graph while no two orbit points come close
    floats = rs.GeneratorSet([rs.make_map([1.0, 0, -1.0], [0, 0, 1.0]),
                              rs.make_map([1.0, 0, 0, -1.0], [0, 0, 0, 1.0])])
    shallow = [rs.friedland_bounds(g, depth=4) for g in (exact, floats)]
    assert [b.details["exact"] for b in shallow] == [True, False]
    assert ({(b.details["graph_nodes"], b.details["graph_edges"]) for b in shallow}
            == {(10, 10)})
    # deeper, orbit points merge within the tolerance
    for depth, graph in ((6, (25, 31)), (8, (26, 40))):
        fb = rs.friedland_bounds(floats, depth=depth)
        assert (fb.details["graph_nodes"], fb.details["graph_edges"]) == graph


@pytest.mark.parametrize("tol", (1e-9, 1e-3, 0.3))
def test_near_points_match_a_scan(tol):
    # clusters at distances on both sides of tol, poles included
    centers = [rs.point_at(0), rs.INFINITY] + rs.sample_points(30, 5)
    pts = list(centers)
    for c in centers[:12]:
        for r in (tol * (1 - 1e-9), tol, tol * (1 + 1e-9), 0.5 * tol, 2 * tol):
            pts += ring_around(c, r, 4)
    order = np.random.default_rng(3).permutation(len(pts))
    grid = NearPoints(tol, len(pts), "unused")
    kept = []
    for i in order:
        p = pts[i]
        want = next((j for j, q in enumerate(kept) if rs.chordal_dist(p, q) <= tol), None)
        assert grid.find(p) == want
        if want is None:
            assert grid.add(p) == len(kept)
            kept.append(p)
    assert grid.points == kept


def test_recurrence_matches_scan_on_three_generators():
    # nine inexact coincidence points and the exact point at infinity
    q = rs.parse_scalar
    gens = rs.GeneratorSet([
        rs.make_map([q("1/3"), q({"re": "2/7", "im": "-5/3"}), 1],
                    [0, q("3/4"), q({"re": "0", "im": "1/2"})]),
        rs.make_map([2, 0, -1], [0, 0, 1]),  # Chebyshev T2
        rs.make_map([q({"re": "1/2", "im": "1/2"}), q("-1/9")], [q("1/5"), 1]),
    ])
    corr = rs.build_correspondence(gens)
    certs = coincidence.certified_coincidences(gens, 7)
    assert [cp.exact for cp, _ in certs].count(False) == 9
    for cp, cert in certs:
        if cp.exact:
            assert cert.return_depths == tuple(range(1, 8))
        else:
            assert cert.return_depths == scan_return_depths(corr, cp.point, 7, 1e-9)
        assert cert.status == ("recurrent" if cert.return_depths else "not_found_within_depth")


def test_forward_set_budget_raises_in_both_modes():
    floats = rs.GeneratorSet([rs.make_map([1.0, 0, -1.0], [0, 0, 1.0]),
                              rs.make_map([1.0, 0, 0, -1.0], [0, 0, 0, 1.0])])
    exact = rs.GeneratorSet([rs.make_map([1, 0, -1], [0, 0, 1]),
                             rs.make_map([1, 0, 0, -1], [0, 0, 0, 1])])
    # the largest forward set to depth 8 has 14 (float) or 86 (exact)
    # points, the transition graph 26 or 130 nodes; each budget admits
    # exactly that many
    for gens, largest_set, graph_nodes in ((floats, 14, 26), (exact, 86, 130)):
        with pytest.raises(BudgetExceeded, match="forward set exceeded the node budget"):
            coincidence.certified_coincidences(gens, 8, node_budget=largest_set - 1)
        coincidence.certified_coincidences(gens, 8, node_budget=largest_set)
        with pytest.raises(BudgetExceeded,
                           match="transition graph exceeded the node budget"):
            rs.friedland_bounds(gens, depth=8, node_budget=graph_nodes - 1)
        fb = rs.friedland_bounds(gens, depth=8, node_budget=graph_nodes)
        assert fb.details["graph_nodes"] == graph_nodes


def test_exact_points_match_by_equality_within_the_budget():
    def point(z):
        return coincidence.exact_normalize(rs.GaussianRational.from_value(z),
                                           rs.GaussianRational(1))

    index = coincidence.ExactPoints(0.5, 2, "too many exact points")
    # the tolerance plays no part: 0 and 10^-12 are two points
    assert [index.index_of(point(z)) for z in (0, "1/1000000000000", 0)] == [0, 1, 0]
    assert index.points == [point(0), point("1/1000000000000")]
    assert index.find(point(2)) is None
    with pytest.raises(BudgetExceeded, match="too many exact points"):
        index.index_of(point(2))


def test_karp_against_brute_force():
    edges = [
        (0, 1, 1.0), (1, 0, 0.0),         # cycle mean 0.5
        (1, 2, 0.2), (2, 2, 0.4),         # self-loop mean 0.4
        (2, 0, 0.1),
    ]
    karp = rs.karp_max_mean_cycle(3, edges)
    brute = _brute_max_mean_cycle(3, edges)
    assert karp == pytest.approx(brute) == pytest.approx(0.5)
    assert rs.karp_max_mean_cycle(3, [(0, 1, 1.0), (1, 2, 1.0)]) is None


def _brute_max_mean_cycle(n, edges):
    best = None
    adj = {}
    for u, v, w in edges:
        adj.setdefault(u, []).append((v, w))

    def walk(start, node, weight, length, visited):
        nonlocal best
        for v, w in adj.get(node, ()):
            if v == start and length >= 0:
                mean = (weight + w) / (length + 1)
                best = mean if best is None or mean > best else best
            elif v not in visited:
                walk(start, v, weight + w, length + 1, visited | {v})

    for s in range(n):
        walk(s, s, 0.0, 0, {s})
    return best
