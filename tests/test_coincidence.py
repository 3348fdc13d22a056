import collections
import contextlib
import io
import itertools
import json
import math
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import rsentropy as rs
from rsentropy import cli, coincidence
from rsentropy.errors import BudgetExceeded, InconsistentItinerary
from rsentropy.gaussian import canonical, lift
from rsentropy.projective import NearPoints, ring_around
from util import (
    THREE_GENERATORS,
    ReferenceGaussian,
    Z2,
    Z3,
    Z4,
    affine_translation,
    exact_point,
    random_exact_map,
    reference_cross_roots,
    reference_escape_bound,
    reference_exact_eval,
    reference_karp,
    reference_poly_gcd,
    same_bits,
    scalar,
    scaling,
    schoolbook_mul,
)

GOLDEN_CONFIGS = pathlib.Path(__file__).resolve().parent / "golden" / "configs"
BASILICA = rs.GeneratorSet([rs.make_map([1, 0, -1], [0, 0, 1]),
                            rs.make_map([1, 0, 0, -1], [0, 0, 0, 1])])
# conjugated by z -> 1/z: {z^2/(1 - z^2), z^3/(1 - z^3)} is not polynomial,
# so its graph does not close; it is the basilica graph with 0 and infinity swapped
CONJUGATE_BASILICA = rs.GeneratorSet([rs.make_map([1, 0, 0], [-1, 0, 1]),
                                      rs.make_map([1, 0, 0, 0], [-1, 0, 0, 1])])
FLOAT_BASILICA = rs.GeneratorSet([rs.make_map([1.0, 0, -1.0], [0, 0, 1.0]),
                                  rs.make_map([1.0, 0, 0, -1.0], [0, 0, 0, 1.0])])
RECIPROCAL = rs.GeneratorSet([rs.make_map([1, 0, -1], [0, 0, 1]),
                              rs.make_map([0, 0, 1], [1, 0, -1])])  # 1/(z^2 - 1)

# (z^3 + 2z^2 - 1)/2 and -2z^3 + 2z^2 - z - 2, which meet at -0.6, at the
# primitive sixth roots of unity and at infinity
CUBICS = rs.load_config(json.loads(
    (GOLDEN_CONFIGS / "ci-cubics.json").read_text(encoding="utf-8"))).generator_set()
WITHHELD = {"graph_nodes": 0, "graph_edges": 0, "depth_cap_hit": False, "exact": False,
            "cycle_points": (), "cycle_profile": (), "cycle_length": 0}


def _graph_details(fb):
    return {key: fb.details[key] for key in WITHHELD}


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


_G = rs.GaussianRational


@pytest.mark.parametrize("maps, points, exact", [
    # the two agree at z = 1/2, which snaps and is verified exactly
    ((rs.make_map([_G("1/3", "2/5"), "1/2"], [1, _G(0, "-3/7")]),
      rs.make_map([1, _G("-913/7650", "2614/2975"), _G("602/1275", "65063/80325")],
                  [0, "2/3", _G(1, "1/9")])), 3, 1),
    ((rs.make_map(["1/2", _G(0, "1/3"), 0], ["-1/5", 0, 1]),
      rs.make_map([1, 0, "-3/4", 0], [0, 0, 0, _G(2, "1/7")])), 5, 1),
    ((rs.make_map([0.5, 0.25], [1.0, -1.5]),
      rs.make_map([_G("2/3", "-1/2"), 0, "1/6", 1], ["5/4", 0, 0, "1/9"])), 4, 0),
], ids=["degrees-1-2", "degrees-2-3", "float-and-degree-3"])
def test_integer_cross_form_gives_the_schoolbook_roots(maps, points, exact, monkeypatch):
    # the cross form P_1 Q_2 - P_2 Q_1 is built on the maps' Gaussian-integer
    # pairs over scale_1 scale_2, and its roots are found on pairs; the
    # oracles build it on ReferenceGaussians and find its roots there
    fi, fj = maps
    assert fi.degree != fj.degree and 1 < fi.scale != fj.scale > 1
    cross_roots = coincidence._cross_roots
    seen = []

    def recording(cross, scale, exact_ok):
        seen.append([ReferenceGaussian(Fraction(a, scale), Fraction(b, scale)) for a, b in cross])
        return cross_roots(cross, scale, exact_ok)

    monkeypatch.setattr(coincidence, "_cross_roots", recording)
    got = rs.coincidence_set(rs.GeneratorSet(maps))
    cross = [a - b for a, b in zip(schoolbook_mul(fi.num, fj.den),
                                   schoolbook_mul(fj.num, fi.den))]
    assert seen == [cross]
    want = sorted((coincidence.CoincidencePoint(pt, frozenset({(1, 2)}), coords)
                   for pt, coords in reference_cross_roots(
                       cross, fi.exact_coeffs and fj.exact_coeffs)),
                  key=lambda cp: (cp.point.h0.real, cp.point.h1.real, cp.point.h1.imag))
    assert got == want
    assert (len(got), sum(cp.exact for cp in got)) == (points, exact)


def _random_cross(rng):
    """A random exact form, highest degree first, as ReferenceGaussians: one
    to three linear factors with small Gaussian-rational roots, repeated at
    times, times a random cofactor, with monomial factors (roots at 0 and at
    infinity) at times."""
    asc = [ReferenceGaussian(int(rng.integers(1, 4)), int(rng.integers(-2, 3)))]
    for _ in range(int(rng.integers(1, 4))):
        root = _random_gaussian(rng, rng.random() < 0.3)
        for _ in range(1 + (rng.random() < 0.3)):
            asc = schoolbook_mul(asc, [ReferenceGaussian(0) - root, ReferenceGaussian(1)])
    cofactor = [_random_gaussian(rng, False) for _ in range(int(rng.integers(1, 4)))]
    if not cofactor[-1].is_zero():
        asc = schoolbook_mul(asc, cofactor)
    zero = ReferenceGaussian(0)
    asc = [zero] * int(rng.integers(0, 2)) + asc + [zero] * int(rng.integers(0, 2))
    return asc[::-1]


@pytest.mark.parametrize("seed", range(3))
def test_cross_roots_match_the_oracle(seed):
    # random cross forms, and the cross forms of random generator pairs,
    # exact and with float coefficients: the roots found on integer pairs
    # are the oracle's on ReferenceGaussians, exact coordinates equal and
    # float points the same to the bit
    rng = np.random.default_rng(seed)
    divisions = deflations = 0
    for trial in range(500):
        if trial % 3 == 2:
            fi, fj = random_exact_map(rng), random_exact_map(rng)
            if fi == fj:
                continue
            exact_ok = True
            if trial % 9 == 8:
                fi, fj = (rs.make_map([complex(c) for c in f.num], [complex(c) for c in f.den])
                          for f in (fi, fj))
                exact_ok = False
            cross = [a - b for a, b in zip(schoolbook_mul(fi.num, fj.den),
                                           schoolbook_mul(fj.num, fi.den))]
        else:
            cross, exact_ok = _random_cross(rng), trial % 7 != 0
        pairs, scale = lift([scalar(c) for c in cross])
        got = coincidence._cross_roots(pairs, scale, exact_ok)
        want = reference_cross_roots(cross, exact_ok)
        assert [coords for _, coords in got] == [coords for _, coords in want]
        assert same_bits([(p.h0, p.h1) for p, _ in got], [(p.h0, p.h1) for p, _ in want])
        asc = [c for c in reversed(cross)]
        while asc[-1].is_zero():
            asc.pop()
        while asc[0].is_zero():
            asc.pop(0)
        divisions += len(reference_poly_gcd(asc, [c * ReferenceGaussian(k)
                                                  for k, c in enumerate(asc)][1:])) > 1
        deflations += exact_ok and sum(
            coords is not None and 0 not in (coords[0][0], coords[1][0]) for _, coords in got)
    assert divisions >= 60 and deflations >= 300


@pytest.mark.parametrize("name,distinct", [("ci-inexact", 1), ("ci-cubics", 2)])
def test_each_coincidence_polynomial_is_solved_once(name, distinct, monkeypatch):
    # the solve in which no root snaps gives the numeric roots of what the
    # deflation left, so nothing solves that polynomial again
    gens = rs.parse_config(GOLDEN_CONFIGS / f"{name}.json").generator_set()
    solved, roots = [], coincidence.aberth_roots
    monkeypatch.setattr(coincidence, "aberth_roots",
                        lambda coeffs: solved.append(tuple(coeffs)) or roots(coeffs))
    rs.coincidence_set(gens)
    assert len(solved) == len(set(solved)) == distinct


def test_is_recurrent_examples():
    gens = rs.GeneratorSet([affine_translation(1), affine_translation(2)])
    c = rs.build_correspondence(gens)
    inf = rs.coincidence_set(gens)[0]
    assert rs.is_recurrent(c, inf.exact_coords, 5) == rs.RecurrenceCertificate(
        "recurrent", (1, 2, 3, 4, 5))

    c23 = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))
    cert1 = rs.is_recurrent(c23, exact_point(1), 4)
    assert cert1.status == "recurrent" and cert1.return_depths[0] == 1

    # under {z^2, z^4}, -1 maps into the fixed point 1 and never returns
    c24 = rs.build_correspondence(rs.GeneratorSet([Z2, Z4]))
    assert rs.is_recurrent(c24, exact_point(-1), 6) == rs.RecurrenceCertificate(
        "never_returns", ())
    # 1 never returns under the basilica, nor under its conjugate by 1/z;
    # but with no escape test the conjugate's forward set does not close, so
    # only the depth bounds the answer
    cert = rs.is_recurrent(rs.build_correspondence(CONJUGATE_BASILICA), exact_point(1), 6)
    assert cert == rs.RecurrenceCertificate("no_return_within_depth", ())
    # float maps are not searched
    assert rs.is_recurrent(rs.build_correspondence(FLOAT_BASILICA), exact_point(0), 6) == \
        rs.RecurrenceCertificate("undecided", None)


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
        count, _ = rs.spanning_number(pool, 0.5, depth)
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
    # every admissible label word decorates the one itinerary
    words = list(itertools.product(*admissible_per_step))
    return rs.OrbitPool(
        np.tile(np.array([p.h0 for p in pts], dtype=np.complex128), (len(words), 1)),
        np.tile(np.array([p.h1 for p in pts], dtype=np.complex128), (len(words), 1)),
        np.array(words, dtype=np.int64).reshape(len(words), depth))


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


def test_tangential_coincidence_is_one_exact_point():
    # the cross form of {z^2, 2z - 1} is z1 (z0 - z1)^2: both maps fix 1 and
    # are tangent there, so Aberth alone splits 1 into two inexact copies
    gens = rs.GeneratorSet([Z2, rs.make_map([2, -1], [0, 1])])
    pts = rs.coincidence_set(gens)
    assert [cp.exact_coords for cp in pts] == [((1, 0), (1, 0)), ((1, 0), (0, 0))]
    for depth in (1, 5, 12):
        certs = coincidence.certified_coincidences(gens, depth)
        assert all(cert.return_depths == tuple(range(1, depth + 1)) for _, cert in certs)
    fb = rs.friedland_bounds(gens, 12)
    assert fb.details["exact"]


def test_float_tangential_coincidence_is_one_point():
    # the same tangency with float coefficients: the squarefree part of the
    # cross form is exact too, so Aberth sees the simple root 1 only
    gens = rs.GeneratorSet([rs.make_map([1.0, 0, 0], [0, 0, 1.0]),
                            rs.make_map([2.0, -1.0], [0, 1.0])])
    pts = rs.coincidence_set(gens)
    assert [cp.exact for cp in pts] == [False, False]
    assert rs.chordal_dist(pts[0].point, rs.point_at(1)) <= 1e-15
    assert pts[1].point.is_infinity()
    # a float set's points are not searched
    certs = coincidence.certified_coincidences(gens, 12)
    assert [cert for _, cert in certs] == [rs.RecurrenceCertificate("undecided", None)] * 2


def test_friedland_bounds_basilica_graph_exact_and_float():
    # infinity -> -1 -> infinity under the conjugate of z^2 - 1 is a
    # recurrent coincidence point; exact nodes are keyed by their coordinates
    fb = rs.friedland_bounds(CONJUGATE_BASILICA, depth=8)
    assert fb.details["exact"] and fb.details["depth_cap_hit"]
    assert (fb.details["graph_nodes"], fb.details["graph_edges"]) == (130, 130)
    assert fb.s_hat == pytest.approx(math.log(2))
    # the same maps with float coefficients: float nodes within the tolerance
    # would merge distinct escaping points, so no graph is built, no point
    # is decided and no lower bound is claimed
    for depth in (4, 6, 8):
        fb = rs.friedland_bounds(FLOAT_BASILICA, depth=depth)
        assert (fb.lower, fb.s_hat, fb.upper) == (None, None, math.log(5))
        assert _graph_details(fb) == WITHHELD
        statuses = [cert.status for _, cert in fb.details["coincidences"]]
        assert statuses == ["undecided"] * 3
    # so a node budget far below the exact graph's 130 nodes trips nothing
    fb = rs.friedland_bounds(FLOAT_BASILICA, depth=8, node_budget=25)
    assert _graph_details(fb) == WITHHELD


def test_friedland_bounds_withheld_at_inexact_recurrent_points():
    # {z^2 - 2, 2z^2 + z - 3} is exact, but it meets at infinity and at
    # (-1 +- sqrt 5)/2, which z^2 - 2 swaps: a recurrent pair of inexact
    # points, which are undecided
    gens = rs.GeneratorSet([rs.make_map([1, 0, -2], [0, 0, 1]),
                            rs.make_map([2, 1, -3], [0, 0, 1])])
    fb = rs.friedland_bounds(gens, depth=8)
    inexact = [(cp, cert) for cp, cert in fb.details["coincidences"] if not cp.exact]
    assert len(inexact) == 2
    square = gens.maps[0]
    for cp, cert in inexact:
        twice = rs.evaluate(square, rs.evaluate(square, cp.point))
        assert rs.chordal_dist(twice, cp.point) <= 1e-12
        assert cert == rs.RecurrenceCertificate("undecided", None)
    assert (fb.lower, fb.s_hat, fb.upper) == (None, None, math.log(4))
    assert _graph_details(fb) == WITHHELD
    # {z^2 - 1, 1/(z^2 - 1)} meets at 0 and at the undecided +- sqrt 2
    fb = rs.friedland_bounds(RECIPROCAL, depth=8)
    assert [cert.status for _, cert in fb.details["coincidences"]] == [
        "recurrent", "undecided", "undecided"]
    assert (fb.lower, fb.s_hat) == (None, None) and _graph_details(fb) == WITHHELD


@pytest.mark.parametrize("tol", (1e-9, 1e-3, 0.3))
def test_near_points_match_a_scan(tol):
    # clusters at distances on both sides of tol, poles included
    centers = [rs.point_at(0), rs.INFINITY] + rs.sample_points(30, 5)
    pts = list(centers)
    for c in centers[:12]:
        for r in (tol * (1 - 1e-9), tol, tol * (1 + 1e-9), 0.5 * tol, 2 * tol):
            pts += ring_around(c, r, 4)
    order = np.random.default_rng(3).permutation(len(pts))
    grid = NearPoints(tol)
    kept = []
    for i in order:
        p = pts[i]
        want = next((j for j, q in enumerate(kept) if rs.chordal_dist(p, q) <= tol), None)
        assert grid.find(p) == want
        if want is None:
            assert grid.add(p) == len(kept)
            kept.append(p)
    assert grid.points == kept


def test_step_table_holds_exact_rows_only(monkeypatch):
    # the nine inexact points are undecided and stepped by nothing; the
    # exact search from infinity steps each point it reaches once by every map
    stepped, images, step = collections.Counter(), set(), coincidence.exact_eval

    def spy(f, pt):
        stepped[f, pt] += 1
        images.add(image := step(f, pt))
        return image
    monkeypatch.setattr(coincidence, "exact_eval", spy)
    certs = coincidence.certified_coincidences(THREE_GENERATORS, 7)
    assert [cert for cp, cert in certs if not cp.exact] == [
        rs.RecurrenceCertificate("undecided", None)] * 9
    assert {cert.return_depths for cp, cert in certs if cp.exact} == {tuple(range(1, 8))}
    starts = {cp.exact_coords for cp, _ in certs if cp.exact}
    points = {pt for _, pt in stepped}
    assert starts and starts <= points <= starts | images
    assert set(stepped.values()) == {1}
    assert set(stepped) == set(itertools.product(THREE_GENERATORS.maps, points))
    for coords in points | images:
        # a pair of canonical (re, im) int pairs
        assert type(coords) is tuple and len(coords) == 2
        assert all(type(c) is tuple and len(c) == 2
                   and all(type(x) is int for x in c) for c in coords)
        assert coords[0] == (coords[0][0] or coords[1][0], 0)


def test_forward_graph_budget_raises_in_both_calls():
    # the call's one exact forward graph to depth 8 has 131 nodes, and the
    # budget admits exactly that many; a float set lists no node
    coincidence.certified_coincidences(FLOAT_BASILICA, 8, node_budget=1)
    rs.friedland_bounds(FLOAT_BASILICA, 8, node_budget=1)
    for call in (coincidence.certified_coincidences, rs.friedland_bounds):
        with pytest.raises(BudgetExceeded, match="forward graph exceeded the node budget"):
            call(CONJUGATE_BASILICA, 8, node_budget=130)
        call(CONJUGATE_BASILICA, 8, node_budget=131)
    # Karp's graph, from the recurrent points 0 and infinity, leaves out the
    # point 1 and is read from the same 131 nodes
    fb = rs.friedland_bounds(CONJUGATE_BASILICA, depth=8, node_budget=131)
    assert fb.details["graph_nodes"] == 130


def test_exact_points_match_by_equality_within_the_budget():
    # the graph's points are found by equality: 0 and 10^-12 are two points
    tiny = exact_point("1/1000000000000")
    points, succ = coincidence._forward_graph(
        [exact_point(0), tiny, exact_point(0)], lambda pt: [pt], 3, 2)
    assert (points, succ) == ([exact_point(0), tiny], [(0,), (1,)])
    with pytest.raises(BudgetExceeded, match="forward graph exceeded the node budget"):
        coincidence._forward_graph([exact_point(0), tiny, exact_point(2)],
                                   lambda pt: [pt], 3, 2)


def test_statuses_on_synthetic_graphs():
    # two starts on the 4-cycle 0 -> 1 -> 2 -> 3 -> 0 at depth 2: every
    # node is expanded and none steps back within 2, yet each start returns
    # at 4, so neither never returns
    cycle = lambda pt: [(pt + 1) % 4]
    points, succ = coincidence._forward_graph([0, 2], cycle, 2, 10)
    assert (points, len(succ)) == ([0, 2, 1, 3], 4)
    assert [coincidence._status(succ, u, 2) for u in (0, 1)] == [
        rs.RecurrenceCertificate("no_return_within_depth", ())] * 2
    _, succ = coincidence._forward_graph([0, 2], cycle, 4, 10)
    assert coincidence._status(succ, 0, 4) == rs.RecurrenceCertificate("recurrent", (4,))
    # a chain into a fixed point closes with no path back; one unexpanded
    # node on the way leaves the answer to the depth
    chain = lambda pt: [min(pt + 1, 3)]
    _, succ = coincidence._forward_graph([0], chain, 4, 10)
    assert coincidence._status(succ, 0, 4) == rs.RecurrenceCertificate("never_returns", ())
    _, succ = coincidence._forward_graph([0], chain, 3, 10)
    assert coincidence._status(succ, 0, 3).status == "no_return_within_depth"


@pytest.mark.parametrize("gens,depth,statuses", [
    (BASILICA, 10, ["recurrent", "never_returns", "recurrent"]),
    (CONJUGATE_BASILICA, 12, ["recurrent", "no_return_within_depth", "recurrent"]),
    (CUBICS, 9,
     ["no_return_within_depth", "undecided", "undecided", "recurrent"]),
], ids=["basilica", "conjugate", "cubics"])
def test_each_point_gets_one_status(gens, depth, statuses):
    # 0, 1 and infinity, then the cubics' points
    certs = coincidence.certified_coincidences(gens, depth)
    assert [cert.status for _, cert in certs] == statuses
    assert all((cert.return_depths is None) == (cert.status == "undecided")
               for _, cert in certs)


@pytest.mark.parametrize("call", ["certified_coincidences", "friedland_bounds"])
def test_float_points_are_searched_by_nothing(call, monkeypatch):
    # no float orbit is stepped and no float forward set is listed
    def refuse(*args):
        raise AssertionError("a float point was searched")
    monkeypatch.setattr(coincidence, "evaluate", refuse)
    monkeypatch.setattr(coincidence, "NearPoints", refuse, raising=False)
    monkeypatch.setattr("rsentropy.projective.NearPoints", refuse)
    result = getattr(coincidence, call)(FLOAT_BASILICA, 8)
    pairs = result.details["coincidences"] if call == "friedland_bounds" else result
    assert [cert for _, cert in pairs] == [rs.RecurrenceCertificate("undecided", None)] * 3


def test_karp_against_brute_force():
    edges = [
        (0, 1, 1.0), (1, 0, 0.0),         # cycle mean 0.5
        (1, 2, 0.2), (2, 2, 0.4),         # self-loop mean 0.4
        (2, 0, 0.1),
    ]
    karp, cycle = rs.karp_max_mean_cycle(3, edges)
    brute = _brute_max_mean_cycle(3, edges)
    assert karp == pytest.approx(brute) == pytest.approx(0.5)
    assert cycle == [1, 0]
    assert rs.karp_max_mean_cycle(3, [(0, 1, 1.0), (1, 2, 1.0)]) == (None, None)


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


def _graph(gens, depth):
    """(num_nodes, edges) of friedland_bounds' whole graph, weighted for Karp."""
    graphs = []
    search = coincidence._optimal_cycle
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coincidence, "_optimal_cycle",
                   lambda n, edges: graphs.append((n, edges)) or search(n, edges))
        rs.friedland_bounds(gens, depth=depth)
    n, edges = graphs[0]
    return n, [(u, v, math.log(m)) for u, v, m in edges]


def _random_graphs(count, seed):
    rng = np.random.default_rng(seed)
    weights = (0.0, math.log(2), math.log(3))
    for _ in range(count):
        n = int(rng.integers(1, 13))
        edges = []
        for _ in range(int(rng.integers(0, 31))):
            u = int(rng.integers(n))
            v = u if rng.random() < 0.2 else int(rng.integers(n))  # self-loops
            w = (weights[int(rng.integers(3))] if rng.random() < 0.5
                 else float(rng.normal()))
            edges.append((u, v, w))
        if rng.random() < 0.2:  # forward edges only: acyclic
            edges = [e for e in edges if e[0] < e[1]]
        yield n, edges


def test_karp_equals_the_table_oracle_on_random_graphs():
    signs = collections.Counter()
    for n, edges in _random_graphs(400, 5):
        got, want = rs.karp_max_mean_cycle(n, edges)[0], reference_karp(n, edges)
        assert got == want and type(got) is type(want)
        signs[None if got is None else (got > 0) - (got < 0)] += 1
    assert set(signs) == {None, -1, 0, 1}  # acyclic, negative, zero, positive


def test_karp_equals_the_table_oracle_on_basilica():
    n, edges = _graph(CONJUGATE_BASILICA, 10)
    assert (n, len(edges)) == (514, 514)
    assert rs.karp_max_mean_cycle(n, edges)[0] == reference_karp(n, edges)


def test_cycle_search_memory_is_linear_in_the_graph():
    # Karp's (n + 1) x n rows on the whole graph peak at 14.3 MB; its
    # components that hold a cycle have 1 and 2 nodes
    n, edges = _graph(CONJUGATE_BASILICA, 10)
    edges = [(u, v, round(math.exp(w))) for u, v, w in edges]
    tracemalloc.start()
    try:
        coincidence._optimal_cycle(n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _bounds_cli(gens, tmp_path, depth):
    """The CLI friedland-bounds run of gens at the depth, through cli.main."""
    cfg = {"generators": [{"num": [c.literal() for c in f.num],
                           "den": [c.literal() for c in f.den]} for f in gens.maps],
           "recurrence_depth": depth}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["friedland-bounds", "--config", str(path)]) == 0


@pytest.mark.parametrize("entry", ["certified_coincidences", "friedland_bounds", "cli"])
@pytest.mark.parametrize("gens", [BASILICA, CONJUGATE_BASILICA], ids=["basilica", "conjugate"])
def test_each_call_builds_one_exact_forward_graph(entry, gens, tmp_path, monkeypatch):
    # every exact answer of one call is read from one graph over exact
    # points; Karp's graph is a second build over its int ids, and no
    # exact point is searched on its own
    graphs, searches = [], []
    build, search = coincidence._forward_graph, coincidence.is_recurrent

    def counted_build(starts, *args):
        graphs.append([type(p) for p in starts])
        return build(starts, *args)
    monkeypatch.setattr(coincidence, "_forward_graph", counted_build)
    monkeypatch.setattr(coincidence, "is_recurrent",
                        lambda *a, **k: searches.append(a) or search(*a, **k))
    if entry == "cli":
        _bounds_cli(gens, tmp_path, 6)
    else:
        getattr(coincidence, entry)(gens, 6)
    assert [set(starts) for starts in graphs] == [{tuple}] + (
        [{int}] if entry != "certified_coincidences" else [])
    assert len(graphs[0]) == 3 and not searches


@pytest.mark.parametrize("depth,hit", [(1, True), (2, True), (3, False), (4, False), (5, False)])
def test_depth_cap_hit_means_a_node_was_left_unexpanded(depth, hit):
    # at depth 1 only infinity returns, and Karp's graph is the loop at
    # infinity, but the call's graph leaves -1 unexpanded, which 0 and 1
    # reach; from depth 2 on 0 returns too, and the graph 0 -> -1 -> -2
    # has expanded -2 at depth 3, whose images escape: the same 4 nodes as
    # at depth 40, all of them expanded, and 1 never returns
    d = rs.friedland_bounds(BASILICA, depth=depth).details
    assert d["depth_cap_hit"] is hit
    assert d["graph_nodes"] == (1 if depth == 1 else 4)
    assert d["coincidences"][1][1].status == (
        "never_returns" if depth >= 3 else "no_return_within_depth")


def _word_return_depths(maps, x, depth):
    """The n <= depth at which some word of n maps fixes the exact point x,
    walking every word by exact_eval with no merging and no escape test."""
    level, returns = [x], []
    for n in range(1, depth + 1):
        level = [coincidence.exact_eval(f, pt) for pt in level for f in maps]
        if x in level:
            returns.append(n)
    return tuple(returns)


@pytest.mark.parametrize("gens,depth", [
    (BASILICA, 8), (CONJUGATE_BASILICA, 8), (THREE_GENERATORS, 6),
    (rs.GeneratorSet([Z2, rs.make_map([2, -1], [0, 1])]), 8),
], ids=["basilica", "conjugate", "three-generators", "square-and-line"])
def test_exact_return_depths_match_every_word(gens, depth):
    certs = [(cp, cert) for cp, cert in coincidence.certified_coincidences(gens, depth)
             if cp.exact]
    assert certs
    for cp, cert in certs:
        assert cert.return_depths == _word_return_depths(gens.maps, cp.exact_coords, depth)


def test_friedland_bounds_steps_each_pair_once_per_call(monkeypatch):
    stepped = collections.Counter()
    step = coincidence.exact_eval
    monkeypatch.setattr(coincidence, "exact_eval",
                        lambda f, pt: stepped.update([(f, pt)]) or step(f, pt))
    fb = rs.friedland_bounds(CONJUGATE_BASILICA, depth=10)
    assert fb.details["exact"] and fb.details["graph_nodes"] == 514
    # the call's one forward graph steps each (map, point) once
    assert len(stepped) == 518 and set(stepped.values()) == {1}
    # and it lives for one call: the next call steps every pair again
    rs.friedland_bounds(CONJUGATE_BASILICA, depth=10)
    assert len(stepped) == 518 and set(stepped.values()) == {2}


def test_friedland_bounds_builds_the_escape_test_once(monkeypatch):
    # the one forward graph of the call steps by one exact step
    built, make = [], coincidence._escape_test
    monkeypatch.setattr(coincidence, "_escape_test",
                        lambda maps: built.append(maps) or make(maps))
    fb = rs.friedland_bounds(BASILICA, depth=8)
    assert fb.details["exact"] and len(fb.details["coincidences"]) == 3
    assert built == [BASILICA.maps]


def _inverted(pt):
    """The exact point under z -> 1/z, which swaps the coordinates."""
    return canonical(pt[::-1])[0]


@pytest.mark.parametrize("depth", (8, 12, 40))
def test_basilica_graph_closes_at_the_escape_radius(depth):
    # orbits of {z^2 - 1, z^3 - 1} leaving |z|^2 > 4 grow forever: the graph
    # is infinity -> infinity (both maps), 0 -> -1 (both), -1 -> 0, -1 -> -2
    fb = rs.friedland_bounds(BASILICA, depth=depth)
    d = fb.details
    assert (d["exact"], d["graph_nodes"], d["graph_edges"], d["depth_cap_hit"]) == (
        True, 4, 4, False)
    assert fb.s_hat == math.log(2) and fb.lower == math.log(5) - math.log(2)
    assert d["cycle_points"] == (((1, 0), (0, 0)),)
    assert (d["cycle_profile"], d["cycle_length"]) == ((2,), 1)
    two = math.log(2)
    assert _graph(BASILICA, depth) == (4, [(0, 2, two), (1, 1, two), (2, 0, 0.0),
                                           (2, 3, 0.0)])


def test_basilica_return_depths_match_the_conjugate():
    # the closure drops only points that never return
    certs = coincidence.certified_coincidences(BASILICA, 10)
    conjugate = {cp.exact_coords: cert.return_depths for cp, cert in
                 coincidence.certified_coincidences(CONJUGATE_BASILICA, 10)}
    assert {_inverted(cp.exact_coords): cert.return_depths
            for cp, cert in certs} == conjugate
    assert [cert.return_depths for _, cert in certs] == [
        (2, 4, 6, 8, 10), (), tuple(range(1, 11))]  # 0, 1, infinity


def _w_abs2(pt):
    """|w|^2 of the exact point [1 : w]."""
    (d, _), (a, b) = pt
    return Fraction(a * a + b * b, d * d)


def test_points_beyond_the_escape_radius_grow():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(40):
        maps = _random_polynomials(rng)
        escapes = coincidence._escape_test(maps)
        # |z| on a ladder through the radius, in random directions
        found = [False, False]
        for k in range(-20, 60):
            z = _random_gaussian(rng, False)
            if z.is_zero():
                continue
            z = z * ReferenceGaussian(Fraction(11, 10) ** k / (1 + math.isqrt(
                int(z.re ** 2 + z.im ** 2))))
            pt = exact_point(z)
            found[escapes(pt)] = True
            if escapes(pt):
                for f in maps:
                    image = coincidence.exact_eval(f, pt)
                    assert image[0] != (0, 0)
                    assert _w_abs2(image) < _w_abs2(pt)  # |f(z)| > |z|
                checked += 1
        assert found == [True, True]
    assert checked > 500
    # infinity and 0 are kept, and a set with a non-polynomial or a degree-1
    # generator never closes
    escapes = coincidence._escape_test(BASILICA.maps)
    for pt in (((1, 0), (0, 0)), ((0, 0), (1, 0))):
        assert not escapes(pt)
    far = exact_point(10 ** 9)
    assert escapes(far)
    for maps in (CONJUGATE_BASILICA.maps, MIXED.maps,
                 [BASILICA.maps[0], rs.make_map([2, -1], [0, 1])]):
        assert reference_escape_bound(maps) is None
        assert not coincidence._escape_test(maps)(far)


# Gaussian rationals of modulus 1, real and not
UNITS = [ReferenceGaussian(*u) for u in (
    (1, 0), (-1, 0), (0, 1), (Fraction(3, 5), Fraction(-4, 5)),
    (Fraction(-5, 13), Fraction(12, 13)), (Fraction(-20, 29), Fraction(21, 29)))]


def _random_polynomials(rng, unit_leads=False):
    """One to three exact polynomials of degree 2 to 4 with Gaussian-rational
    coefficients, the leading one and the denominator complex at times. With
    unit_leads, both are rationals times UNITS, so every |a_d| is rational
    and the squared escape radius B is a square."""
    maps = []
    for _ in range(int(rng.integers(1, 4))):
        d = int(rng.integers(2, 5))
        num = [_random_gaussian(rng, False) for _ in range(d + 1)]
        lead = _random_gaussian(rng, False)
        if unit_leads:
            num[0], lead = (ReferenceGaussian(Fraction(int(rng.integers(1, 9)),
                                                       int(rng.integers(1, 9))))
                            * UNITS[int(rng.integers(len(UNITS)))] for _ in range(2))
        if num[0].is_zero():
            num[0] = ReferenceGaussian(1)
        den = [0] * d + [lead if not lead.is_zero() else 3]
        maps.append(rs.make_map([scalar(c) for c in num], [scalar(c) for c in den]))
    return maps


@pytest.mark.parametrize("seed", range(3))
def test_escape_test_matches_the_fraction_bound(seed):
    # the integer predicate against B from Fraction arithmetic on num/den,
    # at points inside, on and outside |z|^2 = B in random directions: a
    # point [1 : w] escapes iff w != 0 and |w|^2 B < 1, that is |z|^2 > B
    rng = np.random.default_rng(seed)
    on_radius = 0
    for _ in range(40):
        maps = _random_polynomials(rng, unit_leads=True)
        bound = reference_escape_bound(maps)
        radius = Fraction(math.isqrt(bound.numerator), math.isqrt(bound.denominator))
        assert radius * radius == bound
        escapes = coincidence._escape_test(maps)
        for unit in UNITS:
            for nudge in (Fraction(-1, 10 ** 6), 0, Fraction(1, 10 ** 6), 1, -Fraction(1, 2)):
                z = unit * ReferenceGaussian(radius * (1 + nudge))
                pt = exact_point(z)
                assert escapes(pt) == (_w_abs2(pt) * bound < 1) == (nudge > 0)
                on_radius += nudge == 0
        # and random sets, whose B need not be a square
        maps = _random_polynomials(rng)
        bound = reference_escape_bound(maps)
        escapes = coincidence._escape_test(maps)
        for k in range(-8, 9):
            w = _random_gaussian(rng, False) * ReferenceGaussian(Fraction(3, 2) ** k)
            pt = exact_point(1, w)
            assert escapes(pt) == (not w.is_zero() and _w_abs2(pt) * bound < 1)
    assert on_radius == 40 * len(UNITS)
    # the basilica's B is 4: z = 2, the point [1 : 1/2], lies on the radius
    # and is kept; a z a little larger escapes
    assert reference_escape_bound(BASILICA.maps) == 4
    escapes = coincidence._escape_test(BASILICA.maps)
    assert exact_point(2) == ((2, 0), (1, 0)) and not escapes(exact_point(2))
    assert escapes(exact_point(Fraction(2001, 1000)))
    assert not escapes(exact_point(Fraction(1999, 1000)))


# z^2 - 1 with (z^2 - 1)/(z + 2): one polynomial generator is not enough
MIXED = rs.GeneratorSet([rs.make_map([1, 0, -1], [0, 0, 1]),
                         rs.make_map([1, 0, -1], [0, 1, 2])])


def test_mixed_set_keeps_the_unclosed_graph():
    # the values of the full depth-capped exploration
    fb = rs.friedland_bounds(MIXED, depth=8)
    d = fb.details
    assert (d["graph_nodes"], d["graph_edges"], d["depth_cap_hit"]) == (67, 68, True)
    assert [cert.return_depths for _, cert in d["coincidences"]] == [
        (2, 4, 6, 8), (), tuple(range(1, 9))]  # -1, 1, infinity
    assert fb.s_hat == math.log(2)  # Karp's float mean read 0.6931471805599452


def _random_multigraphs(count, seed):
    rng = np.random.default_rng(seed)
    for n, edges in _random_graphs(count, seed):
        yield n, [(u, v, int(rng.integers(1, 4))) for u, v, _ in edges]


def _is_cycle(edges, cycle):
    """cycle lists the edges of a simple closed walk, in walk order."""
    return (len({edges[e][0] for e in cycle}) == len(cycle)
            and all(edges[e][1] == edges[f][0]
                    for e, f in zip(cycle, cycle[1:] + cycle[:1])))


def test_component_search_equals_whole_graph_karp():
    lengths = collections.Counter()
    for n, edges in _random_multigraphs(400, 9):
        weighted = [(u, v, math.log(m)) for u, v, m in edges]
        want = reference_karp(n, weighted)
        cycle = coincidence._optimal_cycle(n, edges)
        if want is None:
            assert cycle == []
            continue
        assert _is_cycle(edges, cycle)
        assert edges[cycle[0]][0] == min(edges[e][0] for e in cycle)
        mean = math.log(math.prod(edges[e][2] for e in cycle)) / len(cycle)
        assert mean == pytest.approx(want, abs=1e-12)
        lengths[len(cycle)] += 1
        # Karp's own cycle: a cycle of its mean, whatever the weights
    assert len(lengths) >= 3
    # Karp's own cycle has its mean, whatever the weights
    for n, edges in _random_graphs(400, 6):
        got, cycle = rs.karp_max_mean_cycle(n, edges)
        assert got == reference_karp(n, edges)
        if got is None:
            assert cycle is None
        else:
            assert _is_cycle(edges, cycle)
            assert sum(edges[e][2] for e in cycle) / len(cycle) == pytest.approx(
                got, abs=1e-12)


def test_components_compare_exactly():
    # a 2-cycle of profile (2, 2) found first, then a self-loop of
    # multiplicity 2: the same mean, so the shorter cycle is kept
    edges = [(0, 1, 2), (1, 0, 2), (2, 2, 2)]
    assert coincidence._optimal_cycle(3, edges) == [2]
    # equal lengths and means: the cycle found first is kept
    assert coincidence._optimal_cycle(2, [(0, 0, 3), (1, 1, 3)]) == [0]
    # profile (3, 1) loses to a loop of 2 by 3 < 2^2; (3, 3, 1) wins by 9 > 2^3
    assert coincidence._optimal_cycle(3, [(0, 1, 3), (1, 0, 1), (2, 2, 2)]) == [2]
    assert coincidence._optimal_cycle(4, [(0, 1, 3), (1, 2, 3), (2, 0, 1),
                                          (3, 3, 2)]) == [0, 1, 2]
    assert coincidence._optimal_cycle(4, [(0, 1, 3), (1, 0, 3), (1, 2, 1),
                                          (2, 3, 9), (3, 3, 1)]) == [0, 1]



L2 = math.log(2)


@pytest.mark.parametrize("n,edges,mean,cycle", [
    # a loop of log 2 at each node beside a 2-cycle of mean 0: the loop at
    # node 0, the first node of the best mean, in either edge order
    (2, [(0, 1, 0), (1, 0, 0), (0, 0, L2), (1, 1, L2)], L2, [2]),
    (2, [(1, 1, L2), (0, 0, L2), (0, 1, 0), (1, 0, 0)], L2, [1]),
    # every cycle has mean log 2: Karp's first, not the shorter one
    (2, [(0, 1, L2), (1, 0, L2), (0, 0, L2), (1, 1, L2)], L2, [0, 1]),
    (3, [(0, 1, L2), (1, 2, L2), (2, 0, L2), (0, 0, L2)], 0.6931471805599452,
     [0, 1, 2]),
])
def test_karp_ties_inside_a_component(n, edges, mean, cycle):
    assert rs.karp_max_mean_cycle(n, edges) == (mean, cycle)
    assert coincidence._optimal_cycle(
        n, [(u, v, round(math.exp(w))) for u, v, w in edges]) == cycle


@pytest.mark.parametrize("gens,profile", [
    (BASILICA, (2,)), (CONJUGATE_BASILICA, (2,)), (MIXED, (2,)),
    (rs.GeneratorSet([Z2, Z3]), (2,)),
    (rs.GeneratorSet([affine_translation(1), affine_translation(2)]), (2,)),
    # 1/z and (z + 1)/z: 0 -> infinity by both, infinity -> 0 by 1/z
    (rs.GeneratorSet([rs.make_map([0, 1], [1, 0]), rs.make_map([1, 1], [1, 0])]), (2, 1)),
], ids=["basilica", "conjugate", "mixed", "z2-z3", "translations", "inverse-shift"])
def test_optimal_cycle_matches_fiber_entropy(gens, profile):
    fb = rs.friedland_bounds(gens, depth=8)
    d = fb.details
    assert d["cycle_profile"] == profile and d["cycle_length"] == len(profile)
    assert len(d["cycle_points"]) == len(profile)
    points = [coincidence.exact_to_proj(pt) for pt in d["cycle_points"]]
    value = rs.fiber_entropy(gens, points)
    assert value.profile == d["cycle_profile"]
    assert fb.s_hat == pytest.approx(value.value, abs=1e-15)
    assert fb.s_hat == math.log(math.prod(d["cycle_profile"])) / d["cycle_length"]
    assert fb.s_hat == pytest.approx(reference_karp(*_graph(gens, 8)), abs=1e-12)


def _random_gaussian(rng, real):
    re = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13)))
    im = 0 if real else Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13)))
    return ReferenceGaussian(re, im)


def _vanishing_at(rng, pt, degree, real):
    """A random form of the degree with a root at the exact point pt."""
    cofactor = tuple(_random_gaussian(rng, real) for _ in range(degree))
    return schoolbook_mul((pt[1], -pt[0]), cofactor)  # h1 z0 - h0 z1


@pytest.mark.parametrize("seed", range(4))
def test_exact_eval_matches_the_operation_oracle(seed):
    # the library steps canonical integer coordinates, the oracle steps the
    # point as two ReferenceGaussians; both images are the same point, and
    # its float point is the same to the bit
    rng = np.random.default_rng(seed)
    zero, one = ReferenceGaussian(0), ReferenceGaussian(1)
    checked = 0
    while checked < 40:
        degree = int(rng.integers(1, 5))
        # 1: pt is a zero of num, 2: a pole; real maps at real points
        # give real values of either sign
        kind, real = checked % 3, checked // 3 % 2 == 1
        pt = (one, _random_gaussian(rng, real))
        num, den = (tuple(_random_gaussian(rng, real) for _ in range(degree + 1))
                    for _ in range(2))
        if kind == 1:
            num = _vanishing_at(rng, pt, degree, real)
        elif kind == 2:
            den = _vanishing_at(rng, pt, degree, real)
        try:
            f = rs.make_map([scalar(c) for c in num], [scalar(c) for c in den])
        except rs.errors.RsentropyError:
            continue
        for p in (pt, (one, zero), (zero, one), (one, _random_gaussian(rng, real))):
            want = reference_exact_eval(f, p)
            got = coincidence.exact_eval(f, exact_point(*p))
            assert got == exact_point(*want)
            got_p = coincidence.exact_to_proj(got)
            want_p = rs.normalize(complex(want[0]), complex(want[1]))
            assert same_bits((got_p.h0, got_p.h1), (want_p.h0, want_p.h1))
        if kind:
            assert coincidence.exact_eval(f, exact_point(*pt)) == [
                ((0, 0), (1, 0)), ((1, 0), (0, 0))][kind - 1]
        checked += 1
