import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import rsentropy as rs
from rsentropy import ratmap
from rsentropy.errors import CommonFactor, DegenerateMap, DegreeMismatch, NotMobius
from rsentropy.polynomial import form_eval_complex, strip_infinite_roots
from rsentropy.projective import normalize
from util import (
    IDENTITY,
    ReferenceGaussian,
    Z2,
    Z3,
    form_d0,
    form_d1,
    monomial,
    random_exact_map,
    reference_compose,
    reference_form_eval_exact,
    reference_classify_mobius,
    reference_make_map,
    reference_sqrt_exact,
    ref,
    same_bits,
    scalar,
    scaling,
    schoolbook_mul,
)


def test_make_map_monomial():
    assert Z2.degree == 2
    assert Z2.num[0] == rs.GaussianRational(1)
    assert Z2.den[-1] == rs.GaussianRational(1)


def test_make_map_common_factor():
    # z0*z1 / z1^2 shares the factor z1
    with pytest.raises(CommonFactor):
        rs.make_map([0, 1, 0], [0, 0, 1])


def test_make_map_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        rs.make_map([1, 0, 0], [0, 1])


@pytest.mark.parametrize("call,match", [
    (lambda: rs.make_map([1], [1]), "degree must be at least 1"),
    (lambda: rs.from_affine([0], [1]), "identically zero"),
], ids=["make-map-degree-0", "from-affine-zero-numerator"])
def test_degenerate_maps_are_refused(call, match):
    with pytest.raises(DegenerateMap, match=match):
        call()


def test_from_affine_homogenization():
    f = rs.from_affine([1, 2], [-1, 1])  # (2z+1)/(z-1)
    # canonical scaling divides the pair (2z0+z1, z0-z1) by 2
    assert f.num == (rs.GaussianRational(1), rs.GaussianRational(Fraction(1, 2)))
    assert f.den == (rs.GaussianRational(Fraction(1, 2)), rs.GaussianRational(Fraction(-1, 2)))
    assert f.degree == 1


def test_compose_monomials():
    assert rs.maps_equal(rs.compose(Z2, Z3), monomial(6))


def test_compose_affine():
    plus1 = rs.from_affine([1, 1], [1])
    twice = rs.from_affine([0, 2], [1])
    expect = rs.from_affine([1, 2], [1])  # 2z + 1
    assert rs.maps_equal(rs.compose(plus1, twice), expect)


def test_compose_pointwise_oracle():
    f = rs.from_affine([1, 0, 1], [1])       # z^2 + 1
    g = rs.from_affine([-1, 1], [1, 1])      # (z-1)/(z+1)
    h = rs.compose(f, g)
    assert h.degree == 2
    for p in rs.sample_points(25, 3):
        direct = rs.evaluate(f, rs.evaluate(g, p))
        assert rs.chordal_dist(rs.evaluate(h, p), direct) < 1e-10


def test_maps_equal_scaling_and_degree():
    scaled = rs.make_map([3, 0, 0], [0, 0, 3])
    assert rs.maps_equal(scaled, Z2)
    assert not rs.maps_equal(Z2, Z3)
    assert rs.maps_equal(rs.compose(Z2, monomial(4)), rs.compose(monomial(4), Z2))


def test_evaluate_examples():
    assert rs.evaluate(Z2, rs.point_at(2)).affine() == pytest.approx(4.0)
    img = rs.evaluate(Z2, rs.normalize(1, 0))
    assert img.h0 == 1.0 and img.h1 == 0.0
    f = rs.from_affine([1, 2], [-1, 1])
    assert rs.evaluate(f, rs.point_at(3)).affine() == pytest.approx(3.5)


def test_preimages_examples():
    roots = rs.preimages(Z2, rs.point_at(4))
    assert sorted(r.affine().real for r, _ in roots) == pytest.approx([-2.0, 2.0])
    assert all(m == 1 for _, m in roots)

    double = rs.preimages(Z2, rs.point_at(0))
    assert len(double) == 1 and double[0][1] == 2
    assert rs.chordal_dist(double[0][0], rs.point_at(0)) < 1e-9


def test_preimages_companion_matrix_oracle():
    f = rs.from_affine([0, -3, 0, 1], [1])  # z^3 - 3z
    got = rs.preimages(f, rs.point_at(1))
    oracle = np.roots([1, 0, -3, -1])  # z^3 - 3z - 1 = 0
    got_pts = sorted((r.affine() for r, _ in got), key=lambda z: (z.real, z.imag))
    oracle_pts = sorted((complex(z) for z in oracle), key=lambda z: (z.real, z.imag))
    for a, b in zip(got_pts, oracle_pts):
        assert rs.chordal_dist(rs.point_at(a), rs.point_at(b)) < 1e-9


def test_preimages_quadruple_critical_value():
    z4 = monomial(4)
    roots = rs.preimages(z4, rs.point_at(0))
    assert len(roots) == 1 and roots[0][1] == 4
    inf_roots = rs.preimages(z4, rs.normalize(1, 0))
    assert len(inf_roots) == 1 and inf_roots[0][1] == 4
    assert inf_roots[0][0].is_infinity()


def test_preimages_of_infinity_mobius():
    f = rs.from_affine([1, 2], [-1, 1])  # (2z+1)/(z-1), pole at z=1
    roots = rs.preimages(f, rs.normalize(1, 0))
    assert len(roots) == 1
    assert roots[0][0].affine() == pytest.approx(1.0)


def test_evaluate_compensated_near_cancellation():
    # both forms nearly vanish at z = 1; the exact refinement pins the image
    delta = Fraction(1, 10 ** 12)
    f = rs.make_map([1, -1], [1, -1 + delta])  # (z-1)/(z-1+delta)
    img = rs.evaluate(f, rs.point_at(1))
    assert rs.chordal_dist(img, rs.point_at(0)) < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_exact_fallback_is_the_operation_oracle_rounded_bit_for_bit(seed, monkeypatch):
    # f = (z - a) R / ((z - a - delta) S) nearly cancels near z = a, where
    # evaluate redoes both forms exactly at the point's dyadic coordinates;
    # the oracle reduces after every operation and rounds once at the end
    monkeypatch.setattr(ratmap, "normalize", lambda w0, w1: (w0, w1))
    rng = np.random.default_rng(seed)
    G = ReferenceGaussian

    def gaussian():
        return G(Fraction(int(rng.integers(-9, 10)), int(rng.choice([1, 3, 5, 7]))),
                 Fraction(int(rng.integers(-9, 10)), int(rng.choice([1, 2, 9]))))

    checked = differs = 0
    while checked < 40:
        a = gaussian()
        delta = G(Fraction(int(rng.integers(1, 9)), int(rng.choice([10 ** 9, 3 ** 21, 2 ** 40]))),
                  Fraction(int(rng.integers(-3, 4)), 10 ** 11))
        r, s = ([gaussian() for _ in range(int(rng.integers(1, 4)))] for _ in range(2))
        try:
            num, den = schoolbook_mul([-a, G(1)], r), schoolbook_mul([-(a + delta), G(1)], s)
            f = rs.from_affine([scalar(c) for c in num], [scalar(c) for c in den])
        except rs.errors.RsentropyError:
            continue
        z = complex(a) + complex(*rng.integers(-3, 4, size=2)) * 1e-13
        p = normalize(z, 1.0) if rng.random() < 0.7 else normalize(1.0, 1 / z)
        fast = (form_eval_complex(f.num_float, p.h0, p.h1),
                form_eval_complex(f.den_float, p.h0, p.h1))
        assert math.hypot(*map(abs, fast)) < 1e-8 * f.float_scale
        want = [complex(reference_form_eval_exact(form, p.h0, p.h1)) for form in (f.num, f.den)]
        assert same_bits(rs.evaluate(f, p), want)
        differs += not same_bits(fast, want)
        checked += 1
    assert differs > 0


def test_preimage_multiplicities_sum_to_degree():
    rng = np.random.default_rng(31)
    for _ in range(25):
        f = random_exact_map(rng)
        q = rs.sample_points(1, int(rng.integers(0, 10_000)))[0]
        roots = rs.preimages(f, q)
        assert sum(m for _, m in roots) == f.degree
        for r, _ in roots:
            assert rs.chordal_dist(rs.evaluate(f, r), q) <= 1e-9


def test_fs_jacobian_examples():
    rot = rs.make_map([rs.GaussianRational(0, 1), 0], [0, 1])  # z -> i z
    assert rs.fs_jacobian(rot, rs.point_at(0)) == pytest.approx(1.0)
    assert rs.fs_jacobian(Z2, rs.point_at(0)) == pytest.approx(0.0, abs=1e-30)
    assert rs.fs_jacobian(Z2, rs.point_at(1)) == pytest.approx(4.0)


def test_fs_jacobian_chain_rule():
    f = rs.from_affine([1, 0, 1], [1])
    g = rs.from_affine([-1, 1], [1, 1])
    h = rs.compose(f, g)
    for p in rs.sample_points(40, 43):
        lhs = rs.fs_jacobian(h, p)
        rhs = rs.fs_jacobian(f, rs.evaluate(g, p)) * rs.fs_jacobian(g, p)
        if rhs > 1e-12:
            assert abs(lhs - rhs) / rhs < 1e-8


def test_fs_jacobian_finite_difference():
    # area distortion of small chordal rings, mean of (image dist / h)^2
    h = 1e-4
    maps = [Z2, rs.from_affine([1, 0, 1], [1]), rs.from_affine([-1, 1], [1, 1])]
    checked = 0
    for p in rs.sample_points(60, 51):
        f = maps[checked % len(maps)]
        jac = rs.fs_jacobian(f, p)
        if jac < 1e-3:
            continue
        ring = rs.projective.ring_around(p, h, 16)
        image = rs.evaluate(f, p)
        est = sum((rs.chordal_dist(rs.evaluate(f, q), image) / h) ** 2 for q in ring) / 16
        assert abs(est - jac) / jac < 1e-4
        checked += 1
        if checked >= 50:
            break
    assert checked >= 50


def test_degree_one_maps_take_the_general_path():
    # preimages and fs_jacobian once special-cased degree 1; the general path
    # gives the same bits as the closed forms they used
    rng = np.random.default_rng(17)

    def scalar():
        return rs.GaussianRational(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))

    checked = 0
    while checked < 300:
        try:
            f = rs.make_map([scalar(), scalar()], [scalar(), scalar()])
        except rs.errors.RsentropyError:
            continue
        q = rs.sample_points(1, int(rng.integers(0, 10_000)))[0]
        cross = [q.h1 * f.num_float[k] - q.h0 * f.den_float[k] for k in range(2)]
        finite_desc, inf_mult = strip_infinite_roots(cross)
        assert inf_mult == 0
        assert rs.preimages(f, q) == [(normalize(-finite_desc[1] / finite_desc[0], 1.0), 1)]

        p0, p1, q0, q1 = (tuple(complex(c) for c in d(form)) for d, form in (
            (form_d0, f.num), (form_d1, f.num), (form_d0, f.den), (form_d1, f.den)))
        w = p0[0] * q1[0] - p1[0] * q0[0]
        val0 = form_eval_complex(f.num_float, q.h0, q.h1)
        val1 = form_eval_complex(f.den_float, q.h0, q.h1)
        assert rs.fs_jacobian(f, q) == abs(w) ** 2 / (abs(val0) ** 2 + abs(val1) ** 2) ** 2
        checked += 1


def test_degree_multiplicativity_random():
    rng = np.random.default_rng(61)
    for _ in range(100):
        f = random_exact_map(rng)
        g = random_exact_map(rng)
        assert rs.compose(f, g).degree == f.degree * g.degree


def test_compose_associative():
    rng = np.random.default_rng(62)
    for _ in range(15):
        f = random_exact_map(rng, max_degree=2)
        g = random_exact_map(rng, max_degree=2)
        h = random_exact_map(rng, max_degree=2)
        assert rs.maps_equal(rs.compose(f, rs.compose(g, h)),
                             rs.compose(rs.compose(f, g), h))


def test_classify_mobius_quadratic_fixed_points():
    inv = rs.make_map([0, 1], [1, 0])  # 1/z, an elliptic involution
    cls = rs.classify_mobius(inv)
    assert cls.kind == "elliptic"
    assert sorted(round(p.affine().real, 12) for p in cls.fixed_points) == [-1.0, 1.0]
    assert cls.multiplier == pytest.approx(-1.0)

    f = rs.make_map([1, 0], [1, 2])  # z/(z+2), loxodromic with fixed 0 and -1
    cls = rs.classify_mobius(f)
    assert cls.kind == "loxodromic"
    assert sorted(round(p.affine().real, 12) for p in cls.fixed_points) == [-1.0, 0.0]
    assert cls.multiplier == pytest.approx(2.0)


def test_classify_mobius_examples():
    assert rs.classify_mobius(IDENTITY).kind == "identity"

    lox = rs.classify_mobius(scaling(2))
    assert lox.kind == "loxodromic"
    assert lox.multiplier == pytest.approx(2.0)
    fixed = {("inf" if p.is_infinity() else round(p.affine().real, 9)) for p in lox.fixed_points}
    assert fixed == {0.0, "inf"}

    par = rs.classify_mobius(rs.from_affine([1, 1], [1]))  # z + 1
    assert par.kind == "parabolic"
    assert len(par.fixed_points) == 1
    assert par.fixed_points[0].is_infinity()

    ell = rs.classify_mobius(rs.make_map([rs.GaussianRational(0, 1), 0], [0, 1]))
    assert ell.kind == "elliptic"

    with pytest.raises(NotMobius):
        rs.classify_mobius(Z2)


def test_float_coefficients_flagged():
    f = rs.make_map([1.5, 0.0], [0.0, 1.0])
    assert not f.exact_coeffs
    g = rs.make_map([Fraction(3, 2), 0], [0, 1])
    assert g.exact_coeffs
    assert rs.maps_equal(f, g)  # dyadic floats convert exactly


def _ratmap_samples():
    rng = np.random.default_rng(21)
    made = [random_exact_map(rng) for _ in range(6)]
    made.append(rs.make_map([1.5, 0.25, -0.0], [0.0, 1.0, 3.0]))  # float input
    made.append(rs.from_affine([rs.GaussianRational("1/3", -2), 0, 1], [1, rs.GaussianRational(0, "1/7")]))
    return made + [rs.compose(f, g) for f, g in zip(made, made[1:])]


def test_hash_is_the_dataclass_hash_of_the_compared_fields():
    for f in _ratmap_samples():
        assert [fl.name for fl in dataclasses.fields(f)] == ["pairs", "scale", "degree", "exact_coeffs"]
        assert hash(f) == hash((f.pairs, f.scale, f.degree, f.exact_coeffs))
        if f.exact_coeffs:
            twin = rs.make_map(f.num, f.den)  # equal, with its own cache
            assert twin == f and hash(twin) == hash(f)



def test_classify_mobius_multiplier_at_infinity():
    # at the fixed point infinity of z -> a z / d the multiplier is d/a, the
    # derivative of 1/f(1/w) at 0: z/2 repels infinity with multiplier 2,
    # and -iz turns it by i, the tie with -i at 0 going to the nonnegative
    # imaginary part
    half = rs.classify_mobius(rs.make_map([1, 0], [0, 2]))
    assert (half.kind, half.multiplier) == ("loxodromic", 2)
    turn = rs.classify_mobius(rs.make_map([rs.GaussianRational(0, -1), 0], [0, 1]))
    assert (turn.kind, turn.multiplier) == ("elliptic", 1j)
    assert [p.is_infinity() for p in turn.fixed_points] == [True, False]


def _mobius_matrix(rng):
    """A random 2 x 2 Gaussian-integer matrix as (a, b, c, d) pairs: at times
    a conjugate P D adj(P) of a diagonal D, a translation or a rotation by
    i, so that the fixed points are rational and the kinds all occur."""
    def g(bound):
        return int(rng.integers(-bound, bound + 1)), int(rng.integers(-bound, bound + 1))

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    kind = int(rng.integers(4))
    if kind == 0:
        return g(3), g(3), g(3), g(3)
    core = [((int(rng.integers(1, 4)), 0), (0, 0), (0, 0), g(2)),  # diagonal
            ((1, 0), (1, 0), (0, 0), (1, 0)),                      # translation
            ((0, 1), (0, 0), (0, 0), (1, 0))][kind - 1]            # rotation by i
    p, q, r, t = g(2), g(2), g(2), g(2)
    a, b, c, d = core
    # (P M) adj(P), adj(P) = [[t, -q], [-r, p]]
    pm = (_add(mul(p, a), mul(q, c)), _add(mul(p, b), mul(q, d)),
          _add(mul(r, a), mul(t, c)), _add(mul(r, b), mul(t, d)))
    neg = lambda x: (-x[0], -x[1])  # noqa: E731
    return (_add(mul(pm[0], t), mul(pm[1], neg(r))), _add(mul(pm[0], neg(q)), mul(pm[1], p)),
            _add(mul(pm[2], t), mul(pm[3], neg(r))), _add(mul(pm[2], neg(q)), mul(pm[3], p)))


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def test_classify_mobius_matches_the_oracle():
    # random Mobius maps: the kind, the fixed points to the bit (exact roots
    # of the discriminant and float ones) and the multiplier against the
    # classification on ReferenceGaussians
    rng = np.random.default_rng(1)
    kinds, exact_roots, checked = set(), 0, 0
    while checked < 400:
        a, b, c, d = (rs.GaussianRational(*x) for x in _mobius_matrix(rng))
        den = int(rng.choice([1, 1, 2, 3]))
        try:
            f = rs.make_map([a, b], [c, d]) if den == 1 else rs.make_map(
                [scalar(ref(x) / ReferenceGaussian(den)) for x in (a, b)], [c, d])
        except rs.errors.RsentropyError:
            continue
        got = rs.classify_mobius(f)
        kind, fixed, multiplier = reference_classify_mobius(f)
        assert got.kind == kind
        assert same_bits([(p.h0, p.h1) for p in got.fixed_points], [(p.h0, p.h1) for p in fixed])
        assert (got.multiplier is None) == (multiplier is None)
        if multiplier is not None:
            assert same_bits(got.multiplier, multiplier)
            assert abs(got.multiplier) >= 1 - 1e-12
        kinds.add(kind)
        fa, fb, fc, fd = map(ref, f.num + f.den)
        exact_roots += (not fc.is_zero() and kind != "parabolic" and reference_sqrt_exact(
            (fd - fa) * (fd - fa) + ReferenceGaussian(4) * fb * fc) is not None)
        checked += 1
    assert kinds == {"identity", "parabolic", "elliptic", "loxodromic"}
    assert exact_roots >= 60

def _bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


def test_float_coefficients_are_the_exact_ones_rounded_bit_for_bit():
    for f in _ratmap_samples():
        assert _bits(f.num_float) == _bits(complex(c) for c in f.num)
        assert _bits(f.den_float) == _bits(complex(c) for c in f.den)


def test_cached_partials_are_a_fresh_derivation_bit_for_bit():
    for f in _ratmap_samples():
        fresh = [tuple(complex(c) for c in d(form)) for d, form in (
            (form_d0, f.num), (form_d1, f.num), (form_d0, f.den), (form_d1, f.den))]
        assert [_bits(form) for form in f.partials_float] == [_bits(form) for form in fresh]
        assert f.partials_float is f.partials_float


def _oracle_samples():
    """(map, oracle twin) pairs: random maps of degree 1 to 3 with Gaussian
    coefficients, polynomial or not, some entered with floats; equal maps
    entered at other scales; and composites of them."""
    rng = np.random.default_rng(2022)

    def gaussian():
        re, im = int(rng.integers(-3, 4)), int(rng.integers(-2, 3))
        k = int(rng.choice([1, 1, 2, 3, 5]))
        return rs.GaussianRational(Fraction(re, k), Fraction(im, k))

    def dyadic():
        return complex(int(rng.integers(-6, 7)) / 4, int(rng.integers(-2, 3)) / 2)

    inputs = [([1.5, 0.0], [0.0, 1.0]), (["3/2", 0], [0, 1])]  # equal, not ==
    while len(inputs) < 26:
        d = int(rng.integers(1, 4))
        coeff = dyadic if len(inputs) % 4 == 3 else gaussian
        num = [coeff() for _ in range(d + 1)]
        den = ([0] * d + [int(rng.choice([1, 2, -3]))] if len(inputs) % 3 == 0
               else [coeff() for _ in range(d + 1)])
        try:
            rs.make_map(num, den)
        except rs.errors.RsentropyError:
            continue
        inputs.append((num, den))
        if len(inputs) % 5 == 0 and coeff is gaussian:
            c = ref(gaussian())
            if not c.is_zero():
                inputs.append(tuple([scalar(c * ref(x)) for x in form] for form in (num, den)))
    pairs = [(rs.make_map(num, den), reference_make_map(num, den)) for num, den in inputs]
    pairs += [(rs.compose(f, g), reference_compose(ff, gg))
              for (f, ff), (g, gg) in zip(pairs, pairs[3:] + pairs[:3])]
    pairs += [(rs.compose(Z2, Z3), reference_compose(reference_make_map(Z2.num, Z2.den),
                                                     reference_make_map(Z3.num, Z3.den))),
              (rs.compose(Z3, Z2), reference_compose(reference_make_map(Z3.num, Z3.den),
                                                     reference_make_map(Z2.num, Z2.den)))]
    return pairs


def test_integer_form_agrees_with_the_gaussian_rational_oracles():
    pairs = _oracle_samples()
    maps = [f for f, _ in pairs]
    refs = [r for _, r in pairs]
    assert {f.degree for f in maps} >= set(range(1, 10)) - {5, 7, 8}
    assert any(not f.exact_coeffs for f in maps)
    assert any(any(map(any, f.pairs[f.degree + 1:-1])) for f in maps if f.degree > 3)
    for f, r in pairs:
        assert (f.num, f.den, f.degree, f.exact_coeffs) == (r.num, r.den, r.degree, r.exact_coeffs)
        assert _bits(f.num_float + f.den_float) == _bits(complex(c) for c in r.num + r.den)
    equal = 0
    for i, (f, r) in enumerate(pairs):
        for g, s in pairs[i + 1:]:
            assert (f == g) == (r == s)
            assert (f.sort_key() == g.sort_key()) == (r.sort_key() == s.sort_key())
            assert rs.maps_equal(f, g) == (r.num == s.num and r.den == s.den)
            if f == g:
                assert hash(f) == hash(g)
            equal += rs.maps_equal(f, g)
    assert equal >= 4
    order = sorted(range(len(maps)), key=lambda i: maps[i].sort_key())
    assert order == sorted(range(len(refs)), key=lambda i: refs[i].sort_key())
    assert order != list(range(len(maps)))
