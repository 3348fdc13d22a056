"""pairs_gcd and the three tiers of forms_coprime against exact Euclid on
ReferenceGaussians."""

import random
from fractions import Fraction

import pytest

import rsentropy as rs
from rsentropy import polynomial
from rsentropy.errors import CommonFactor
from rsentropy.gaussian import canonical, lift
from rsentropy.polynomial import (
    CERT_PRIME,
    CERT_SQRT_MINUS_1,
    forms_coprime,
    pairs_gcd,
)
from util import (
    ReferenceGaussian,
    ref,
    reference_forms_coprime,
    reference_poly_divmod,
    reference_poly_gcd,
    reference_poly_trim,
    scalar,
    schoolbook_mul,
)

G = ReferenceGaussian
P = CERT_PRIME


def monic(a):
    a = [ref(c) for c in a]
    return [c / a[-1] for c in a]


def form(asc):
    """The degree len(asc) - 1 form whose affine part has these ascending
    coefficients, as library scalars."""
    return tuple(scalar(c) for c in reversed(asc))


def pairs(asc):
    """The Gaussian-integer pairs, highest degree first, of the polynomial
    with these ascending coefficients times a common denominator."""
    return lift([scalar(c) for c in reversed(asc)])[0]


def as_monic(g):
    """The monic ascending ReferenceGaussians of pairs_gcd's canonical pairs."""
    s = g[0][0]
    return [G(Fraction(a, s), Fraction(b, s)) for a, b in reversed(g)]


def both_gcds(a, b):
    """The gcd of two ascending polynomials, not both zero, by the oracle and
    by pairs_gcd, which must agree; the oracle's is returned."""
    want = reference_poly_gcd(a, b)
    assert as_monic(pairs_gcd(pairs(a), pairs(b))) == want
    return want


def coprime(p, q):
    """forms_coprime on two Gaussian-rational forms, each passed as its
    Gaussian-integer coefficients over its own denominator."""
    return forms_coprime(lift(p)[0], lift(q)[0])


def dehomogenize(form):
    """The affine polynomial form(z, 1) as ascending coefficients."""
    return list(reversed(form))


def certified(p, q):
    """Whether tier 2, the certificate mod CERT_PRIME, says coprime."""
    a, a_kept = polynomial._image_mod_p(lift(p)[0])
    b, b_kept = polynomial._image_mod_p(lift(q)[0])
    return (a_kept or b_kept) and polynomial._coprime_mod_p(a, b)


@pytest.fixture
def gcd_calls(monkeypatch):
    """Counts the exact Euclid runs that forms_coprime falls back to."""
    calls = []

    gcd = polynomial.pairs_gcd

    def counting(a, b):
        calls.append(1)
        return gcd(a, b)

    monkeypatch.setattr(polynomial, "pairs_gcd", counting)
    return calls


def is_prime(n):
    # Miller-Rabin with the first 12 primes as bases is exact below 3.3e24
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_certificate_modulus_is_a_prime_with_a_root_of_minus_one():
    # a + bi -> a + b s is a ring map onto Z/p only if p is prime and
    # s^2 = -1 there; the int64 rows need a product of residues below 2^63
    assert is_prime(P) and P % 4 == 1
    assert CERT_SQRT_MINUS_1 ** 2 % P == P - 1
    assert (P - 1) ** 2 < 2 ** 63


def test_poly_gcd_of_a_constant_or_zero_operand():
    a = [G(-2), G(0), G(1, 1)]  # (1 + i) z^2 - 2
    for const in ([G(3)], [G(0, -1)], [G(5), G(0), G(0)]):
        assert both_gcds(a, const) == [G(1)]
        assert both_gcds(const, a) == [G(1)]
        assert pairs_gcd(pairs(a), pairs(const)) == ((1, 0),)
    assert both_gcds(a, []) == monic(a)
    assert both_gcds([G(0)], a) == monic(a)
    assert reference_poly_gcd([], [G(0), G(0)]) == []


def test_poly_gcd_is_the_monic_constructed_common_factor():
    c = [G(0, Fraction(-2, 3)), G(3), G(Fraction(1, 2), 1)]  # (1/2 + i) z^2 + 3 z - 2i/3
    u = [G(1), G(1)]                                        # z + 1
    v = [G(0, -1), G(2), G(0), G(1)]                        # z^3 + 2 z - i
    assert both_gcds(u, v) == [G(1)]
    assert both_gcds(schoolbook_mul(c, u), schoolbook_mul(c, v)) == monic(c)
    assert both_gcds(schoolbook_mul(c, v), schoolbook_mul(c, u)) == monic(c)
    # the canonical form of the monic gcd: its pairs over the lead's int
    assert pairs_gcd(pairs(schoolbook_mul(c, u)), pairs(schoolbook_mul(c, v))) == canonical(
        pairs(c))[0]


def test_a_shared_root_at_infinity_is_not_coprime(gcd_calls):
    # z0 z1 and z1^2 vanish at [1 : 0]; z0^2 and z1^2 share no root
    assert not coprime(form([0, 1, 0]), form([1, 0, 0]))
    assert not coprime(form([0, 0, 0]), form([1, 0, 0]))
    assert coprime(form([0, 0, 1]), form([1, 0, 0]))
    assert gcd_calls == []


def test_a_constant_affine_form_decides_before_any_lifting(monkeypatch, gcd_calls):
    def no_image(_form):
        raise AssertionError("tier 1 mapped a form into Z/p")

    monkeypatch.setattr(polynomial, "_image_mod_p", no_image)
    z = rs.compose(rs.make_map([1, 0, 1], [0, 0, 1]), rs.make_map([1, 0, -1], [0, 0, 1]))
    assert forms_coprime(z.pairs[:5], z.pairs[5:])
    assert coprime(form(["3/4", 0, 0]), form(["1/2", 0, 1]))
    assert coprime(form([2, 5, 1]), form([G(0, 1), 0, 0]))
    assert gcd_calls == []


def test_a_zero_form_shares_every_root_with_a_nonconstant_one():
    assert not coprime(form([-1, 0, 1]), form([0, 0, 0]))
    assert not coprime(form([0, 0, 0]), form([1, 1, 1]))


def test_a_leading_coefficient_that_vanishes_mod_p_falls_back(gcd_calls):
    # C = P z + 1 divides both, but mod P the images z + 1 and z + 2 are
    # coprime: neither form keeps its degree, so the certificate must not
    # be trusted, and exact Euclid finds C
    p = form([1, P + 1, P])      # C (z + 1)
    q = form([2, 2 * P + 1, P])  # C (z + 2)
    a, a_kept = polynomial._image_mod_p(lift(p)[0])
    b, b_kept = polynomial._image_mod_p(lift(q)[0])
    assert (a.tolist(), b.tolist()) == ([1, 1], [2, 1])
    assert not a_kept and not b_kept
    assert polynomial._coprime_mod_p(a, b)
    assert not coprime(p, q)
    assert gcd_calls == [1]
    assert both_gcds(dehomogenize(p), dehomogenize(q)) == monic([G(1), G(P)])
    with pytest.raises(CommonFactor):
        rs.make_map(p, q)


def test_images_that_share_a_factor_mod_p_fall_back_to_exact_euclid(gcd_calls):
    # z and z - P are coprime, but both are z mod P
    assert not certified(form([0, 1]), form([-P, 1]))
    assert coprime(form([0, 1]), form([-P, 1]))
    assert gcd_calls == [1]


def random_poly(rng, degree):
    """Ascending Gaussian-rational coefficients with a nonzero top one."""
    def gaussian():
        k = rng.choice((1, 1, 2, 3, 5))
        return G(Fraction(rng.randint(-4, 4), k), Fraction(rng.randint(-2, 2), k))
    out = [gaussian() for _ in range(degree + 1)]
    while out[-1].is_zero():
        out[-1] = gaussian()
    return out


def test_certificate_never_contradicts_exact_euclid():
    rng = random.Random(20211)
    certificates = factors = 0
    for trial in range(300):
        d = rng.randint(1, 6)
        if trial % 3 == 0:
            # a constructed common factor C; every other C has a leading
            # coefficient that vanishes mod P, so neither form keeps its
            # degree there and the images may well be coprime
            k = rng.randint(1, d)
            c = random_poly(rng, k)
            if trial % 2 == 0:
                c[-1] = G(P * rng.randint(1, 3))
            a = schoolbook_mul(c, random_poly(rng, d - k))
            b = schoolbook_mul(c, random_poly(rng, d - k))
        else:
            a, b = random_poly(rng, d), random_poly(rng, d)
            if trial % 3 == 1:
                b[-1] = G(0)  # q vanishes at [1 : 0], p does not
        p, q = form(a), form(b)
        exact = reference_forms_coprime(p, q)
        factors += not exact
        if certified(p, q):
            certificates += 1
            assert exact, (a, b)
        assert coprime(p, q) == exact
        if exact:
            rs.make_map(p, q)
        else:
            with pytest.raises(CommonFactor):
                rs.make_map(p, q)
    # the sweep must reach both verdicts, and the certificate must decide
    # most coprime pairs
    assert factors >= 100 and certificates >= 150



def _over(pairs_desc, den):
    """Ascending ReferenceGaussians of descending pairs over den."""
    return [G(Fraction(a, den), Fraction(b, den)) for a, b in reversed(pairs_desc)]


@pytest.mark.parametrize("seed", range(4))
def test_pairs_gcd_matches_the_oracle(seed):
    # random pairs over Q(i), half of them with a constructed common factor
    # (at times a repeated one, or one whose lead vanishes mod P), and at
    # times a leading zero: the canonical pair gcd is the oracle's monic
    # gcd, and each pseudo-division s^n a = q b + r is the oracle's
    # division times s^n
    rng = random.Random(seed)
    nonconstant = 0
    for trial in range(150):
        a, b = random_poly(rng, rng.randint(0, 5)), random_poly(rng, rng.randint(0, 5))
        if trial % 2:
            c = random_poly(rng, rng.randint(1, 3))
            if trial % 7 == 1:
                c[-1] = G(P)
            a, b = schoolbook_mul(c, a), schoolbook_mul(schoolbook_mul(c, c) if trial % 3 else c, b)
        if trial % 5 == 0:
            a = a + [G(0)]
        want = reference_poly_gcd(a, b)
        got = pairs_gcd(pairs(a), pairs(b))
        assert as_monic(got) == want
        assert got[0][1] == 0 and got[0][0] > 0
        nonconstant += len(want) > 1

        top, bottom = sorted((reference_poly_trim(a), reference_poly_trim(b)), key=len)[::-1]
        dividend, divisor = pairs(top), canonical(pairs(bottom))[0]
        q, r = polynomial.pairs_divmod(dividend, divisor)
        n = len(top) - len(bottom) + 1
        assert len(q) == n
        scale = divisor[0][0] ** n
        assert [_over(q, scale), _over(r, scale)] == list(
            reference_poly_divmod(_over(dividend, 1), _over(divisor, 1)))
    assert nonconstant >= 60
