"""poly_gcd and the three tiers of forms_coprime against exact Euclid."""

import random

import pytest

import rsentropy as rs
from rsentropy import polynomial
from rsentropy.errors import CommonFactor
from rsentropy.gaussian import lift
from rsentropy.polynomial import (
    CERT_PRIME,
    CERT_SQRT_MINUS_1,
    forms_coprime,
    poly_gcd,
)
from util import schoolbook_mul

G = rs.GaussianRational
P = CERT_PRIME


def monic(a):
    return [c / a[-1] for c in a]


def form(asc):
    """The degree len(asc) - 1 form whose affine part has these ascending
    coefficients."""
    return tuple(G.from_value(c) for c in reversed(asc))


def coprime(p, q):
    """forms_coprime on two Gaussian-rational forms, each passed as its
    Gaussian-integer coefficients over its own denominator."""
    return forms_coprime(lift(p)[0], lift(q)[0])


def dehomogenize(form):
    """The affine polynomial form(z, 1) as ascending coefficients."""
    return list(reversed(form))


def exact_coprime(p, q):
    """The definition: no shared root at [1 : 0] and an affine gcd of
    degree 0, by exact Euclid alone."""
    if p[0].is_zero() and q[0].is_zero():
        return False
    return len(poly_gcd(dehomogenize(p), dehomogenize(q))) <= 1


def certified(p, q):
    """Whether tier 2, the certificate mod CERT_PRIME, says coprime."""
    a, a_kept = polynomial._image_mod_p(lift(p)[0])
    b, b_kept = polynomial._image_mod_p(lift(q)[0])
    return (a_kept or b_kept) and polynomial._coprime_mod_p(a, b)


@pytest.fixture
def gcd_calls(monkeypatch):
    """Counts the exact Euclid runs that forms_coprime falls back to."""
    calls = []

    def counting(a, b):
        calls.append(1)
        return poly_gcd(a, b)

    monkeypatch.setattr(polynomial, "poly_gcd", counting)
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
        assert poly_gcd(a, const) == [G(1)]
        assert poly_gcd(const, a) == [G(1)]
    assert poly_gcd(a, []) == monic(a)
    assert poly_gcd([G(0)], a) == monic(a)
    assert poly_gcd([], [G(0), G(0)]) == []


def test_poly_gcd_is_the_monic_constructed_common_factor():
    c = [G(0, "-2/3"), G(3), G("1/2", 1)]  # (1/2 + i) z^2 + 3 z - 2i/3
    u = [G(1), G(1)]                        # z + 1
    v = [G(0, -1), G(2), G(0), G(1)]        # z^3 + 2 z - i
    assert poly_gcd(u, v) == [G(1)]
    assert poly_gcd(schoolbook_mul(c, u), schoolbook_mul(c, v)) == monic(c)
    assert poly_gcd(schoolbook_mul(c, v), schoolbook_mul(c, u)) == monic(c)


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
    assert poly_gcd(dehomogenize(p), dehomogenize(q)) == monic([G(1), G(P)])
    with pytest.raises(CommonFactor):
        rs.make_map(p, q)


def test_images_that_share_a_factor_mod_p_fall_back_to_exact_euclid(gcd_calls):
    # z and z - P are coprime, but both are z mod P
    assert not certified(form([0, 1]), form([-P, 1]))
    assert coprime(form([0, 1]), form([-P, 1]))
    assert gcd_calls == [1]


def random_poly(rng, degree):
    """Ascending Gaussian-rational coefficients with a nonzero top one."""
    def scalar():
        return G(rng.randint(-4, 4), rng.randint(-2, 2)) / rng.choice((1, 1, 2, 3, 5))
    out = [scalar() for _ in range(degree + 1)]
    while out[-1].is_zero():
        out[-1] = scalar()
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
        exact = exact_coprime(p, q)
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
