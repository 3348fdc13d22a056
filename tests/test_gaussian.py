"""The integer normal form of exact scalars, checked against a Fraction-pair
oracle, the integer convolution of forms against a schoolbook product, and
the canonical form of Gaussian-integer vectors."""

import math
import random
import re
from fractions import Fraction
from itertools import chain

import pytest

import rsentropy as rs
from rsentropy.errors import BadScalarLiteral, ZeroVector
from rsentropy.gaussian import OrderKey, canonical, lift, unlift
from rsentropy.polynomial import form_mul
from util import ReferenceGaussian, reference_build, reference_pairs_mul

G = rs.GaussianRational


def random_fraction(rnd):
    """Zero, small, medium, huge or tiny rationals with mixed denominators."""
    kind = rnd.randrange(6)
    sign = rnd.choice((-1, 1))
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))
    if kind == 2:
        return Fraction(rnd.randint(-10 ** 6, 10 ** 6), rnd.choice((1, 2, 4, 243, 10 ** 6 + 3)))
    if kind == 3:
        return Fraction(sign * rnd.getrandbits(400), rnd.getrandbits(300) + 1)
    if kind == 4:
        return Fraction(sign * (rnd.getrandbits(1500) + 1), rnd.getrandbits(1450) + 1)
    return Fraction(sign * rnd.randint(1, 3), 2 ** rnd.randint(1000, 1200))


def random_pair(rnd):
    re_part, im_part = random_fraction(rnd), random_fraction(rnd)
    return G(re_part, im_part), ReferenceGaussian(re_part, im_part)


def assert_matches(got, want):
    a, b, d = got._abd
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (got.re, got.im) == (want.re, want.im)


def test_equality_and_hash_agree():
    rnd = random.Random(11)
    for _ in range(200):
        (gx, rx), (gy, ry) = random_pair(rnd), random_pair(rnd)
        same = G(rx.re, rx.im)
        assert gx == same and hash(gx) == hash(same)
        # the same value reached through unreduced pairs over a common
        # denominator, which unlift brings back to the normal form
        roundabout = unlift(*lift([gy, gx]))[1]
        assert_matches(roundabout, rx)
        assert roundabout == gx and hash(roundabout) == hash(gx)
        assert (gx == gy) == (rx == ry)
        assert (gx != gy) == (rx != ry)
    assert G(3) == 3 and G(Fraction(1, 2)) == Fraction(2, 4) and G(0, 1) == 1j
    assert G(1) != "one" and len({G(1), G("2/2"), G(Fraction(3, 3), 0)}) == 1


def order_key(values):
    """The OrderKey of scalars over their reduced common denominator, as a
    map's sort key holds its coefficients."""
    pairs, den = lift(values)
    g = math.gcd(den, *chain.from_iterable(pairs))
    return OrderKey(tuple((a // g, b // g) for a, b in pairs), den // g)


def test_sort_key_gives_the_reference_order():
    # the order of OrderKey, on which a map's sort key rests, against the
    # lexicographic (re, im) order of Fractions
    rnd = random.Random(5)
    pairs = [random_pair(rnd) for _ in range(300)]
    pairs += pairs[:40]  # ties
    pairs += [(G(f, 0), ReferenceGaussian(f)) for f in (Fraction(1, 3), Fraction(-1, 3))]
    order = sorted(range(len(pairs)), key=lambda i: order_key([pairs[i][0]]))
    want = sorted(range(len(pairs)), key=lambda i: (pairs[i][1].re, pairs[i][1].im))
    assert order == want
    # keys of several values, as map keys hold them: equal leading values
    # defer to the next
    rows = [(rnd.choice(pairs), rnd.choice(pairs)) for _ in range(300)]
    rows += [((G(Fraction(1, k)), ReferenceGaussian(Fraction(1, k))), rows[k][1]) for k in (2, 3)]
    order = sorted(range(len(rows)), key=lambda i: order_key([x[0] for x in rows[i]]))
    want = sorted(range(len(rows)), key=lambda i: tuple((x[1].re, x[1].im) for x in rows[i]))
    assert order == want


LITERAL = re.compile(r"^(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)i)?$")


def test_literal_round_trips():
    rnd = random.Random(3)
    for _ in range(300):
        g, r = random_pair(rnd)
        text = g.literal()
        assert text == r.literal()
        re_text, sign, im_text = LITERAL.match(text).groups()
        im_part = Fraction(im_text or 0) * (-1 if sign == "-" else 1)
        assert G(Fraction(re_text), im_part) == g


def test_complex_is_bit_identical_to_fraction_floats():
    rnd = random.Random(17)
    values = [random_pair(rnd) for _ in range(600)]
    values += [(G(f, -f), ReferenceGaussian(f, -f)) for f in (
        Fraction(10 ** 400 + 1, 3 ** 700),
        Fraction(-(2 ** 1100) + 7, 2 ** 1076 - 1),
        Fraction(1, 2 ** 1074 + 3),
        Fraction(3, 2 ** 1075),
        Fraction(2 ** 53 + 1),
        Fraction(-(10 ** 308), 7),
    )]
    for g, r in values:
        got, want = complex(g), complex(r)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_complex_overflow_matches_fraction_floats():
    huge = Fraction(2 ** 1100, 3)
    with pytest.raises(OverflowError):
        complex(ReferenceGaussian(huge))
    with pytest.raises(OverflowError):
        complex(G(huge))


def test_a_value_of_no_scalar_type_is_refused():
    with pytest.raises(BadScalarLiteral, match="cannot interpret object"):
        G.from_value(object())


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"),
    complex(float("nan"), 0.0), complex(0.0, float("inf")),
])
def test_non_finite_scalars_raise_typed_errors(value):
    with pytest.raises(BadScalarLiteral):
        G.from_value(value)
    with pytest.raises(BadScalarLiteral):
        rs.make_map([1, value], [0, 1])
    with pytest.raises(BadScalarLiteral):
        rs.from_affine([value, 1], [1])
    assert (G(1) == value) is False
    assert (G(1) != value) is True
    if isinstance(value, float):
        with pytest.raises(BadScalarLiteral):
            G(value)
        with pytest.raises(BadScalarLiteral):
            G(0, value)


# -- form_mul ---------------------------------------------------------------------


def random_pairs(rnd):
    """A Gaussian-integer form with zero runs inside it and, at times, at
    either end; at times a single nonzero term, or a single entry."""
    kind = rnd.randrange(4)
    if kind == 0:
        return [(rnd.randint(-9, 9), rnd.randint(-9, 9))]
    length = rnd.randint(2, 40)
    if kind == 1:
        out = [(0, 0)] * length
        out[rnd.randrange(length)] = (rnd.choice((-1, 1)) * rnd.randint(1, 2 ** 70),
                                      rnd.randint(-5, 5))
        return out
    out = []
    while len(out) < length:
        run = rnd.randint(1, 5)
        out += ([(0, 0)] * run if rnd.random() < 0.4 else
                [(rnd.randint(-2 ** 64, 2 ** 64), rnd.choice((0, rnd.randint(-99, 99))))
                 for _ in range(run)])
    if kind == 3:
        out = [(0, 0)] * rnd.randint(0, 4) + out + [(0, 0)] * rnd.randint(1, 4)
        out = out if rnd.random() < 0.5 else out[::-1]
    return out


@pytest.mark.parametrize("seed", range(3))
def test_pairs_mul_squares_like_the_schoolbook_oracle(seed):
    rnd = random.Random(seed)
    for _ in range(80):
        a = random_pairs(rnd)
        b = random_pairs(rnd)
        want = reference_pairs_mul(a, a)
        assert form_mul(a, a) == want  # the squaring path: b is a
        assert form_mul(a, list(a)) == want  # an equal copy takes the general path
        assert form_mul(a, b) == reference_pairs_mul(a, b)


# -- canonical ----------------------------------------------------------------------


def random_vector(rnd, first):
    """An even-length Gaussian-integer vector with zeros at times, its first
    nonzero entry complex, positive real or negative real, behind 0 to 2
    zero entries; large entries at times, and a common factor at times."""
    length = 2 * rnd.randint(1, 5)
    bits = rnd.choice((4, 70))
    out = [(rnd.randint(-2 ** bits, 2 ** bits), rnd.choice((0, rnd.randint(-2 ** bits, 2 ** bits))))
           if rnd.random() < 0.8 else (0, 0) for _ in range(length)]
    lead = rnd.randrange(min(3, length))
    out[:lead] = [(0, 0)] * lead
    re_part = rnd.randint(1, 2 ** bits)
    out[lead] = {"complex": (rnd.choice((-1, 1)) * re_part, rnd.choice((-1, 1)) * rnd.randint(1, 99)),
                 "positive": (re_part, 0), "negative": (-re_part, 0)}[first]
    factor = rnd.choice((1, 1, 6, 2 ** 40 + 1))
    return [(a * factor, b * factor) for a, b in out]


@pytest.mark.parametrize("first", ("complex", "positive", "negative"))
def test_canonical_gives_the_reference_build_form(first):
    # reference_build divides by the first nonzero entry in Fraction-backed
    # scalars; lifted over their common denominator, they are canonical's
    # pairs and scale
    rnd = random.Random(first)
    for _ in range(150):
        vector = random_vector(rnd, first)
        ref = reference_build(vector, True)
        pairs, scale = lift(ref.num + ref.den)
        got = canonical(vector)
        assert got == (tuple(pairs), scale)
        assert type(got[0]) is tuple and all(type(p) is tuple for p in got[0])
        lead = next(p for p in got[0] if p != (0, 0))
        assert lead == (scale, 0)
        # the form is unique: a Gaussian-integer multiple has it too
        unit = rnd.choice(((1, 0), (-1, 0), (0, 1), (2, -3)))
        multiple = [(a * unit[0] - b * unit[1], a * unit[1] + b * unit[0]) for a, b in vector]
        assert canonical(multiple) == got


@pytest.mark.parametrize("length", (1, 2, 4))
def test_canonical_raises_on_the_zero_vector(length):
    with pytest.raises(ZeroVector):
        canonical([(0, 0)] * length)
