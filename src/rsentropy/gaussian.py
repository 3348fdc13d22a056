"""Exact Gaussian-rational scalar literals ``(a + b*i)/d``, and the
canonical form of Gaussian-integer vectors.

A scalar is what a config or a caller writes for a coefficient. It is
stored as one normal form: Python ints ``(a, b, d)`` with ``d > 0`` and
``gcd(a, b, d) == 1``. The form is unique, so equality and hashing compare
the int triples. A scalar has no arithmetic: it is parsed, compared, turned
into ``complex()`` or its literal, and lifted into Gaussian-integer pairs.
Every exact computation (maps, points, Euclid, the Mobius classes) runs on
such pairs, brought to the one form that ``canonical`` gives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .errors import BadScalarLiteral, ZeroVector


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # Exact: every finite float is a dyadic rational.
        if not math.isfinite(value):
            raise BadScalarLiteral(f"not a finite scalar: {value!r}")
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise BadScalarLiteral(f"not a rational literal: {value!r}") from exc
    raise BadScalarLiteral(f"cannot interpret {type(value).__name__} as a rational")


def _make(a: int, b: int, d: int) -> "GaussianRational":
    """The scalar (a + b*i)/d for ints with d > 0, brought to normal form."""
    g = math.gcd(a, b, d)
    z = _new(GaussianRational)
    _set(z, (a // g, b // g, d // g) if g != 1 else (a, b, d))
    return z


class GaussianRational:
    """An exact complex rational ``re + im*i``."""

    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        re, im = _to_fraction(re), _to_fraction(im)
        d = re.denominator * im.denominator
        _set(self, _make(re.numerator * im.denominator,
                         im.numerator * re.denominator, d)._abd)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def from_value(cls, value) -> "GaussianRational":
        """Coerce ints, Fractions, floats, complex, strings, or pass through."""
        if isinstance(value, GaussianRational):
            return value
        if type(value) is int:
            return _make(value, 0, 1)
        if isinstance(value, complex):
            return cls(_to_fraction(value.real), _to_fraction(value.imag))
        return cls(_to_fraction(value))

    # -- conversions and comparison ---------------------------------------

    def __complex__(self) -> complex:
        # int true division is correctly rounded, as float(Fraction) is
        a, b, d = self._abd
        return complex(a / d, b / d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._abd[0], self._abd[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self._abd[1], self._abd[2])

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            try:
                other = GaussianRational.from_value(other)
            except BadScalarLiteral:
                return NotImplemented
        return self._abd == other._abd

    def __hash__(self):
        return hash(self._abd)

    def __repr__(self):
        if self._abd[1] == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def literal(self) -> str:
        """Round-trippable string form, e.g. '1/2-3/4i'."""
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_new = object.__new__
_set = GaussianRational._abd.__set__


class OrderKey:
    """The values (a + b*i)/d for int pairs (a, b) over one d > 0, ordered
    lexicographically by each value's (re, im) pair, with no Fraction built.

    The ints and d share no common factor, as in a scalar's normal form and
    a map's integer form, so equal values have equal pairs and d. Keys over
    the same d order their pairs as they stand; otherwise each side is
    cross-multiplied by the other's d."""

    __slots__ = ("pairs", "d")

    def __init__(self, pairs, d):
        self.pairs = pairs
        self.d = d

    def __eq__(self, other):
        return self.d == other.d and self.pairs == other.pairs

    def __lt__(self, other):
        s, t = other.d, self.d
        if s == t:
            return self.pairs < other.pairs
        for (a, b), (p, q) in zip(self.pairs, other.pairs):
            x, y = a * s, p * t
            if x == y:
                x, y = b * s, q * t
            if x != y:
                return x < y
        return len(self.pairs) < len(other.pairs)


def canonical(pairs) -> tuple[tuple, int]:
    """The canonical form ``(pairs, scale)`` of a nonzero Gaussian-integer
    vector given as (re, im) int pairs: the vector over its first nonzero
    entry, as int pairs over one positive scale that share no common factor
    with it. The form is unique, so a map's coefficients and a point's
    coordinates compare and hash as these ints.

    Division by the first nonzero c0 = a0 + b0*i: times conj(c0) over
    |c0|^2, or by sign(a0) over |a0| when c0 is real, as it is for every
    polynomial composite (which skips a product per int and a larger gcd);
    then one gcd over the whole vector and that scale. The first pair comes
    out as (scale, 0). An all-zero vector raises ZeroVector.
    """
    for a0, b0 in pairs:
        if a0 or b0:
            break
    else:
        raise ZeroVector("the zero vector has no canonical form")
    if b0:
        pairs = [(a * a0 + b * b0, b * a0 - a * b0) for a, b in pairs]
        scale = a0 * a0 + b0 * b0
    elif a0 > 0:
        scale = a0
    else:
        pairs = [(-a, -b) for a, b in pairs]
        scale = -a0
    g = math.gcd(scale, *chain.from_iterable(pairs))
    if g != 1:
        pairs = [(a // g, b // g) for a, b in pairs]
        scale //= g
    return tuple(pairs), scale


def to_complex(pair, den: int) -> complex:
    """The Gaussian integer pair (re, im) over the positive int den as a
    complex number, each part rounded correctly by int true division."""
    return complex(pair[0] / den, pair[1] / den)


def lift(values) -> tuple[list, int]:
    """Gaussian-integer numerators over the lcm of the denominators.

    Returns ``(pairs, den)`` with ``values[k] == (A + B*i)/den`` where
    ``pairs[k] == (A, B)``, so sums and products run on ints.
    """
    den = math.lcm(*(v._abd[2] for v in values))
    return [(a * (den // d), b * (den // d)) for a, b, d in (v._abd for v in values)], den


def unlift(pairs, den: int) -> tuple:
    """The scalars ``(A + B*i)/den`` for each pair, each reduced once."""
    return tuple(_make(a, b, den) for a, b in pairs)
