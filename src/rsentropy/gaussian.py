"""Exact Gaussian-rational scalars ``(a + b*i)/d``.

These are the coefficient field for all exact map algebra. A value is
stored as one normal form: Python ints ``(a, b, d)`` with ``d > 0`` and
``gcd(a, b, d) == 1``. The form is unique, so equality and hashing compare
the int triples, and each arithmetic result costs one multi-argument gcd.
Arithmetic is exact; ``complex()`` is the one lossy exit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BadScalarLiteral


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

    # -- field arithmetic --------------------------------------------------

    def __add__(self, other):
        a, b, d = self._abd
        p, q, e = GaussianRational.from_value(other)._abd
        return _make(a * e + p * d, b * e + q * d, d * e)

    def __sub__(self, other):
        a, b, d = self._abd
        p, q, e = GaussianRational.from_value(other)._abd
        return _make(a * e - p * d, b * e - q * d, d * e)

    def __neg__(self):
        a, b, d = self._abd
        return _make(-a, -b, d)

    def __mul__(self, other):
        a, b, d = self._abd
        p, q, e = GaussianRational.from_value(other)._abd
        return _make(a * p - b * q, a * q + b * p, d * e)

    def __truediv__(self, other):
        a, b, d = self._abd
        p, q, e = GaussianRational.from_value(other)._abd
        n = p * p + q * q
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + bi)/d * e/(p + qi) = e (a + bi)(p - qi) / (d (p^2 + q^2))
        return _make((a * p + b * q) * e, (b * p - a * q) * e, d * n)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return GaussianRational.from_value(other) - self

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._abd
        return _make(a, -b, d)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact Fraction."""
        a, b, d = self._abd
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        return self._abd[0] == 0 and self._abd[1] == 0

    # -- conversions and ordering helpers ----------------------------------

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

    def sort_key(self):
        """Total order key (lexicographic on re, im); not a field order."""
        return _OrderKey(self._abd)

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


class _OrderKey:
    """A normal form ordered as its (re, im) pair, with no Fraction built."""

    __slots__ = ("abd",)

    def __init__(self, abd):
        self.abd = abd

    def __eq__(self, other):
        return self.abd == other.abd

    def __lt__(self, other):
        (a, b, d), (p, q, e) = self.abd, other.abd
        return a * e < p * d or (a * e == p * d and b * e < q * d)


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


def sqrt_exact(value: GaussianRational):
    """Exact square root within the Gaussian rationals, or None.

    Solves (x + yi)^2 = a + bi over Q when possible: needs |a+bi| to be a
    rational square, and then x^2 = (a + |a+bi|)/2 a rational square too.
    """
    a, b = value.re, value.im
    if a == 0 and b == 0:
        return GaussianRational(0)
    norm = a * a + b * b
    s = _fraction_sqrt(norm)
    if s is None:
        return None
    x2 = (a + s) / 2
    x = _fraction_sqrt(x2)
    if x is None:
        return None
    if x == 0:
        # value = negative real; root is purely imaginary
        y = _fraction_sqrt(-a)
        if y is None:
            return None
        return GaussianRational(0, y)
    y = b / (2 * x)
    root = GaussianRational(x, y)
    if root * root == value:
        return root
    return None


def _fraction_sqrt(f: Fraction):
    if f < 0:
        return None
    num, den = f.numerator, f.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
