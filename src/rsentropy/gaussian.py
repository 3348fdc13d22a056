"""Exact Gaussian-rational scalars (re + im*i with Fraction parts).

These are the coefficient field for all exact map algebra. Arithmetic,
equality and hashing are exact; ``complex()`` is the one lossy exit.
Fractions keep denominators positive and reduced, which is exactly the
normal form the rest of the package relies on.
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
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise BadScalarLiteral(f"not a rational literal: {value!r}") from exc
    raise BadScalarLiteral(f"cannot interpret {type(value).__name__} as a rational")


class GaussianRational:
    """An exact complex rational ``re + im*i``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _to_fraction(re))
        object.__setattr__(self, "im", _to_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def from_value(cls, value) -> "GaussianRational":
        """Coerce ints, Fractions, floats, complex, strings, or pass through."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        return cls(_to_fraction(value))

    # -- field arithmetic --------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.from_value(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = GaussianRational.from_value(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.from_value(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        other = GaussianRational.from_value(other)
        n = other.abs2()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        re = (self.re * other.re + self.im * other.im) / n
        im = (self.im * other.re - self.re * other.im) / n
        return GaussianRational(re, im)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return GaussianRational.from_value(other) - self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- conversions and ordering helpers ----------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def sort_key(self):
        """Total order key (lexicographic on re, im); not a field order."""
        return (self.re, self.im)

    @property
    def re_num(self) -> int:
        return self.re.numerator

    @property
    def re_den(self) -> int:
        return self.re.denominator

    @property
    def im_num(self) -> int:
        return self.im.numerator

    @property
    def im_den(self) -> int:
        return self.im.denominator

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            try:
                other = GaussianRational.from_value(other)
            except BadScalarLiteral:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def literal(self) -> str:
        """Round-trippable string form, e.g. '1/2-3/4i'."""
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = GaussianRational(0)


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
