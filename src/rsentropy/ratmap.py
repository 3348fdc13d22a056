"""Exact algebra of holomorphic self-maps of the sphere.

A map is a coprime pair of homogeneous forms (P, Q) of equal degree d >= 1
over the Gaussian rationals, stored in canonical form: the first nonzero
coefficient of the concatenated list (numerator then denominator, descending
monomial order) equals 1. The canonical form is held as Gaussian integers
over one positive scale with no common factor, which is unique;
``gaussian.canonical`` gives it, as it gives an exact point's. It is the
map's one exact form: equality, hashing, composition, the exact evaluation
fallback and the float coefficients and their derivatives all read its
(re, im) int pairs; ``num`` and ``den`` are GaussianRational views on it.
Exact equality is the backbone of all multiplicity bookkeeping downstream.

Inputs sharing a polynomial factor are rejected rather than reduced: the
degree is the central invariant of every entropy formula, so a silently
reduced map would hide a user error about the intended degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CommonFactor,
    DegenerateMap,
    DegreeMismatch,
    NotMobius,
    RootFindingFailure,
)
from .gaussian import GaussianRational, OrderKey, canonical, lift, sqrt_exact, unlift
from .polynomial import (
    aberth_roots,
    form_eval_complex,
    form_mul,
    forms_coprime,
    pairs_eval,
    strip_infinite_roots,
)
from .projective import INFINITY, ProjPoint, chordal_dist, normalize

#: numeric preimages within this chordal distance are merged as one root
ROOT_CLUSTER_TOL = 1e-7

#: every reported preimage must map back onto the target this closely
PREIMAGE_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class RationalMap:
    """Canonical coprime homogeneous pair; immutable and hashable.

    Stored as its Gaussian-integer form: ``pairs`` holds the coefficients
    (num, then den) as ``(re, im)`` int pairs over the one positive
    ``scale``, reduced so that the gcd of all of them and the scale is 1.
    The canonical map has exactly one such form, so equality and the hash
    compare ints. ``num`` and ``den`` are views on it.
    """

    pairs: tuple
    scale: int
    degree: int
    exact_coeffs: bool = True

    def __repr__(self):
        return f"RationalMap(degree={self.degree})"

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of the compared fields, computed once: a map
        is hashed each time the ledger looks it up."""
        return hash((self.pairs, self.scale, self.degree, self.exact_coeffs))

    @cached_property
    def num(self) -> tuple:
        """The numerator form as GaussianRationals, built on first use."""
        return unlift(self.pairs[:self.degree + 1], self.scale)

    @cached_property
    def den(self) -> tuple:
        """The denominator form as GaussianRationals, built on first use."""
        return unlift(self.pairs[self.degree + 1:], self.scale)

    @cached_property
    def num_float(self) -> tuple:
        """num as complex coefficients, computed on first use."""
        s = self.scale
        return tuple(complex(a / s, b / s) for a, b in self.pairs[:self.degree + 1])

    @cached_property
    def den_float(self) -> tuple:
        """den as complex coefficients, computed on first use."""
        s = self.scale
        return tuple(complex(a / s, b / s) for a, b in self.pairs[self.degree + 1:])

    @cached_property
    def partials_float(self) -> tuple:
        """The complex coefficients of dP/dz0, dP/dz1, dQ/dz0 and dQ/dz1,
        computed on first use: the coefficient c_k of z0^(d-k) z1^k gives
        (d - k) c_k to the first and k c_k to the second."""
        d, s = self.degree, self.scale
        return tuple(
            tuple(complex(a * m / s, b * m / s) for (a, b), m in zip(terms, weights))
            for form in (self.pairs[:d + 1], self.pairs[d + 1:])
            for terms, weights in ((form[:d], range(d, 0, -1)), (form[1:], range(1, d + 1))))

    @cached_property
    def float_scale(self) -> float:
        """The larger of sum |c| over num_float and over den_float."""
        return max(sum(abs(c) for c in self.num_float),
                   sum(abs(c) for c in self.den_float))

    def sort_key(self):
        """Order key: the degree, then the coefficients' (re, im) values
        lexicographically."""
        return (self.degree, OrderKey(self.pairs, self.scale))


def _coerce_coeffs(seq):
    """Convert a coefficient sequence, remembering whether floats appeared."""
    out = []
    exact = True
    for c in seq:
        if isinstance(c, complex) or isinstance(c, float):
            exact = False
        out.append(GaussianRational.from_value(c))
    return tuple(out), exact


def _build(pairs, exact):
    """Canonical map from Gaussian-integer coefficients, num then den."""
    pairs, scale = canonical(pairs)
    return RationalMap(pairs=pairs, scale=scale, degree=len(pairs) // 2 - 1,
                       exact_coeffs=exact)


def make_map(num, den) -> RationalMap:
    """Validated map from homogeneous coefficient sequences.

    Sequences are read in descending monomial order (z0^d first) and must
    have equal length d+1 with d >= 1. Coefficients may be ints, Fractions,
    fraction strings, GaussianRationals, or floats; any float marks the map
    as numerically entered, which excludes it from exact relation detection.
    """
    num_c, exact_n = _coerce_coeffs(num)
    den_c, exact_d = _coerce_coeffs(den)
    if len(num_c) != len(den_c):
        raise DegreeMismatch(
            f"numerator degree {len(num_c) - 1} != denominator degree {len(den_c) - 1}")
    if len(num_c) < 2:
        raise DegenerateMap("homogeneous degree must be at least 1")
    pairs = lift(num_c + den_c)[0]
    num_p, den_p = pairs[:len(num_c)], pairs[len(num_c):]
    if not any(map(any, num_p)) or not any(map(any, den_p)):
        raise DegenerateMap("one of the forms is identically zero")
    if not forms_coprime(num_p, den_p):
        raise CommonFactor("numerator and denominator share a polynomial factor")
    return _build(pairs, exact_n and exact_d)


def from_affine(num_affine, den_affine) -> RationalMap:
    """Map from affine polynomials num(z)/den(z), ascending coefficients.

    Homogenizes both to the common degree max(deg num, deg den), e.g.
    (2z+1)/(z-1) becomes the pair (2 z0 + z1, z0 - z1).
    """
    num_c, exact_n = _coerce_coeffs(num_affine)
    den_c, exact_d = _coerce_coeffs(den_affine)
    dn = _affine_degree(num_c)
    dd = _affine_degree(den_c)
    if dn < 0 or dd < 0:
        raise DegenerateMap("affine numerator or denominator is identically zero")
    d = max(dn, dd, 1)

    def homog(asc):
        return tuple(
            asc[d - k] if d - k < len(asc) else GaussianRational(0)
            for k in range(d + 1)
        )

    return make_map(homog(num_c), homog(den_c))


def _affine_degree(asc):
    for k in range(len(asc) - 1, -1, -1):
        if not asc[k].is_zero():
            return k
    return -1


def maps_equal(f: RationalMap, g: RationalMap) -> bool:
    """Exact equality of canonical forms."""
    return f.pairs == g.pairs and f.scale == g.scale


def power_table(g: RationalMap, top: int) -> tuple[list, list]:
    """The powers P^j and Q^j of g's forms for j = 1..top, as Gaussian-integer
    pairs at index j (index 0 is None).

    An even power squares the half power; an odd one multiplies by P (Q).
    ``compose(f, g, powers)`` reads the table, so a caller that composes
    several outer maps with one inner map g builds it once for all of them;
    it is kept nowhere else.
    """
    d = g.degree
    p_pows, q_pows = [None, g.pairs[:d + 1]], [None, g.pairs[d + 1:]]
    for j in range(2, top + 1):
        for pows in (p_pows, q_pows):
            half = pows[j // 2]
            pows.append(form_mul(half, half) if j % 2 == 0
                        else form_mul(pows[j - 1], pows[1]))
    return p_pows, q_pows


def compose(f: RationalMap, g: RationalMap, powers=None) -> RationalMap:
    """The composite f o g by exact substitution; degree multiplies.

    ``powers`` is ``power_table(g, top)`` for some top >= deg f; it is
    built here when None.

    Coprimality of the result is automatic (a common root of the composed
    pair would push forward to a common root of f), but ``forms_coprime``
    still checks it as a safety net. Its cheap tiers decide almost every
    composite: a polynomial composite has a constant denominator p(z, 1),
    and any other one is certified by Euclid modulo a prime. Exact Euclid
    over Q(i), whose cost grows quickly with the degree, runs only when
    that certificate fails.
    """
    dn, size = f.degree, f.degree * g.degree + 1
    fc = f.pairs
    # f's and g's scales are common factors of every coefficient of the
    # substituted forms, so the integer pairs substitute as they stand
    p_pows, q_pows = power_table(g, dn) if powers is None else powers
    # the monomial z0^(dn-k) z1^k becomes P^(dn-k) Q^k, built once for
    # both forms and only where f has a nonzero coefficient on it; it is
    # kept as its nonzero terms, which for every Q^k of a polynomial g is
    # one term
    monomials = [
        [(j, u, v) for j, (u, v) in enumerate(
            p_pows[dn] if k == 0 else q_pows[dn] if k == dn
            else form_mul(p_pows[dn - k], q_pows[k])) if u or v]
        if any(fc[k]) or any(fc[dn + 1 + k]) else None
        for k in range(dn + 1)
    ]

    def substitute(form):
        re, im = [0] * size, [0] * size
        for (a, b), terms in zip(form, monomials):
            if a or b:
                for j, u, v in terms:
                    re[j] += a * u - b * v
                    im[j] += a * v + b * u
        return list(zip(re, im))

    h = _build(substitute(fc[:dn + 1]) + substitute(fc[dn + 1:]),
               f.exact_coeffs and g.exact_coeffs)
    d = h.degree
    if not forms_coprime(h.pairs[:d + 1], h.pairs[d + 1:]):
        raise CommonFactor("composition produced a common factor (unexpected)")
    return h


def evaluate(f: RationalMap, p: ProjPoint) -> ProjPoint:
    """Image point, canonical.

    Fast Horner evaluation of both forms; if the image vector nearly cancels
    (its norm falls below 1e-8 of the coefficient scale), the evaluation is
    redone once in exact arithmetic at the dyadic coordinates of p, which
    pins the result to full precision: with p = (Z0, Z1)/e on Gaussian
    integers, each form's value is its Horner sum over scale e^d, and int
    true division rounds it correctly.
    """
    w0 = form_eval_complex(f.num_float, p.h0, p.h1)
    w1 = form_eval_complex(f.den_float, p.h0, p.h1)
    if math.hypot(abs(w0), abs(w1)) < 1e-8 * f.float_scale:
        d = f.degree
        (z0, z1), e = lift((GaussianRational.from_value(p.h0),
                            GaussianRational.from_value(p.h1)))
        den = f.scale * e ** d
        w0, w1 = (complex(re / den, im / den) for re, im in (
            pairs_eval(f.pairs[:d + 1], z0, z1), pairs_eval(f.pairs[d + 1:], z0, z1)))
    return normalize(w0, w1)


def _root_order(p: ProjPoint) -> tuple:
    """The order in which numeric roots meet their clusters."""
    return (p.h0.real, p.h1.real, p.h1.imag)


def _preimage_order(pm: tuple) -> tuple:
    """The order of (point, multiplicity): multiplicity descending, then as
    ``_root_order``."""
    p, mult = pm
    return (-mult, p.h0.real, p.h1.real, p.h1.imag)


def preimages(f: RationalMap, q: ProjPoint) -> list[tuple[ProjPoint, int]]:
    """All solutions of f(x) = q with multiplicities summing to deg(f).

    Solves the degree-d form q1 P - q0 Q: degree deficiency contributes
    roots at [1 : 0], the rest come from the simultaneous iteration on the
    dehomogenized polynomial. Roots within chordal distance 1e-7 merge into
    one cluster with summed multiplicity; every representative is verified
    to map back onto q within 1e-9. The result is sorted by multiplicity,
    highest first, then by the point's coordinates.
    """
    h0, h1 = q.h0, q.h1
    finite_desc, inf_mult = strip_infinite_roots(
        [h1 * a - h0 * b for a, b in zip(f.num_float, f.den_float)])
    points = ([normalize(z, 1.0) for z in aberth_roots(finite_desc[::-1])]
              if len(finite_desc) > 1 else [])
    points += [INFINITY] * inf_mult

    clusters: list[list] = []  # [first point, multiplicity]
    for pt in sorted(points, key=_root_order):
        for cluster in clusters:
            if chordal_dist(cluster[0], pt) <= ROOT_CLUSTER_TOL:
                cluster[1] += 1
                break
        else:
            clusters.append([pt, 1])

    for rep, _ in clusters:
        if chordal_dist(evaluate(f, rep), q) > PREIMAGE_RESIDUAL_TOL:
            raise RootFindingFailure(
                "preimage residual check failed; target may be ill-conditioned")
    out = sorted(map(tuple, clusters), key=_preimage_order)
    if sum(m for _, m in out) != f.degree:
        raise RootFindingFailure("preimage multiplicities do not sum to the degree")
    return out


def fs_jacobian(f: RationalMap, p: ProjPoint) -> float:
    """Area-distortion factor of f at p for the chordal geometry.

    Computed chart-free from the homogeneous Wronskian W = P_z0 Q_z1 -
    P_z1 Q_z0 as |W(p)|^2 / (d^2 (|P(p)|^2 + |Q(p)|^2)^2), which equals the
    affine-chart expression |f'(z)|^2 (1+|z|^2)^2 / (1+|f(z)|^2)^2 in
    whichever chart p is best conditioned.
    """
    d = f.degree
    p0, p1, q0, q1 = f.partials_float
    w = (
        form_eval_complex(p0, p.h0, p.h1) * form_eval_complex(q1, p.h0, p.h1)
        - form_eval_complex(p1, p.h0, p.h1) * form_eval_complex(q0, p.h0, p.h1)
    )
    val0 = form_eval_complex(f.num_float, p.h0, p.h1)
    val1 = form_eval_complex(f.den_float, p.h0, p.h1)
    denom = (abs(val0) ** 2 + abs(val1) ** 2) ** 2 * d * d
    return abs(w) ** 2 / denom


@dataclass(frozen=True)
class MobiusClass:
    """Conjugacy type of a degree-1 map with its fixed-point data."""

    kind: str  # identity | elliptic | parabolic | loxodromic
    fixed_points: tuple
    multiplier: complex | None


def classify_mobius(f: RationalMap) -> MobiusClass:
    """Type by the normalized trace tr^2/det; exact when coefficients allow.

    For the non-identity kinds the multiplier reported is the fixed-point
    derivative with modulus >= 1 (ties broken toward nonnegative imaginary
    part), so z -> 2z reports multiplier 2.
    """
    if f.degree != 1:
        raise NotMobius(f"degree {f.degree} map is not a Mobius transformation")
    a, b = f.num
    c, d = f.den
    det = a * d - b * c
    if b.is_zero() and c.is_zero() and a == d:
        return MobiusClass(kind="identity", fixed_points=(), multiplier=None)
    tr = a + d
    sigma = (tr * tr) / det  # projective invariant
    if sigma == GaussianRational(4):
        kind = "parabolic"
    elif sigma.im == 0 and 0 <= sigma.re < 4:
        kind = "elliptic"
    else:
        kind = "loxodromic"

    fixed = _mobius_fixed_points(a, b, c, d, kind)
    if kind == "parabolic":
        return MobiusClass(kind=kind, fixed_points=fixed, multiplier=1.0 + 0.0j)

    ca, cc, cd = complex(a), complex(c), complex(d)
    cdet = complex(det)
    mults = []
    for pt in fixed:
        if pt.is_infinity():
            mults.append(ca / cd if cd != 0 else complex("inf"))
        else:
            z = pt.affine()
            mults.append(cdet / (cc * z + cd) ** 2)
    lam = max(mults, key=lambda m: (abs(m), m.imag))
    return MobiusClass(kind=kind, fixed_points=fixed, multiplier=lam)


def _mobius_fixed_points(a, b, c, d, kind):
    """Roots of c z^2 + (d - a) z - b = 0, exact when the discriminant is."""
    if c.is_zero():
        pts = [INFINITY]
        if kind != "parabolic":
            z = b / (d - a)
            pts.append(normalize(complex(z), 1.0))
        return tuple(pts)
    if kind == "parabolic":
        z = (a - d) / (GaussianRational(2) * c)
        return (normalize(complex(z), 1.0),)
    disc = (d - a) * (d - a) + GaussianRational(4) * b * c
    root = sqrt_exact(disc)
    two_c = GaussianRational(2) * c
    if root is not None:
        z1 = (a - d + root) / two_c
        z2 = (a - d - root) / two_c
        return (normalize(complex(z1), 1.0), normalize(complex(z2), 1.0))
    w = complex(disc) ** 0.5
    z1 = (complex(a) - complex(d) + w) / complex(two_c)
    z2 = (complex(a) - complex(d) - w) / complex(two_c)
    return (normalize(z1, 1.0), normalize(z2, 1.0))
