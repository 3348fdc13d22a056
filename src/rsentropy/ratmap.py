"""Exact algebra of holomorphic self-maps of the sphere.

A map is a coprime pair of homogeneous forms (P, Q) of equal degree d >= 1
over the Gaussian rationals, stored in canonical form: the first nonzero
coefficient of the concatenated list (numerator then denominator, descending
monomial order) equals 1. The canonical form is held as Gaussian integers
over one positive scale with no common factor, which is unique;
``gaussian.canonical`` gives it, as it gives an exact point's. It is the
map's one exact form: equality, hashing, composition, the exact evaluation
fallback, the Mobius classes and the float coefficients and their
derivatives all read its (re, im) int pairs. ``num`` and ``den`` are
GaussianRational views on it, which only the config echo reads.
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
from .gaussian import GaussianRational, OrderKey, canonical, lift, to_complex, unlift
from .polynomial import (
    aberth_roots,
    form_eval_complex,
    form_mul,
    forms_coprime,
    pairs_eval,
    strip_infinite_roots,
)
from .projective import INFINITY, ProjPoint, chordal_dist, normalize, point_order

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
        return tuple(to_complex(c, self.scale) for c in self.pairs[:self.degree + 1])

    @cached_property
    def den_float(self) -> tuple:
        """den as complex coefficients, computed on first use."""
        return tuple(to_complex(c, self.scale) for c in self.pairs[self.degree + 1:])

    @cached_property
    def partials_float(self) -> tuple:
        """The complex coefficients of dP/dz0, dP/dz1, dQ/dz0 and dQ/dz1,
        computed on first use: the coefficient c_k of z0^(d-k) z1^k gives
        (d - k) c_k to the first and k c_k to the second."""
        d, s = self.degree, self.scale
        return tuple(
            tuple(to_complex((a * m, b * m), s) for (a, b), m in zip(terms, weights))
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
        if asc[k] != 0:
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
    integers, e the largest denominator of the four float parts (each a
    power of 2), each form's value is its Horner sum over scale e^d, and
    int true division rounds it correctly.
    """
    w0 = form_eval_complex(f.num_float, p.h0, p.h1)
    w1 = form_eval_complex(f.den_float, p.h0, p.h1)
    if math.hypot(abs(w0), abs(w1)) < 1e-8 * f.float_scale:
        d = f.degree
        ratios = [x.as_integer_ratio() for x in (p.h0.real, p.h0.imag, p.h1.real, p.h1.imag)]
        e = max(q for _, q in ratios)
        x0, y0, x1, y1 = (n * (e // q) for n, q in ratios)
        z0, z1 = (x0, y0), (x1, y1)
        den = f.scale * e ** d
        w0, w1 = (to_complex(pairs_eval(form, z0, z1), den)
                  for form in (f.pairs[:d + 1], f.pairs[d + 1:]))
    return normalize(w0, w1)


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
    for pt in sorted(points, key=point_order):
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
    # the clusters are in point order, so a stable sort keeps it within a multiplicity
    out = sorted(map(tuple, clusters), key=lambda pm: -pm[1])
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
    """Type by the normalized trace sigma = tr^2/det, decided exactly on the
    map's Gaussian-integer pairs (a, b, c, d for z -> (a z + b)/(c z + d)),
    whose scale cancels from sigma: parabolic iff tr^2 = 4 det, elliptic
    iff tr^2 conj(det) = x is real with 0 <= x < 4 |det|^2.

    For the non-identity kinds the multiplier reported is the fixed-point
    derivative with modulus >= 1 (ties broken toward nonnegative imaginary
    part), so z -> 2z and z -> z/2 both report multiplier 2.
    """
    if f.degree != 1:
        raise NotMobius(f"degree {f.degree} map is not a Mobius transformation")
    a, b, c, d = f.pairs
    if b == c == (0, 0) and a == d:
        return MobiusClass(kind="identity", fixed_points=(), multiplier=None)
    det = _sub(_mul(a, d), _mul(b, c))
    tr2 = _mul(_add(a, d), _add(a, d))
    x, y = _mul(tr2, (det[0], -det[1]))
    if tr2 == (4 * det[0], 4 * det[1]):
        kind = "parabolic"
    elif y == 0 and 0 <= x < 4 * (det[0] ** 2 + det[1] ** 2):
        kind = "elliptic"
    else:
        kind = "loxodromic"

    fixed = _mobius_fixed_points(f, kind)
    if kind == "parabolic":
        return MobiusClass(kind=kind, fixed_points=fixed, multiplier=1.0 + 0.0j)

    (ca, _), (cc, cd) = f.num_float, f.den_float
    cdet = to_complex(det, f.scale ** 2)
    mults = []
    for pt in fixed:
        if pt.is_infinity():
            # c = 0, so a = (scale, 0): the derivative of 1/f(1/w) at 0 is d/a
            mults.append(cd / ca)
        else:
            z = pt.affine()
            mults.append(cdet / (cc * z + cd) ** 2)
    lam = max(mults, key=lambda m: (abs(m), m.imag))
    return MobiusClass(kind=kind, fixed_points=fixed, multiplier=lam)


# -- Gaussian-integer arithmetic on (re, im) int pairs, for the Mobius classes


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ratio_point(x, y) -> ProjPoint:
    """The float point [x/y : 1] of Gaussian integers x and y != 0: x/y is
    x conj(y) / |y|^2, each part rounded correctly."""
    return normalize(to_complex(_mul(x, (y[0], -y[1])), y[0] ** 2 + y[1] ** 2), 1.0)


def _zi_sqrt(x):
    """The square root of the Gaussian integer x in Z[i] with a positive
    real part, or else a nonnegative imaginary one, or None. Z[i] is
    integrally closed, so x is a square in Q(i) iff it is one here; then
    (re + im*i)^2 = x gives re^2 = (|x| + Re x)/2 and im^2 = (|x| - Re x)/2."""
    u, v = x
    n = math.isqrt(u * u + v * v)
    re, im = math.isqrt((n + u) // 2), math.isqrt((n - u) // 2)
    root = (re, im if v > 0 or not re else -im)
    return root if _mul(root, root) == x else None


def _mobius_fixed_points(f, kind):
    """Roots of c z^2 - (a - d) z - b = 0 on f's Gaussian-integer pairs,
    exact when the discriminant (a - d)^2 + 4 b c is a square."""
    a, b, c, d = f.pairs
    e = _sub(a, d)
    if c == (0, 0):
        return (INFINITY,) if kind == "parabolic" else (INFINITY, _ratio_point((-b[0], -b[1]), e))
    two_c = (2 * c[0], 2 * c[1])
    if kind == "parabolic":
        return (_ratio_point(e, two_c),)
    disc = _add(_mul(e, e), _mul((4 * b[0], 4 * b[1]), c))
    root = _zi_sqrt(disc)
    if root is not None:
        return _ratio_point(_add(e, root), two_c), _ratio_point(_sub(e, root), two_c)
    w = to_complex(disc, f.scale ** 2) ** 0.5
    ca, cd, two_cc = f.num_float[0], f.den_float[1], to_complex(two_c, f.scale)
    return normalize((ca - cd + w) / two_cc, 1.0), normalize((ca - cd - w) / two_cc, 1.0)
