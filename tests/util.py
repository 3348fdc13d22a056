"""Shared fixtures-by-hand for the test modules."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import rsentropy as rs
from rsentropy import coincidence, orbits, polynomial, ratmap
from rsentropy.errors import (
    CommonFactor,
    DegenerateMap,
    DepthMismatch,
    EmptyPool,
    MixedNu,
    RootFindingFailure,
)
from rsentropy.gaussian import canonical, lift, unlift
from rsentropy.projective import INFINITY, ProjPoint, chordal_dist, normalize


def monomial(power):
    """z -> z^power as an exact map."""
    num = [1] + [0] * power
    den = [0] * power + [1]
    return rs.make_map(num, den)


Z2 = monomial(2)
Z3 = monomial(3)
Z4 = monomial(4)
IDENTITY = rs.make_map([1, 0], [0, 1])


def affine_translation(a):
    """z -> z + a with an exact Gaussian-rational constant."""
    return rs.make_map([1, scalar(a)], [0, 1])


def scaling(a):
    """z -> a z."""
    return rs.make_map([scalar(a), 0], [0, 1])


def random_unitary(rng) -> tuple[complex, complex]:
    """A Haar-ish random SU(2) element (a, b); acts as in apply_unitary."""
    raw = rng.standard_normal(4)
    n = math.hypot(*raw)
    return complex(raw[0], raw[1]) / n, complex(raw[2], raw[3]) / n


def apply_unitary(a: complex, b: complex, p: ProjPoint) -> ProjPoint:
    """Rotation (h0, h1) -> (a h0 + b h1, -conj(b) h0 + conj(a) h1)."""
    return normalize(a * p.h0 + b * p.h1, -b.conjugate() * p.h0 + a.conjugate() * p.h1)


_q = rs.parse_scalar
# z^2 + c for the five c of the quad5 benchmark config
QUAD5 = [rs.make_map([1, 0, _q(c)], [0, 0, 1])
         for c in ("0", "1/4", "-1", {"re": "0", "im": "1"}, {"re": "-1/2", "im": "1/2"})]
# nine inexact coincidence points and the exact point at infinity
THREE_GENERATORS = rs.GeneratorSet([
    rs.make_map([_q("1/3"), _q({"re": "2/7", "im": "-5/3"}), 1],
                [0, _q("3/4"), _q({"re": "0", "im": "1/2"})]),
    rs.make_map([2, 0, -1], [0, 0, 1]),  # Chebyshev T2
    rs.make_map([_q({"re": "1/2", "im": "1/2"}), _q("-1/9")], [_q("1/5"), 1]),
])


def random_exact_map(rng, max_degree=3, coeff_bound=3):
    """A random coprime pair with small integer coefficients."""
    while True:
        d = int(rng.integers(1, max_degree + 1))
        num = [int(rng.integers(-coeff_bound, coeff_bound + 1)) for _ in range(d + 1)]
        den = [int(rng.integers(-coeff_bound, coeff_bound + 1)) for _ in range(d + 1)]
        try:
            return rs.make_map(num, den)
        except rs.errors.RsentropyError:
            continue


def brute_force_max_separated(paths, epsilon, symbols_count):
    """Independent-set oracle: try every subset of the paths."""
    k = len(paths)
    best = 0
    for mask in range(1, 1 << k):
        members = [paths[i] for i in range(k) if mask >> i & 1]
        ok = True
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                gap = max(
                    rs.chordal_dist(p, q)
                    for p, q in zip(a.points, b.points)
                )
                separated = gap > epsilon
                if symbols_count:
                    separated = separated or a.symbols != b.symbols
                if not separated:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = max(best, bin(mask).count("1"))
    return best


def reference_greedy(paths, eps, seed):
    """All-pairs seeded greedy family size, points only (the counting oracle).

    Walks the seed's permutation of the paths (their order when seed is
    None) and keeps a path when its sup chordal distance to every path kept
    so far exceeds eps, testing it against all of them.
    """
    k = len(paths)
    h0 = np.array([[p.h0 for p in o.points] for o in paths], dtype=np.complex128)
    h1 = np.array([[p.h1 for p in o.points] for o in paths], dtype=np.complex128)
    order = np.arange(k)
    if seed is not None:
        order = np.random.default_rng(seed).permutation(k)
    chosen = []
    sel0 = np.empty_like(h0)
    sel1 = np.empty_like(h1)
    for idx in order:
        if chosen:
            s = len(chosen)
            d = np.abs(h0[idx] * sel1[:s] - h1[idx] * sel0[:s]).max(axis=1)
            if not (d > eps).all():
                continue
        sel0[len(chosen)] = h0[idx]
        sel1[len(chosen)] = h1[idx]
        chosen.append(int(idx))
    return len(chosen)


def reference_conflict_pairs(pool, eps, labels=False):
    """All row pairs (i, j), i < j, whose test value is at most eps in every
    column by the expression of reference_greedy, with row j as the later
    orbit; with labels, every label must agree too (the pair oracle). eps is
    a number or one radius per column; a column of infinite radius is not
    tested, and its label (a_{c+1} goes with column c) is not compared."""
    radius = np.broadcast_to(eps, pool.h0.shape[1:])
    pairs = set()
    for j in range(len(pool)):
        d = np.abs(pool.h0[j] * pool.h1[:j] - pool.h1[j] * pool.h0[:j])
        near = ~(d > radius).any(axis=1)
        if labels:
            near &= ((pool.symbols[:j] == pool.symbols[j])
                     | (radius[:-1] == np.inf)).all(axis=1)
        pairs.update((int(i), j) for i in np.flatnonzero(near))
    return pairs


def reference_greedy_family(pool, eps):
    """The rows of the greedy dinh_sibony family that walks the pool in row
    order, the words in sorted order (the family oracle): a row joins iff no
    earlier member of its word conflicts with it, by reference_conflict_pairs."""
    pairs = reference_conflict_pairs(pool, eps, labels=True)
    members = []
    for j in range(len(pool)):
        if not any((i, j) in pairs for i in members):
            members.append(j)
    return sorted(members, key=lambda r: pool.symbols[r].tolist())


# -- orbits as truncated paths and the product metric on them, with its
# shift lemma in closed form: the oracles of the pool's metric ------------------


class EmptyPath(Exception):
    """Shift applied to a depth-0 path."""


@dataclass(frozen=True)
class TruncatedPath:
    """The first depth+1 coordinates of an infinite orbit."""

    points: tuple
    symbols: tuple

    @property
    def depth(self) -> int:
        return len(self.symbols)


def pool_from_paths(paths) -> rs.OrbitPool:
    """The pool of equal-depth paths, whose points are taken as canonical."""
    if not paths:
        raise EmptyPool("cannot build a pool from no paths")
    depth = paths[0].depth
    if any(p.depth != depth for p in paths):
        raise MixedNu("paths of different depths")
    return orbits._pool([p.points for p in paths], [p.symbols for p in paths], depth)


def pool_paths(pool) -> list[TruncatedPath]:
    """Each row as a path of canonical points."""
    return [TruncatedPath(tuple(map(ProjPoint, r0, r1)), tuple(s))
            for r0, r1, s in zip(pool.h0.tolist(), pool.h1.tolist(),
                                 pool.symbols.tolist())]


def shift(p: TruncatedPath) -> TruncatedPath:
    """Drop x_0 and the first label; depth decreases by one."""
    if p.depth < 1:
        raise EmptyPath("cannot shift a depth-0 path")
    return TruncatedPath(points=p.points[1:], symbols=p.symbols[1:])


def delta_metric(p: TruncatedPath, q: TruncatedPath) -> float:
    """Product metric max(sup d(x_k, y_k)/2^k, sup delta(a_{k+1}, b_{k+1})/2^k).

    The symbol mismatch indicator uses the 0-1 metric, so a first-label
    mismatch alone already gives distance 1.
    """
    if p.depth != q.depth:
        raise DepthMismatch(f"depths {p.depth} and {q.depth} differ")
    best = 0.0
    w = 1.0
    for a, b in zip(p.points, q.points):
        best = max(best, chordal_dist(a, b) * w)
        w *= 0.5
    w = 1.0
    for a, b in zip(p.symbols, q.symbols):
        if a != b:
            best = max(best, w)
            break  # later mismatches only have smaller weight
        w *= 0.5
    return best


def shifted_separation(p: TruncatedPath, q: TruncatedPath, horizon: int) -> float:
    """max over 0 <= j <= horizon of delta_metric(shift^j p, shift^j q).

    Evaluated in closed form: the j-maximum turns the 2^-k weights into
    2^-(k - horizon)+ weights on both points and symbols, exactly as the
    left-shift lemma for product metrics states.
    """
    if p.depth != q.depth:
        raise DepthMismatch(f"depths {p.depth} and {q.depth} differ")
    if horizon > p.depth:
        raise DepthMismatch(f"horizon {horizon} exceeds depth {p.depth}")
    best = 0.0
    for k in range(len(p.points)):
        w = 1.0 if k <= horizon else 0.5 ** (k - horizon)
        best = max(best, chordal_dist(p.points[k], q.points[k]) * w)
    for k in range(len(p.symbols)):
        if p.symbols[k] != q.symbols[k]:
            w = 1.0 if k <= horizon else 0.5 ** (k - horizon)
            best = max(best, w)
    return best


def reference_shift_pairs(paths, eps, horizon):
    """All index pairs (i, j), i < j, whose shifted separation to the
    horizon is at most eps (the shift-pair oracle)."""
    return {(i, j) for j in range(len(paths)) for i in range(j)
            if shifted_separation(paths[i], paths[j], horizon) <= eps}


def reference_karp(num_nodes, edges):
    """Karp's maximum mean cycle weight over the full (n + 1) x n table of
    F[k][v], the best weight of a k-edge walk ending at v; None when the
    graph is acyclic (the cycle-mean oracle)."""
    if num_nodes == 0 or not edges:
        return None
    n = num_nodes
    neg = float("-inf")
    table = [[neg] * n for _ in range(n + 1)]
    for v in range(n):
        table[0][v] = 0.0
    for k in range(1, n + 1):
        row, prev = table[k], table[k - 1]
        for u, v, w in edges:
            if prev[u] > neg and prev[u] + w > row[v]:
                row[v] = prev[u] + w
    best = None
    for v in range(n):
        if table[n][v] == neg:
            continue
        worst = None
        for k in range(n):
            if table[k][v] == neg:
                continue
            ratio = (table[n][v] - table[k][v]) / (n - k)
            if worst is None or ratio < worst:
                worst = ratio
        if worst is not None and (best is None or worst > best):
            best = worst
    return best


def schoolbook_mul(a, b):
    """The product of two coefficient sequences of exact scalars, every
    a_i times every b_j, as ReferenceGaussians; the order of the
    coefficients does not matter."""
    out = [ReferenceGaussian(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + ref(x) * ref(y)
    return out


def form_d0(form):
    """Partial derivative with respect to z0 of a form given as its
    coefficients in descending z0 order (the derivative oracle)."""
    d = len(form) - 1
    return tuple(ref(form[k]) * ReferenceGaussian(d - k) for k in range(d))


def form_d1(form):
    """Partial derivative with respect to z1, as form_d0."""
    d = len(form) - 1
    return tuple(ref(form[k]) * ReferenceGaussian(k) for k in range(1, d + 1))


def reference_form_eval_exact(form, z0, z1):
    """Horner value of an exact form at (z0, z1), reduced after every
    operation (the form evaluation oracle)."""
    z0, z1 = ref(z0), ref(z1)
    acc = ref(form[0])
    zp = ReferenceGaussian(1)
    for k in range(1, len(form)):
        zp = zp * z1
        acc = acc * z0 + ref(form[k]) * zp
    return acc


def exact_normalize(h0, h1):
    """Scale so the first nonzero coordinate is exactly 1: the exact point as
    a pair of ReferenceGaussians (the point normaliser oracle)."""
    h0, h1 = ref(h0), ref(h1)
    if not h0.is_zero():
        return (ReferenceGaussian(1), h1 / h0)
    if h1.is_zero():
        raise ValueError("zero vector has no projective class")
    return (ReferenceGaussian(0), ReferenceGaussian(1))


def exact_point(h0, h1=1):
    """The exact point [h0 : h1] of two scalars in the library's form, its
    canonical Gaussian-integer coordinates; exact_point(z) is z."""
    return canonical(lift((scalar(h0), scalar(h1)))[0])[0]


def reference_exact_eval(f, pt):
    """The normalized image of an exact point given as two scalars, each
    form evaluated by reference_form_eval_exact (the exact step oracle)."""
    w0 = reference_form_eval_exact(f.num, pt[0], pt[1])
    w1 = reference_form_eval_exact(f.den, pt[0], pt[1])
    return exact_normalize(w0, w1)


def reference_escape_bound(maps):
    """The squared escape radius B of a set of polynomials of degree >= 2, or
    None for any other set, by Fraction arithmetic on the num and den views
    (the escape radius oracle): B is the largest max(1, (1 + A+)^2 / |a_d|^2)
    with a_k the coefficients of f = num / lead and A+ = sum_{k<d} |Re a_k| +
    |Im a_k|."""
    bound = Fraction(1)
    for f in maps:
        if f.degree < 2 or not all(ref(c).is_zero() for c in f.den[:-1]):
            return None
        lead = ref(f.den[-1])
        a = [ref(c) / lead for c in f.num]
        spread = 1 + sum(abs(c.re) + abs(c.im) for c in a[1:])
        bound = max(bound, spread * spread / (a[0].re ** 2 + a[0].im ** 2))
    return bound


# -- exact Euclid over Q(i) and the Mobius classes as they were on
# GaussianRational scalars, on ReferenceGaussians: the oracles of the pair
# Euclid, of the coincidence roots and of classify_mobius ----------------------


def reference_poly_trim(coeffs: list) -> list:
    """Drop zero leading (highest-degree) coefficients of an ascending list."""
    out = list(coeffs)
    while out and out[-1].is_zero():
        out.pop()
    return out


def reference_poly_gcd(a: list, b: list) -> list:
    """Monic gcd of ascending-coefficient polynomials over Q(i) (the gcd
    oracle).

    Euclid's algorithm in exact arithmetic. It stops as soon as a divisor
    is a nonzero constant, whose gcd with anything is 1. The gcd of two
    zero polynomials is the empty list.
    """
    a = reference_poly_trim(map(ref, a))
    b = reference_poly_trim(map(ref, b))
    while b:
        if len(b) == 1:
            return [ReferenceGaussian(1)]
        a, b = b, reference_poly_divmod(a, b)[1]
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def reference_poly_divmod(a: list, b: list) -> tuple[list, list]:
    """(quotient, trimmed remainder) of ascending coefficient lists, b
    trimmed."""
    r = [ref(c) for c in a]
    b = [ref(c) for c in b]
    db, lead = len(b) - 1, b[-1]
    q = [ReferenceGaussian(0)] * max(len(a) - db, 0)
    while len(r) - 1 >= db and r:
        factor = r[-1] / lead
        shift = len(r) - 1 - db
        q[shift] = factor
        for i in range(db + 1):
            r[shift + i] = r[shift + i] - factor * b[i]
        r.pop()
        while r and r[-1].is_zero():
            r.pop()
    return q, r


def reference_sqrt_exact(value):
    """Exact square root within the Gaussian rationals, or None (the square
    root oracle).

    Solves (x + yi)^2 = a + bi over Q when possible: needs |a+bi| to be a
    rational square, and then x^2 = (a + |a+bi|)/2 a rational square too.
    """
    value = ref(value)
    a, b = value.re, value.im
    if a == 0 and b == 0:
        return ReferenceGaussian(0)
    s = _fraction_sqrt(a * a + b * b)
    if s is None:
        return None
    x = _fraction_sqrt((a + s) / 2)
    if x is None:
        return None
    if x == 0:
        # value = negative real; root is purely imaginary
        y = _fraction_sqrt(-a)
        return None if y is None else ReferenceGaussian(0, y)
    root = ReferenceGaussian(x, b / (2 * x))
    return root if root * root == value else None


def _fraction_sqrt(f: Fraction):
    if f < 0:
        return None
    rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def reference_cross_roots(cross, exact_ok):
    """Projective roots of an exact form of scalars, exact where recoverable
    (the coincidence root oracle): monomial factors, then the squarefree
    part p / gcd(p, p'), then, for exact maps, the Gaussian-rational roots
    that its numeric roots snap to, verified and deflated one at a time."""
    cross = [ref(c) for c in cross]
    if all(c.is_zero() for c in cross):
        raise RootFindingFailure("cross form vanishes identically")
    lead = 0
    while cross[lead].is_zero():
        lead += 1
    trail = 0
    while cross[len(cross) - 1 - trail].is_zero():
        trail += 1
    core = cross[lead:len(cross) - trail]

    roots = []
    if lead:
        pt = ((1, 0), (0, 0))
        roots.append((coincidence.exact_to_proj(pt), pt if exact_ok else None))
    if trail:
        pt = ((0, 0), (1, 0))
        roots.append((coincidence.exact_to_proj(pt), pt if exact_ok else None))

    asc = reference_poly_trim(list(reversed(core)))
    if len(asc) <= 1:
        return roots
    deriv = [c * ReferenceGaussian(k) for k, c in enumerate(asc)][1:]
    asc = reference_poly_divmod(asc, reference_poly_gcd(asc, deriv))[0]
    if exact_ok:
        rational = []
        while len(asc) > 1:
            if len(asc) == 2:
                rational.append((-asc[0]) / asc[1])
                asc = [asc[1]]
                break
            for z in polynomial.aberth_roots([complex(c) for c in asc]):
                re = Fraction(z.real).limit_denominator(coincidence.SNAP_DENOMINATOR)
                im = Fraction(z.imag).limit_denominator(coincidence.SNAP_DENOMINATOR)
                if abs(re - Fraction(z.real)) > 1e-9 or abs(im - Fraction(z.imag)) > 1e-9:
                    continue
                cand = ReferenceGaussian(re, im)
                value = asc[-1]
                for c in reversed(asc[:-1]):
                    value = value * cand + c
                if value.is_zero():
                    rational.append(cand)
                    asc = reference_poly_divmod(asc, [-cand, ReferenceGaussian(1)])[0]
                    break
            else:
                break
        for r in rational:
            pt = exact_point(r)
            roots.append((coincidence.exact_to_proj(pt), pt))
    if len(asc) > 1:
        for z in polynomial.aberth_roots([complex(c) for c in asc]):
            roots.append((normalize(z, 1.0), None))
    return roots


def reference_classify_mobius(f):
    """(kind, fixed points, multiplier) of a degree-1 map by the normalized
    trace tr^2/det on its num and den views (the Mobius oracle); at the
    fixed point infinity the multiplier is d/a."""
    a, b = map(ref, f.num)
    c, d = map(ref, f.den)
    det = a * d - b * c
    if b.is_zero() and c.is_zero() and a == d:
        return "identity", (), None
    tr = a + d
    sigma = (tr * tr) / det
    if sigma == ReferenceGaussian(4):
        kind = "parabolic"
    elif sigma.im == 0 and 0 <= sigma.re < 4:
        kind = "elliptic"
    else:
        kind = "loxodromic"

    two = ReferenceGaussian(2)
    if c.is_zero():
        fixed = [INFINITY]
        if kind != "parabolic":
            fixed.append(normalize(complex(b / (d - a)), 1.0))
    elif kind == "parabolic":
        fixed = [normalize(complex((a - d) / (two * c)), 1.0)]
    else:
        disc = (d - a) * (d - a) + ReferenceGaussian(4) * b * c
        root = reference_sqrt_exact(disc)
        if root is not None:
            fixed = [normalize(complex((a - d + root) / (two * c)), 1.0),
                     normalize(complex((a - d - root) / (two * c)), 1.0)]
        else:
            w = complex(disc) ** 0.5
            fixed = [normalize((complex(a) - complex(d) + w) / complex(two * c), 1.0),
                     normalize((complex(a) - complex(d) - w) / complex(two * c), 1.0)]
    if kind == "parabolic":
        return kind, tuple(fixed), 1.0 + 0.0j
    mults = [complex(d) / complex(a) if pt.is_infinity()
             else complex(det) / (complex(c) * pt.affine() + complex(d)) ** 2
             for pt in fixed]
    return kind, tuple(fixed), max(mults, key=lambda m: (abs(m), m.imag))


def group_by_word(paths):
    """{label word: its paths in order}."""
    groups = {}
    for p in paths:
        groups.setdefault(p.symbols, []).append(p)
    return groups


def steps_match(c, path, tol):
    """Whether each step of the path is its label's map within tol."""
    comps = c.primed()
    return all(
        rs.chordal_dist(rs.evaluate(comps[a - 1], path.points[j]), path.points[j + 1]) <= tol
        for j, a in enumerate(path.symbols))


class ReferenceGaussian:
    """Exact complex rational as a pair of Fractions (the scalar oracle).

    The straightforward representation ``re + im*i`` with one Fraction per
    part, kept to check the integer normal form of ``rs.GaussianRational``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return ReferenceGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ReferenceGaussian(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return ReferenceGaussian(-self.re, -self.im)

    def __mul__(self, other):
        return ReferenceGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        n = other.abs2()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return ReferenceGaussian(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self):
        return ReferenceGaussian(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def sort_key(self):
        return (self.re, self.im)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def literal(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def ref(value) -> ReferenceGaussian:
    """A ReferenceGaussian as it is, or any exact scalar that
    rs.GaussianRational.from_value takes as a ReferenceGaussian."""
    if isinstance(value, ReferenceGaussian):
        return value
    value = rs.GaussianRational.from_value(value)
    return ReferenceGaussian(value.re, value.im)


def scalar(value) -> rs.GaussianRational:
    """A ReferenceGaussian, or anything rs.GaussianRational.from_value takes,
    as the library's scalar."""
    if isinstance(value, ReferenceGaussian):
        return rs.GaussianRational(value.re, value.im)
    return rs.GaussianRational.from_value(value)


# -- the root finder as first written, with closures and no shortcuts: the
# oracles of the bit-exact tests -----------------------------------------------


def reference_aberth_roots(coeffs_ascending) -> list[complex]:
    """All complex roots of an ascending-coefficient polynomial.

    Simultaneous third-order iteration from a deterministic circle of start
    values; stops when every residual |p(z_k)| falls below ABERTH_TOL
    relative to sum_k |c_k| |z|^k, then applies one Newton polish per root.
    """
    coeffs = [complex(c) for c in coeffs_ascending]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    m = len(coeffs) - 1
    if m <= 0:
        return []
    if m == 1:
        return [-coeffs[0] / coeffs[1]]

    lead = coeffs[-1]
    radius = 1.0 + max(abs(c / lead) for c in coeffs[:-1])
    center = -coeffs[-2] / (m * lead)
    roots = [center + 0.9 * radius * e for e in polynomial._start_circle(m)]
    deriv = [coeffs[k] * k for k in range(1, m + 1)]

    def p_of(z):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    def dp_of(z):
        acc = 0j
        for c in reversed(deriv):
            acc = acc * z + c
        return acc

    sizes = [abs(c) for c in coeffs]

    def residual_ok(z):
        # backward-error scale max(1, |z|)^k keeps the test meaningful at
        # roots near 0 (e.g. the monomial z^m, where sum |c_k| |z|^k would
        # equal |p(z)| identically and certify nothing)
        scale = 0.0
        zp = 1.0
        az = max(abs(z), 1.0)
        for a in sizes:
            scale += a * zp
            zp *= az
        return abs(p_of(z)) <= polynomial.ABERTH_TOL * max(scale, 1e-300)

    converged = False
    for _ in range(polynomial.ABERTH_MAX_SWEEPS):
        moved = 0.0
        for i in range(m):
            z = roots[i]
            pz = p_of(z)
            dz = dp_of(z)
            if dz == 0:
                roots[i] = z + 1e-8 * (1.0 + abs(z))
                moved = math.inf
                continue
            w = pz / dz
            s = 0j
            for j in range(m):
                if j != i:
                    diff = z - roots[j]
                    if diff == 0:
                        diff = 1e-14 * (1.0 + abs(z))
                    s += 1.0 / diff
            denom = 1.0 - w * s
            step = w if denom == 0 else w / denom
            roots[i] = z - step
            moved = max(moved, abs(step))
        # require localization as well as small residuals: at a multiple
        # root the residual passes while the iterates still straddle it at
        # ~tol^(1/mult), which would defeat the downstream cluster merge
        if moved <= 1e-9 * (1.0 + radius) and all(residual_ok(z) for z in roots):
            converged = True
            break
        if moved <= 1e-15 * (1.0 + radius):
            break  # stagnated; the residual check below decides
    if not converged and not all(residual_ok(z) for z in roots):
        raise RootFindingFailure(
            f"simultaneous iteration did not converge for degree {m}")

    polished = []
    for z in roots:
        dz = dp_of(z)
        if dz != 0:
            z = z - p_of(z) / dz
        polished.append(z)
    return polished


def reference_strip_infinite_roots(coeffs_descending):
    """Split a possibly degree-deficient form into (finite part, inf count).

    Input is a complex coefficient list in descending z0 order; leading
    entries at most 1e-13 of the largest coefficient are treated as exact
    zeros, each contributing one root at [1 : 0].
    """
    biggest = max(abs(c) for c in coeffs_descending)
    if biggest == 0.0:
        raise RootFindingFailure("zero form has no well-defined roots")
    idx = 0
    while idx < len(coeffs_descending) - 1 and abs(coeffs_descending[idx]) <= 1e-13 * biggest:
        idx += 1
    finite = list(coeffs_descending[idx:])
    return finite, idx


def reference_preimages(f, q):
    """All solutions of f(x) = q with multiplicities summing to deg(f).

    Solves the degree-d form q1 P - q0 Q: degree deficiency contributes
    roots at [1 : 0], the rest come from the simultaneous iteration on the
    dehomogenized polynomial. Roots within chordal distance 1e-7 merge into
    one cluster with summed multiplicity; every representative is verified
    to map back onto q within 1e-9.
    """
    d = f.degree
    cross = [q.h1 * f.num_float[k] - q.h0 * f.den_float[k] for k in range(d + 1)]
    finite_desc, inf_mult = reference_strip_infinite_roots(cross)

    points = []
    if len(finite_desc) > 1:
        roots = reference_aberth_roots(list(reversed(finite_desc)))
        points.extend(normalize(z, 1.0) for z in roots)
    points.extend([INFINITY] * inf_mult)

    clusters = []
    for pt in sorted(points, key=lambda r: (r.h0.real, r.h1.real, r.h1.imag)):
        for cluster in clusters:
            if chordal_dist(cluster[0], pt) <= ratmap.ROOT_CLUSTER_TOL:
                cluster.append(pt)
                break
        else:
            clusters.append([pt])

    out = []
    for cluster in clusters:
        rep = cluster[0]
        if chordal_dist(ratmap.evaluate(f, rep), q) > ratmap.PREIMAGE_RESIDUAL_TOL:
            raise RootFindingFailure(
                "preimage residual check failed; target may be ill-conditioned")
        out.append((rep, len(cluster)))
    out.sort(key=lambda rm: (-rm[1], rm[0].h0.real, rm[0].h1.real, rm[0].h1.imag))
    if sum(m for _, m in out) != d:
        raise RootFindingFailure("preimage multiplicities do not sum to the degree")
    return out


def reference_tree_levels(c, terminal, nu, jac_floor=0.0):
    """Levels 0..nu of the backward tree as (h0, h1, symbols) arrays, one
    step at a time through reference_preimages: a multiple root or a
    RootFindingFailure restarts from the next perturbed terminal, and with
    jac_floor > 0 a step keeps only its lowest-Jacobian root when some root
    falls below the floor (the tree oracle)."""
    comps = c.primed()
    point = terminal
    for attempt in range(orbits.PERTURB_ATTEMPTS + 1):
        rows = [([point.h0], [point.h1], [])]
        levels = {0: rows}
        try:
            for depth in range(1, nu + 1):
                grown = []
                for h0, h1, labels in rows:
                    head = rs.ProjPoint(h0[0], h1[0])
                    for a, f in enumerate(comps, 1):
                        roots = reference_preimages(f, head)
                        if any(mult > 1 for _, mult in roots):
                            raise RootFindingFailure("critical value")
                        if jac_floor > 0.0:
                            low = [(r, mult) for r, mult in roots
                                   if rs.fs_jacobian(f, r) < jac_floor]
                            if low:
                                roots = [min(low, key=lambda rm: rs.fs_jacobian(f, rm[0]))]
                        grown += [([r.h0] + h0, [r.h1] + h1, [a] + labels)
                                  for r, _ in roots]
                rows = levels[depth] = grown
        except RootFindingFailure:
            point = orbits._perturb(terminal, attempt)
            continue
        return {k: (np.array([r[0] for r in level], dtype=np.complex128),
                    np.array([r[1] for r in level], dtype=np.complex128),
                    np.array([r[2] for r in level], dtype=np.int64).reshape(len(level), k))
                for k, level in levels.items()}
    raise RootFindingFailure("no generic terminal")


def same_bits(a, b) -> bool:
    """Whether two complex results hold the same float64 bytes (so -0.0 and
    0.0 differ): complex numbers, sequences of them, or arrays."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# -- map algebra on GaussianRational coefficients, as it was before a map
# became its Gaussian-integer form: the oracles of _build, compose and
# sort_key. The bodies are the old ones; only the names they call changed,
# and sort_key reads each coefficient's (re, im) Fractions --------------------


@dataclass(frozen=True)
class ReferenceMap:
    """A canonical map held as GaussianRational coefficients; its dataclass
    equality and hash compare them."""

    num: tuple
    den: tuple
    degree: int
    exact_coeffs: bool = True

    def sort_key(self):
        coeffs = tuple((c.re, c.im) for c in self.num + self.den)
        return (self.degree, coeffs)


def reference_make_map(num, den):
    """The oracle twin of ``rs.make_map(num, den)`` on a coprime pair: the
    same coercion, then reference_build."""
    coeffs = [scalar(c) for c in list(num) + list(den)]
    exact = not any(isinstance(c, (float, complex)) for c in list(num) + list(den))
    return reference_build(lift(coeffs)[0], exact)


def reference_forms_coprime(p, q):
    """No shared root at [1 : 0] and an affine gcd of degree 0, by exact
    Euclid alone."""
    if ref(p[0]).is_zero() and ref(q[0]).is_zero():
        return False
    return len(reference_poly_gcd(p[::-1], q[::-1])) <= 1


def reference_build(pairs, exact):
    """Canonical map from Gaussian-integer coefficients, num then den.

    Division by the first nonzero c0 = a0 + b0*i: times conj(c0) over |c0|^2.
    """
    for a0, b0 in pairs:
        if a0 or b0:
            break
    else:
        raise DegenerateMap("all coefficients vanish")
    coeffs = unlift([(a * a0 + b * b0, b * a0 - a * b0) for a, b in pairs],
                    a0 * a0 + b0 * b0)
    d = len(coeffs) // 2 - 1
    num, den = coeffs[:d + 1], coeffs[d + 1:]
    return ReferenceMap(num=num, den=den, degree=d, exact_coeffs=exact)


def reference_pairs_mul(a, b):
    """Convolution of Gaussian-integer forms given as (re, im) int pairs: the
    schoolbook product, every nonzero a_i times every nonzero b_j."""
    re = [0] * (len(a) + len(b) - 1)
    im = [0] * len(re)
    nonzero_b = [(j, u, v) for j, (u, v) in enumerate(b) if u or v]
    for i, (x, y) in enumerate(a):
        if not (x or y):
            continue
        for j, u, v in nonzero_b:
            re[i + j] += x * u - y * v
            im[i + j] += x * v + y * u
    return list(zip(re, im))


def reference_compose(f, g):
    """The composite f o g by exact substitution; degree multiplies."""
    dn = f.degree
    fc, _ = lift(f.num + f.den)
    gc, _ = lift(g.num + g.den)
    p_pows, q_pows = [[(1, 0)]], [[(1, 0)]]
    for _ in range(dn):
        p_pows.append(reference_pairs_mul(p_pows[-1], gc[:g.degree + 1]))
        q_pows.append(reference_pairs_mul(q_pows[-1], gc[g.degree + 1:]))
    # the monomial z0^(dn-k) z1^k becomes P^(dn-k) Q^k, built once for
    # both forms and only where f has a nonzero coefficient on it
    monomials = [
        reference_pairs_mul(p_pows[dn - k], q_pows[k])
        if any(fc[k]) or any(fc[dn + 1 + k]) else None
        for k in range(dn + 1)
    ]

    def substitute(form):
        out = [(0, 0)] * (dn * g.degree + 1)
        for (a, b), mono in zip(form, monomials):
            if a or b:
                out = [(x + a * u - b * v, y + a * v + b * u)
                       for (x, y), (u, v) in zip(out, mono)]
        return out

    h = reference_build(substitute(fc[:dn + 1]) + substitute(fc[dn + 1:]),
                        f.exact_coeffs and g.exact_coeffs)
    if not reference_forms_coprime(h.num, h.den):
        raise CommonFactor("composition produced a common factor (unexpected)")
    return h


def word_map(maps, word):
    """The map of the word (i_1, ..., i_nu), f_{i_nu} o ... o f_{i_1}, by
    ``rs.compose``, one letter at a time."""
    f = maps[word[0] - 1]
    for j in word[1:]:
        f = rs.compose(maps[j - 1], f)
    return f


def reference_ledger(maps, nu):
    """The word ledger of length nu of the reference maps, one word at a time.

    Each word (i_1, ..., i_nu) composes as f_{i_nu} o ... o f_{i_1} by
    reference_compose. Returns {map: (multiplicity, witness words)}, each
    entry's words in the order ``enumerate_words`` lists them: by the sort
    key of the word's map before its last letter, then by that letter, then
    by that shorter word's own place in its entry.
    """
    composed = {}

    def word_map(word):
        if word not in composed:
            composed[word] = (maps[word[0] - 1] if len(word) == 1 else
                              reference_compose(maps[word[-1] - 1], word_map(word[:-1])))
        return composed[word]

    def place(word):
        if len(word) == 1:
            return ()
        return (word_map(word[:-1]).sort_key(), word[-1], place(word[:-1]))

    words = {}
    for word in itertools.product(range(1, len(maps) + 1), repeat=nu):
        words.setdefault(word_map(word), []).append(word)
    return {h: (len(ws), tuple(sorted(ws, key=place))) for h, ws in words.items()}
