"""Shared fixtures-by-hand for the test modules."""

from fractions import Fraction

import numpy as np

import rsentropy as rs


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
    return rs.make_map([1, rs.GaussianRational.from_value(a)], [0, 1])


def scaling(a):
    """z -> a z."""
    return rs.make_map([rs.GaussianRational.from_value(a), 0], [0, 1])


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
    """All row pairs (i, j), i < j, whose sup test value is at most eps by
    the expression of reference_greedy, with row j as the later orbit; with
    labels, every label must agree too (the pair oracle)."""
    pairs = set()
    for j in range(len(pool)):
        d = np.abs(pool.h0[j] * pool.h1[:j] - pool.h1[j] * pool.h0[:j]).max(axis=1)
        near = ~(d > eps)
        if labels:
            near &= (pool.symbols[:j] == pool.symbols[j]).all(axis=1)
        pairs.update((int(i), j) for i in np.flatnonzero(near))
    return pairs


def reference_shift_pairs(paths, eps, horizon):
    """All index pairs (i, j), i < j, whose shifted separation to the
    horizon is at most eps (the shift-pair oracle)."""
    return {(i, j) for j in range(len(paths)) for i in range(j)
            if rs.shifted_separation(paths[i], paths[j], horizon) <= eps}


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


def scan_return_depths(c, x, depth, tol):
    """Return depths of the float forward search, deduplicating each forward
    set by a scan over all points kept so far (the recurrence oracle)."""
    support = [f for f, _ in c.components]
    frontier, returns = [x], []
    for step in range(1, depth + 1):
        images = []
        for pt in frontier:
            for f in support:
                img = rs.evaluate(f, pt)
                if not any(rs.chordal_dist(img, seen) <= tol for seen in images):
                    images.append(img)
        frontier = images
        if any(rs.chordal_dist(x, pt) <= tol for pt in frontier):
            returns.append(step)
    return tuple(returns)


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
