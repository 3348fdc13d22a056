"""Binary forms as Gaussian-integer pairs, and numeric root finding.

A homogeneous form of degree d in (z0, z1) is a list of d+1 coefficients in
descending z0 order: index k holds the coefficient of z0^(d-k) z1^k. The
exact forms are Gaussian integers, each an (re, im) int pair; a form over
the Gaussian rationals is carried as such pairs over one common
denominator, which moves no root. The affine chart is z = z0/z1, so a
form's pairs are also its affine polynomial's, highest degree first, and a
vanishing index-0 coefficient means a root at [1 : 0]. Exact Euclid over
Q(i) (``pairs_gcd``) runs on such pairs too: every exact computation here
is on ints.

The numeric root finder is a simultaneous (Aberth-Ehrlich) iteration with a
residual stopping rule and one Newton polish per root; companion-matrix
eigenvalues are deliberately left to the test suite as an independent check.
"""

from __future__ import annotations

import cmath
import math
from functools import cache

import numpy as np

from .errors import RootFindingFailure
from .gaussian import canonical

ABERTH_TOL = 1e-12
ABERTH_MAX_SWEEPS = 200

#: a prime p = 1 (mod 4), and a square root s of -1 modulo it: a + bi ->
#: a + b s is then a ring map from the Gaussian integers onto Z/p. p is
#: below 2^31, so a product of two residues fits in an int64
CERT_PRIME = 2147483629
CERT_SQRT_MINUS_1 = 629208553


# -- exact form algebra --------------------------------------------------------


def form_mul(a: list, b: list) -> list:
    """Convolution of Gaussian-integer forms given as (re, im) int pairs.

    A square (``b is a``) is convolved symmetrically: each cross term
    a_i a_j with i < j is taken once and doubled, about half the products
    of a general convolution. Only nonzero terms are multiplied.
    """
    re = [0] * (len(a) + len(b) - 1)
    im = [0] * len(re)
    nonzero_b = [(j, u, v) for j, (u, v) in enumerate(b) if u or v]
    if b is a:
        for k, (i, x, y) in enumerate(nonzero_b):
            re[2 * i] += x * x - y * y
            im[2 * i] += 2 * x * y
            x, y = 2 * x, 2 * y
            for j, u, v in nonzero_b[k + 1:]:
                re[i + j] += x * u - y * v
                im[i + j] += x * v + y * u
        return list(zip(re, im))
    for i, (x, y) in enumerate(a):
        if not (x or y):
            continue
        for j, u, v in nonzero_b:
            re[i + j] += x * u - y * v
            im[i + j] += x * v + y * u
    return list(zip(re, im))


def pairs_eval(pairs: list, z0: tuple, z1: tuple) -> tuple:
    """Horner value of a Gaussian-integer form at Gaussian-integer (z0, z1),
    all given as (re, im) int pairs."""
    x0, y0 = z0
    x1, y1 = z1
    re, im = pairs[0]
    pr, pi = 1, 0  # z1^k
    for cr, ci in pairs[1:]:
        pr, pi = pr * x1 - pi * y1, pr * y1 + pi * x1
        re, im = (re * x0 - im * y0 + cr * pr - ci * pi,
                  re * y0 + im * x0 + cr * pi + ci * pr)
    return re, im


def form_eval_complex(coeffs, z0: complex, z1: complex) -> complex:
    """Horner evaluation of a form given as complex coefficients."""
    acc = coeffs[0]
    zp = 1.0 + 0.0j
    for k in range(1, len(coeffs)):
        zp = zp * z1
        acc = acc * z0 + coeffs[k] * zp
    return acc


# -- univariate Euclid over the Gaussian rationals, on pairs ---------------------


def _drop_leading_zeros(pairs) -> list:
    """The pairs from the first nonzero one on."""
    for k, pair in enumerate(pairs):
        if pair != (0, 0):
            return list(pairs[k:])
    return []


def pairs_divmod(a: list, b: list) -> tuple[list, list]:
    """Pseudo-division of Gaussian-integer polynomials given as (re, im)
    int pairs, highest degree first: (q, r) with s^n a = q b + r, where
    b's lead is the positive int s, as ``canonical`` leaves it, and
    n = len(q) = len(a) - len(b) + 1. r, of lower degree than b, comes
    without its leading zeros."""
    s, m = b[0][0], len(b)
    q, r = [], list(a)
    for k in range(len(a) - m + 1):
        # s r - (x + y*i) z^(len(a) - m - k) b clears the lead r[k] = (x, y)
        x, y = r[k]
        q = [(s * u, s * v) for u, v in q] + [(x, y)]
        r[k:] = ([(s * u - x * p + y * t, s * v - x * t - y * p) for (u, v), (p, t) in zip(r[k:], b)]
                 + [(s * u, s * v) for u, v in r[k + m:]])
    return q, _drop_leading_zeros(r[len(q):])


def pairs_gcd(a: list, b: list) -> tuple:
    """The monic gcd over Q(i) of two polynomials, not both zero, given as
    Gaussian-integer pairs highest degree first, in canonical form: pairs
    over the int s of its first pair (s, 0). A constant gcd is ((1, 0),).

    Euclid's algorithm: each divisor is brought to canonical form, and
    each remainder is a pseudo-remainder, which is a scalar multiple of the
    remainder over Q(i). It stops as soon as a divisor is a nonzero
    constant, whose gcd with anything is 1.
    """
    a, b = _drop_leading_zeros(a), _drop_leading_zeros(b)
    while b:
        if len(b) == 1:
            return ((1, 0),)
        b = canonical(b)[0]
        a, b = b, pairs_divmod(a, b)[1]
    return canonical(a)[0]


def forms_coprime(p: list, q: list) -> bool:
    """True iff the two same-degree Gaussian-integer forms, given as
    (re, im) int pairs, share no projective root.

    A form over the Gaussian rationals is passed as its coefficients over a
    common denominator (as ``lift`` gives them): a nonzero scalar moves no
    root. Shared roots are either the point [1 : 0] (both index-0
    coefficients vanish) or affine (a nonconstant gcd of p(z, 1) and
    q(z, 1) over Q(i)). After the [1 : 0] test, three exact tiers decide
    the affine part, the cheapest first:

    1. If p(z, 1) or q(z, 1) is a nonzero constant, its gcd with anything
       is 1. This decides every polynomial map z -> P(z), whose
       denominator form is c z1^d.
    2. A certificate modulo the prime CERT_PRIME = 1 (mod 4): both forms
       are mapped into Z/p by a + bi -> a + b s with s^2 = -1, a ring map,
       and Euclid runs over Z/p. If one of them keeps its degree mod p and
       the gcd there is a nonzero constant, the forms are coprime. Suppose
       instead C, of degree >= 1, divides both over Q(i). By Gauss's lemma
       C may be taken primitive in Z[i][z], and then it divides both in
       Z[i][z]. So lc(C) divides the leading coefficient of the form that
       kept its degree, the image of C keeps degree >= 1, and it divides
       both images: their gcd mod p is not a constant.
    3. Otherwise (a leading coefficient vanishes mod p, or the images share
       a factor mod p), exact Euclid over Q(i) on the pairs decides, by
       ``pairs_gcd``.

    A True from tier 1 or 2 is a proof and tier 3 is exact, so the result
    is the one the [1 : 0] test and ``pairs_gcd`` alone would give.
    """
    if not any(p[0]) and not any(q[0]):
        return False
    if _affine_constant(p) or _affine_constant(q):
        return True
    a, a_kept = _image_mod_p(p)
    b, b_kept = _image_mod_p(q)
    if (a_kept or b_kept) and _coprime_mod_p(a, b):
        return True
    return len(pairs_gcd(p, q)) == 1


def _affine_constant(pairs: list) -> bool:
    """Whether form(z, 1) is a nonzero constant: only the z1^d coefficient
    is nonzero."""
    return any(pairs[-1]) and pairs.count((0, 0)) == len(pairs) - 1


def pairs_mod_p(pairs) -> list:
    """Gaussian-integer (re, im) pairs mapped into Z/CERT_PRIME by the ring
    map a + bi -> a + b CERT_SQRT_MINUS_1, as residues in [0, p)."""
    return [(a + b * CERT_SQRT_MINUS_1) % CERT_PRIME for a, b in pairs]


def _image_mod_p(pairs: list) -> tuple[np.ndarray, bool]:
    """form(z, 1), mapped into Z/p, as a trimmed ascending int64 row, and
    whether it kept its degree there."""
    image = pairs_mod_p(_drop_leading_zeros(pairs)[::-1])
    kept = bool(image) and image[-1] != 0
    while image and not image[-1]:
        image.pop()
    return np.array(image, dtype=np.int64), kept


def _coprime_mod_p(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the gcd over Z/CERT_PRIME of two trimmed ascending rows is a
    nonzero constant, by Euclid; each division step is one row update."""
    while len(b):
        if len(b) == 1:
            return True
        inv = pow(int(b[-1]), -1, CERT_PRIME)
        db = len(b) - 1
        head = b[:-1]
        r = a.copy()
        n = len(r)
        while n > db:
            factor = int(r[n - 1]) * inv % CERT_PRIME
            r[n - 1 - db:n - 1] = (r[n - 1 - db:n - 1] - factor * head) % CERT_PRIME
            n -= 1
            while n and not r[n - 1]:
                n -= 1
        a, b = b, r[:n]
    return len(a) == 1


# -- numeric root finding --------------------------------------------------------


@cache
def _start_circle(m: int) -> tuple:
    """The unit-circle offsets of the m start values, one per degree."""
    return tuple(cmath.exp(2j * math.pi * (k + 0.35) / m) for k in range(m))


@cache
def _partners(m: int) -> tuple:
    """For each of m roots, the indices of the other m - 1 in ascending order."""
    return tuple(tuple(j for j in range(m) if j != i) for i in range(m))


def aberth_roots(coeffs_ascending) -> list[complex]:
    """All complex roots of an ascending-coefficient polynomial, repeated by
    multiplicity.

    Trailing zero coefficients are dropped: a constant has no roots, and
    degree 1 is solved in closed form. Otherwise a simultaneous third-order
    iteration, one root after another, runs from a deterministic circle of
    start values until no root moves by more than 1e-9 (1 + R), R the start
    radius, and every residual |p(z_k)| is at most ABERTH_TOL
    sum_k |c_k| max(1, |z|)^k; then each root gets one Newton polish.
    RootFindingFailure is raised when, after ABERTH_MAX_SWEEPS sweeps or
    once the iteration stagnates, a residual is still too large.
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
    radius = 1.0 + max([abs(c / lead) for c in coeffs[:-1]])
    center = -coeffs[-2] / (m * lead)
    spread = 0.9 * radius
    roots = [center + spread * e for e in _start_circle(m)]
    # Horner runs from the highest degree down
    desc = coeffs[::-1]
    deriv_desc = [coeffs[k] * k for k in range(m, 0, -1)]
    sizes = list(map(abs, coeffs))
    partners = _partners(m)
    moved_tol, stagnant_tol = 1e-9 * (1.0 + radius), 1e-15 * (1.0 + radius)

    converged = False
    for _ in range(ABERTH_MAX_SWEEPS):
        moved = 0.0
        for i in range(m):
            z = roots[i]
            pz = dz = 0j
            for c in desc:
                pz = pz * z + c
            for c in deriv_desc:
                dz = dz * z + c
            if not dz:
                roots[i] = z + 1e-8 * (1.0 + abs(z))
                moved = math.inf
                continue
            w = pz / dz
            s = 0j
            for j in partners[i]:
                diff = z - roots[j]
                if not diff:
                    diff = 1e-14 * (1.0 + abs(z))
                s += 1.0 / diff
            denom = 1.0 - w * s
            step = w if not denom else w / denom
            roots[i] = z - step
            step = abs(step)
            if step > moved:
                moved = step
        # require localization as well as small residuals: at a multiple
        # root the residual passes while the iterates still straddle it at
        # ~tol^(1/mult), which would defeat the downstream cluster merge
        if moved <= moved_tol and _residuals_ok(roots, desc, sizes):
            converged = True
            break
        if moved <= stagnant_tol:
            break  # stagnated; the residual check below decides
    if not converged and not _residuals_ok(roots, desc, sizes):
        raise RootFindingFailure(
            f"simultaneous iteration did not converge for degree {m}")

    polished = []
    for z in roots:
        dz = 0j
        for c in deriv_desc:
            dz = dz * z + c
        if dz:
            pz = 0j
            for c in desc:
                pz = pz * z + c
            z = z - pz / dz
        polished.append(z)
    return polished


def _residuals_ok(roots, desc, sizes) -> bool:
    """Whether every |p(z)| is at most ABERTH_TOL sum_k |c_k| max(1, |z|)^k.

    The backward-error scale max(1, |z|)^k keeps the test meaningful at
    roots near 0 (e.g. the monomial z^m, where sum |c_k| |z|^k would equal
    |p(z)| identically and certify nothing). ``desc`` holds the
    coefficients from the highest degree down, ``sizes`` their moduli from
    the lowest up.
    """
    for z in roots:
        pz = 0j
        for c in desc:
            pz = pz * z + c
        scale = 0.0
        zp = 1.0
        az = abs(z)
        if az < 1.0:
            az = 1.0
        for a in sizes:
            scale += a * zp
            zp *= az
        if not abs(pz) <= ABERTH_TOL * max(scale, 1e-300):
            return False
    return True


def strip_infinite_roots(coeffs_descending):
    """Split a possibly degree-deficient form into (finite part, inf count).

    Input is a complex coefficient list in descending z0 order; leading
    entries at most 1e-13 of the largest coefficient are treated as exact
    zeros, each contributing one root at [1 : 0].
    """
    biggest = max(map(abs, coeffs_descending))
    if biggest == 0.0:
        raise RootFindingFailure("zero form has no well-defined roots")
    idx = 0
    while idx < len(coeffs_descending) - 1 and abs(coeffs_descending[idx]) <= 1e-13 * biggest:
        idx += 1
    finite = list(coeffs_descending[idx:])
    return finite, idx
