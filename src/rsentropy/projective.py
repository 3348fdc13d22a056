"""Canonical points of the Riemann sphere and the chordal metric.

A point is stored by a canonical homogeneous representative: unit Euclidean
norm, with the first nonzero coordinate (h0 preferred) real and positive.
The metric is the chordal distance without the conventional factor 2, so the
sphere has diameter exactly 1; every separation radius in the package lives
in (0, 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroVector

#: default coordinatewise comparison tolerance for canonical representatives
DEFAULT_TOL = 1e-12

#: below this ratio |h0|/|h1| the representative is snapped to [0 : 1]
SNAP_RATIO = 1e-14


@dataclass(frozen=True, slots=True)
class ProjPoint:
    """A point of the sphere in canonical homogeneous coordinates."""

    h0: complex
    h1: complex

    def affine(self) -> complex:
        """The chart value h0/h1; raises ZeroDivisionError at [1 : 0]."""
        return self.h0 / self.h1

    def is_infinity(self) -> bool:
        return abs(self.h1) <= DEFAULT_TOL * abs(self.h0)

    def __repr__(self):
        return f"ProjPoint([{self.h0:.6g} : {self.h1:.6g}])"


def normalize(raw_h0: complex, raw_h1: complex) -> ProjPoint:
    """Canonical representative of [raw_h0 : raw_h1].

    Scales to unit norm and removes the phase of the first significant
    coordinate. Near-[0:1] inputs snap exactly to [0 : 1] so that equality
    tests at infinity of the h1 chart stay stable.
    """
    h0 = complex(raw_h0)
    h1 = complex(raw_h1)
    norm = math.hypot(h0.real, h0.imag, h1.real, h1.imag)
    if norm == 0.0:
        raise ZeroVector("cannot normalize the zero vector")
    u0 = h0 / norm
    u1 = h1 / norm
    a0 = abs(u0)
    if a0 < SNAP_RATIO * abs(u1):
        return ProjPoint(complex(0.0, 0.0), complex(1.0, 0.0))
    phase = u0 / a0
    w1 = u1 * phase.conjugate()
    return ProjPoint(complex(a0, 0.0), w1)


def point_at(z) -> ProjPoint:
    """Canonical point for an affine value, with 'inf' for [1 : 0]."""
    if z == "inf" or (isinstance(z, float) and math.isinf(z)):
        return normalize(1.0, 0.0)
    return normalize(complex(z), 1.0)


INFINITY = ProjPoint(complex(1.0, 0.0), complex(0.0, 0.0))


def chordal_dist(p: ProjPoint, q: ProjPoint) -> float:
    """Chordal distance |p0 q1 - p1 q0| / (|p| |q|), in [0, 1]."""
    return min(abs(p.h0 * q.h1 - p.h1 * q.h0), 1.0)


def point_order(p: ProjPoint) -> tuple:
    """The sort key of points: h0, then h1's real and imaginary parts (a
    canonical h0 is real)."""
    return (p.h0.real, p.h1.real, p.h1.imag)


def sample_points(count: int, seed: int) -> list[ProjPoint]:
    """Deterministic, approximately uniform sample of the sphere.

    Normalized complex Gaussian pairs are uniform for the rotation-invariant
    measure. A point within 1e-10 in chordal distance of an earlier one is
    rejected and redrawn (a vanishing-probability event kept for contract
    hygiene).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    sample = NearPoints(1e-10)
    while len(sample.points) < count:
        raw = rng.standard_normal(4)
        pt = normalize(complex(raw[0], raw[1]), complex(raw[2], raw[3]))
        sample.index_of(pt)
    return sample.points


class NearPoints:
    """Points found up to the chordal tolerance through a grid on the sphere.

    The chordal distance of two points is half the distance of their Bloch
    vectors, so a point within tol of another lies within 2 tol of it in
    every Bloch coordinate; with cells of that side, widened for rounding,
    it lies in one of the 27 cells around the other.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.side = 2.0 * tol * (1.0 + 1e-9) + 1e-12
        self.points: list[ProjPoint] = []
        self.cells: dict[tuple, list[int]] = {}

    def _cell(self, p: ProjPoint) -> tuple:
        a0, a1 = abs(p.h0) ** 2, abs(p.h1) ** 2
        cross = 2.0 * p.h0 * p.h1.conjugate()
        return tuple(math.floor(v / (a0 + a1) / self.side)
                     for v in (cross.real, cross.imag, a0 - a1))

    def find(self, p: ProjPoint) -> int | None:
        """The lowest index of a point within tol of p, or None."""
        x, y, z = self._cell(p)
        return min((i for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
                    for i in self.cells.get((x + dx, y + dy, z + dz), ())
                    if chordal_dist(p, self.points[i]) <= self.tol), default=None)

    def index_of(self, p: ProjPoint) -> int:
        """find(p), after adding p when no point lies within tol of it."""
        idx = self.find(p)
        return self.add(p) if idx is None else idx

    def add(self, p: ProjPoint) -> int:
        self.cells.setdefault(self._cell(p), []).append(len(self.points))
        self.points.append(p)
        return len(self.points) - 1


def ring_around(center: ProjPoint, radius: float, count: int) -> list[ProjPoint]:
    """Points at chordal distance ``radius`` from ``center``.

    Built by rotating a ring around [0 : 1] with the unitary whose second
    column is the center. Requires 0 < radius < 1.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    a, b = center.h0, center.h1
    # columns ((b~, a), (-a~, b)) send [0:1] to center and are unitary
    w = radius / math.sqrt(1.0 - radius * radius)
    ring = []
    for k in range(count):
        z = w * cmath.exp(2j * math.pi * k / count)
        ring.append(normalize(
            b.conjugate() * z + a,
            -a.conjugate() * z + b,
        ))
    return ring
