import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

import rsentropy as rs
from rsentropy.errors import ZeroVector
from util import apply_unitary, random_unitary


def test_normalize_scaling():
    p = rs.normalize(2, 0)
    assert p.h0 == 1.0 and p.h1 == 0.0


def test_normalize_phase_removal():
    p = rs.normalize(0, 3j)
    assert p.h0 == 0.0 and p.h1 == 1.0


def test_normalize_zero_vector():
    with pytest.raises(ZeroVector):
        rs.normalize(0, 0)


@pytest.mark.parametrize("radius", [0.0, 1.0])
def test_a_ring_needs_a_radius_inside_0_1(radius):
    with pytest.raises(ValueError, match="radius must lie in"):
        rs.projective.ring_around(rs.sample_points(1, 0)[0], radius, 4)


def test_normalize_against_50_digit_oracle():
    # canonicalize (1+i, 1-i) at 50 digits and compare coordinatewise
    mpmath.mp.dps = 50
    a = mpmath.mpc(1, 1)
    b = mpmath.mpc(1, -1)
    norm = mpmath.sqrt(abs(a) ** 2 + abs(b) ** 2)
    u0, u1 = a / norm, b / norm
    phase = u0 / abs(u0)
    h0 = abs(u0)
    h1 = u1 * mpmath.conj(phase)

    p = rs.normalize(1 + 1j, 1 - 1j)
    assert abs(p.h0 - complex(h0)) < 1e-12
    assert abs(p.h1 - complex(h1)) < 1e-12
    assert abs(abs(p.h0) ** 2 + abs(p.h1) ** 2 - 1.0) < 1e-14
    assert p.h0.real > 0 and abs(p.h0.imag) < 1e-14
    # the projective class is preserved: affine value must equal (1+i)/(1-i) = i
    assert abs(p.h0 / p.h1 - complex(a / b)) < 1e-12


def test_chordal_examples():
    p = rs.point_at(1)
    assert rs.chordal_dist(p, p) == 0.0
    assert rs.chordal_dist(rs.normalize(1, 0), rs.normalize(0, 1)) == 1.0
    d = rs.chordal_dist(rs.normalize(1, 1), rs.normalize(1, -1))
    assert abs(d - 1.0) < 1e-12


def test_chordal_canonical_agreement():
    # two canonical representatives of one projective class coincide
    rng = np.random.default_rng(0)
    for _ in range(200):
        raw = rng.standard_normal(4)
        scale = complex(*rng.standard_normal(2))
        p = rs.normalize(complex(raw[0], raw[1]), complex(raw[2], raw[3]))
        q = rs.normalize(scale * complex(raw[0], raw[1]), scale * complex(raw[2], raw[3]))
        assert abs(p.h0 - q.h0) < 1e-12 and abs(p.h1 - q.h1) < 1e-12


def test_metric_axioms_sampled():
    pts = rs.sample_points(600, 11)
    rng = np.random.default_rng(12)
    for _ in range(2000):
        i, j, k = rng.integers(0, len(pts), size=3)
        a, b, c = pts[i], pts[j], pts[k]
        assert rs.chordal_dist(a, b) == rs.chordal_dist(b, a)
        assert rs.chordal_dist(a, c) <= rs.chordal_dist(a, b) + rs.chordal_dist(b, c) + 1e-12
        assert 0.0 <= rs.chordal_dist(a, b) <= 1.0


def test_unitary_invariance():
    pts = rs.sample_points(400, 21)
    rng = np.random.default_rng(22)
    for _ in range(1000):
        i, j = rng.integers(0, len(pts), size=2)
        a, b = random_unitary(rng)
        d0 = rs.chordal_dist(pts[i], pts[j])
        d1 = rs.chordal_dist(
            apply_unitary(a, b, pts[i]),
            apply_unitary(a, b, pts[j]),
        )
        assert abs(d0 - d1) < 1e-10


def test_sample_points_determinism_and_count():
    assert len(rs.sample_points(1, 5)) == 1
    a = rs.sample_points(1000, 42)
    b = rs.sample_points(1000, 42)
    assert all(p.h0 == q.h0 and p.h1 == q.h1 for p, q in zip(a, b))


def test_sample_points_uniform_mean_distance():
    # exact mean chordal distance to a fixed point under the uniform measure:
    # d = sin(theta/2) against density sin(theta)/2 integrates to 2/3
    exact, _ = integrate.quad(lambda t: math.sin(t / 2) * 0.5 * math.sin(t), 0, math.pi)
    assert abs(exact - 2.0 / 3.0) < 1e-12
    pts = rs.sample_points(10_000, 7)
    ref = rs.normalize(1, 0)
    mean = sum(rs.chordal_dist(ref, p) for p in pts) / len(pts)
    assert abs(mean - exact) / exact < 0.05
