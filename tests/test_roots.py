"""The numeric root finder and ``preimages``: the branches of
``aberth_roots``, and both functions bit for bit against their first,
closure-based forms (``reference_aberth_roots``, ``reference_preimages``)."""

import numpy as np
import pytest

import rsentropy as rs
from rsentropy import coincidence, orbits, polynomial, ratmap
from rsentropy.errors import RootFindingFailure
from rsentropy.polynomial import aberth_roots
from util import (
    QUAD5,
    THREE_GENERATORS,
    Z2,
    Z3,
    random_exact_map,
    reference_aberth_roots,
    reference_preimages,
    same_bits,
)

def _outcome(fn, *args):
    """fn(*args), or the type of the RootFindingFailure it raised."""
    try:
        return fn(*args)
    except RootFindingFailure:
        return RootFindingFailure


def assert_same_roots(coeffs):
    got, want = _outcome(aberth_roots, coeffs), _outcome(reference_aberth_roots, coeffs)
    if want is RootFindingFailure:
        assert got is RootFindingFailure
    else:
        assert same_bits(got, want), coeffs


def assert_same_preimages(f, q):
    got, want = _outcome(ratmap.preimages, f, q), _outcome(reference_preimages, f, q)
    if want is RootFindingFailure:
        assert got is RootFindingFailure
        return
    assert [m for _, m in got] == [m for _, m in want]
    assert same_bits([p.h0 for p, _ in got], [p.h0 for p, _ in want])
    assert same_bits([p.h1 for p, _ in got], [p.h1 for p, _ in want])


# -- the branches of aberth_roots ------------------------------------------------


@pytest.mark.parametrize("coeffs", ([], [3], [0], [0, 0, 0], [2j, 0, 0]))
def test_constant_and_zero_polynomials_have_no_roots(coeffs):
    assert aberth_roots(coeffs) == []


def test_degree_one_is_solved_in_closed_form():
    assert aberth_roots([2, 4]) == [-0.5 + 0j]
    assert same_bits(aberth_roots([1j, 2]), [-(1j) / (2 + 0j)])


def test_trailing_zero_coefficients_are_trimmed():
    roots = aberth_roots([-2, 0, 1, 0, 0])
    assert same_bits(roots, aberth_roots([-2, 0, 1]))
    assert sorted(z.real for z in roots) == pytest.approx([-2 ** 0.5, 2 ** 0.5])


@pytest.mark.parametrize("m", (2, 3, 5))
def test_the_multiple_root_of_a_monomial_is_localized(m):
    roots = aberth_roots([0] * m + [1])
    assert len(roots) == m
    # localized far inside the 1e-7 cluster radius of preimages
    assert max(abs(z) for z in roots) < 1e-8


def test_too_few_sweeps_raise(monkeypatch):
    coeffs = [1, -2j, 3, 0.5, -1, 1]
    assert len(aberth_roots(coeffs)) == 5
    monkeypatch.setattr(polynomial, "ABERTH_MAX_SWEEPS", 1)
    with pytest.raises(RootFindingFailure):
        aberth_roots(coeffs)


def test_root_finding_refuses_a_zero_form_and_roots_that_miss(monkeypatch):
    with pytest.raises(RootFindingFailure, match="zero form"):
        polynomial.strip_infinite_roots([0j, 0j])
    roots = ratmap.aberth_roots
    monkeypatch.setattr(ratmap, "aberth_roots", lambda coeffs: [z + 0.1 for z in roots(coeffs)])
    with pytest.raises(RootFindingFailure, match="preimage residual check failed"):
        rs.preimages(Z2, rs.sample_points(1, 0)[0])


# -- bit for bit against the reference forms --------------------------------------


def _tree_calls(c, nu, monkeypatch):
    """Every (map, head) that preimages gets while the tree of c from the
    README seed's terminal grows to depth nu, and every polynomial that it
    hands to aberth_roots."""
    calls, polys = [], []
    preimages, roots = ratmap.preimages, ratmap.aberth_roots
    monkeypatch.setattr(orbits, "preimages",
                        lambda f, q: calls.append((f, q)) or preimages(f, q))
    monkeypatch.setattr(ratmap, "aberth_roots",
                        lambda coeffs: polys.append(list(coeffs)) or roots(coeffs))
    rs.preimage_tree_levels(rs.build_correspondence(rs.GeneratorSet(c)),
                            rs.sample_points(1, 42 + 9001)[0], nu)
    monkeypatch.undo()
    return calls, polys


@pytest.mark.parametrize("maps, nu", (([Z2, Z3], 4), (QUAD5, 3)), ids=("readme", "quad5"))
def test_tree_inputs_keep_their_bits(maps, nu, monkeypatch):
    calls, polys = _tree_calls(maps, nu, monkeypatch)
    assert len(calls) == len(polys) == len(maps) * sum(
        sum(f.degree for f in maps) ** k for k in range(nu))
    for f, q in calls:
        assert_same_preimages(f, q)
    for coeffs in polys:
        assert_same_roots(coeffs)


@pytest.mark.parametrize("gens", (rs.GeneratorSet([Z2, Z3]), THREE_GENERATORS),
                         ids=("readme", "three"))
def test_cross_forms_keep_their_bits(gens, monkeypatch):
    # each cross form whole, multiple roots and all, and each polynomial
    # that the coincidence search solves after deflating it
    crosses, polys = [], []
    cross_roots, roots = coincidence._cross_roots, coincidence.aberth_roots
    monkeypatch.setattr(coincidence, "_cross_roots", lambda cross, scale, ok: crosses.append(
        [complex(x / scale, y / scale) for x, y in reversed(cross)]) or cross_roots(cross, scale, ok))
    monkeypatch.setattr(coincidence, "aberth_roots",
                        lambda coeffs: polys.append(list(coeffs)) or roots(coeffs))
    rs.coincidence_set(gens)
    monkeypatch.undo()
    assert crosses
    for coeffs in crosses + polys:
        assert_same_roots(coeffs)


def _random_form(rng, n):
    """Descending coefficients of a degree 1..8 form: generic, degree
    deficient, a monomial z^m, or with a double root, by n mod 4."""
    d = int(rng.integers(1, 9))
    kind = n % 4
    if kind == 2:
        return [1] + [0] * d
    if kind == 3 and d >= 2:
        z = complex(*rng.standard_normal(2))
        return list(np.poly([z, z] + [complex(*rng.standard_normal(2))
                                      for _ in range(d - 2)]))
    form = list(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
    if kind == 1:
        form[:int(rng.integers(1, d + 1))] = []
        form = [0j] * (d + 1 - len(form)) + form
    return form


def test_random_forms_keep_their_bits():
    rng = np.random.default_rng(20_260_419)
    for n in range(200):
        assert_same_roots(list(reversed(_random_form(rng, n))))


def test_random_maps_keep_their_preimage_bits():
    # generic targets and the image of infinity, whose cross form is
    # degree deficient
    rng = np.random.default_rng(7)
    for _ in range(40):
        f = random_exact_map(rng, max_degree=4)
        for q in rs.sample_points(3, int(rng.integers(1 << 30))) + [
                ratmap.evaluate(f, rs.INFINITY)]:
            assert_same_preimages(f, q)


@pytest.mark.parametrize("f", QUAD5 + [Z3, rs.make_map([2, 0, -1], [0, 0, 1])])
def test_critical_values_keep_their_preimage_bits(f):
    # f(0) and f(inf) = inf are critical values of these polynomials: a
    # double (or triple) root, and a degree-d deficiency
    for q in (ratmap.evaluate(f, rs.point_at(0)), rs.INFINITY):
        assert_same_preimages(f, q)
        assert max(m for _, m in ratmap.preimages(f, q)) > 1
