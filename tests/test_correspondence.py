import tracemalloc

import numpy as np
import pytest

import rsentropy as rs
from rsentropy import correspondence, gaussian, polynomial
from rsentropy.errors import BudgetExceeded, DuplicateGenerator, LengthMismatch
from util import Z2, Z3, Z4, monomial, reference_ledger, reference_make_map, word_map


def test_build_correspondence_basic():
    c = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))
    assert len(c.components) == 2 and c.M == 2


def test_build_correspondence_doubled():
    c = rs.build_correspondence(rs.GeneratorSet([Z2]), [2])
    assert c.M == 2
    assert rs.d_top(c) == 4
    assert rs.support_degree(c) == 2


def test_duplicate_generator_rejected():
    with pytest.raises(DuplicateGenerator):
        rs.GeneratorSet([Z2, Z3, rs.make_map([2, 0, 0], [0, 0, 2])])
    with pytest.raises(ValueError, match="at least one map"):
        rs.GeneratorSet([])


def test_multiplicity_length_checked():
    with pytest.raises(LengthMismatch):
        rs.build_correspondence(rs.GeneratorSet([Z2, Z3]), [1])


def test_compose_corr_monomials():
    a = rs.build_correspondence(rs.GeneratorSet([Z2]))
    b = rs.build_correspondence(rs.GeneratorSet([Z3]))
    c = rs.compose_corr(a, b)
    assert len(c.components) == 1
    f, m = c.components[0]
    assert m == 1 and rs.maps_equal(f, monomial(6))


def test_compose_corr_relation_multiplicity():
    c = rs.build_correspondence(rs.GeneratorSet([Z2, Z4]))
    sq = rs.compose_corr(c, c)
    profile = [(f.degree, m) for f, m in sq.components]
    assert profile == [(4, 1), (8, 2), (16, 1)]
    assert rs.d_top(sq) == 36 == rs.d_top(c) ** 2
    assert rs.support_degree(sq) == 28 < 36


def test_compose_corr_free_pair():
    z2p1 = rs.from_affine([1, 0, 1], [1])
    c = rs.build_correspondence(rs.GeneratorSet([Z2, z2p1]))
    sq = rs.compose_corr(c, c)
    assert [m for _, m in sq.components] == [1, 1, 1, 1]


@pytest.mark.parametrize("mults", [[1.5], [2.0], [True]], ids=["fraction", "integral-float", "bool"])
def test_a_non_integer_multiplicity_is_refused_not_truncated(mults):
    with pytest.raises(ValueError, match="multiplicities must be positive integers"):
        rs.build_correspondence(rs.GeneratorSet([Z2]), mults)


def test_numpy_integer_multiplicities_and_lengths_are_integers():
    c = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]), np.array([2, 1]))
    assert [m for _, m in c.components] == [2, 1] and rs.d_top(c) == 7
    assert all(type(m) is int for _, m in c.components)
    assert rs.d_top(rs.corr_pow(c, np.int64(2))) == 49
    assert rs.enumerate_words(rs.GeneratorSet([Z2, Z3]), np.int64(2)).distinct == 3


@pytest.mark.parametrize("nu", [2.5, 2.0, True], ids=["fraction", "integral-float", "bool"])
def test_a_non_integer_length_is_refused(nu):
    c = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))
    with pytest.raises(ValueError, match="nu must be >= 1"):
        rs.corr_pow(c, nu)
    with pytest.raises(ValueError, match="nu must be >= 1"):
        rs.enumerate_words(rs.GeneratorSet([Z2, Z3]), nu)


def test_float_generators_merge_equal_composites_like_their_exact_twin():
    # 1.0 z^2 and 1.0 z^3 are dyadic, so their composites equal the exact
    # ones; equal composites merge for them too, and merging cannot change
    # M, d_top or the support degree
    floats = rs.build_correspondence(rs.GeneratorSet([
        rs.make_map([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
        rs.make_map([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0])]))
    exact = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))
    for power, twin in ((rs.corr_pow(floats, 3), rs.corr_pow(exact, 3)),
                        (rs.compose_corr(floats, floats), rs.compose_corr(exact, exact))):
        assert not any(f.exact_coeffs for f, _ in power.components)
        assert ([(f.pairs, f.scale, m) for f, m in power.components]
                == [(f.pairs, f.scale, m) for f, m in twin.components])
        assert ((power.M, rs.d_top(power), rs.support_degree(power))
                == (twin.M, rs.d_top(twin), rs.support_degree(twin)))
    power = rs.corr_pow(floats, 3)
    assert (len(power.components), power.M, rs.d_top(power), rs.support_degree(power)) == (4, 8, 125, 65)


def test_an_exact_and_a_float_map_of_equal_value_are_two_components_of_one_support():
    # z^3 and 1.0 z^3 are equal in value but not as maps: their composites
    # after z^2 stay two components, and the support counts z^6 once
    z3_float = rs.make_map([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0])
    both = rs.Correspondence(components=((Z3, 1), (z3_float, 1)))
    c = rs.compose_corr(rs.build_correspondence(rs.GeneratorSet([Z2])), both)
    assert len(c.components) == 2
    assert [f.exact_coeffs for f, _ in c.components] == [True, False]
    assert all(rs.maps_equal(f, monomial(6)) for f, _ in c.components)
    assert (rs.d_top(c), rs.support_degree(c)) == (12, 6)


def test_d_top_examples():
    assert rs.d_top(rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))) == 5
    assert rs.support_degree(rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))) == 5


def test_d_top_multiplicative_on_random_powers():
    c = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))
    for nu in (2, 3):
        assert rs.d_top(rs.corr_pow(c, nu)) == rs.d_top(c) ** nu


def test_support_degree_vs_relations():
    c = rs.build_correspondence(rs.GeneratorSet([Z2, Z4]))
    gens = rs.GeneratorSet([Z2, Z4])
    for nu in (1, 2, 3, 4):
        power = rs.corr_pow(c, nu) if nu > 1 else c
        ledger = rs.enumerate_words(gens, nu)
        strict = rs.support_degree(power) < rs.d_top(c) ** nu
        has_relation = any(
            rs.enumerate_words(gens, k).relations > 0 for k in range(1, nu + 1)
        )
        assert rs.support_degree(power) <= rs.d_top(c) ** nu
        assert strict == has_relation
        # the word ledger at length nu matches the composed component multiset
        by_map = {f: m for f, m in power.components}
        assert len(by_map) == ledger.distinct
        for word, (mult, _) in ledger.entries.items():
            assert by_map[word_map(gens.maps, word)] == mult


def test_enumerate_words_examples():
    # monomial generators commute (z^a o z^b = z^(ab)), so {z^2, z^3} already
    # carries one length-2 relation; a free pair needs a non-monomial member
    mono = rs.enumerate_words(rs.GeneratorSet([Z2, Z3]), 2)
    assert mono.distinct == 3 and mono.relations == 1

    z2p1 = rs.from_affine([1, 0, 1], [1])
    free = rs.enumerate_words(rs.GeneratorSet([Z2, z2p1]), 2)
    assert free.distinct == 4 and free.relations == 0

    rel = rs.enumerate_words(rs.GeneratorSet([Z2, Z4]), 2)
    assert rel.distinct == 3 and rel.relations == 1
    assert rel.total_words == 4

    single = rs.enumerate_words(rs.GeneratorSet([Z2]), 5)
    assert single.distinct == 1
    (mult, words), = single.entries.values()
    assert mult == 1 and len(words) == 1
    assert single.entries == {(1,) * 5: (1, ((1,) * 5,))} and single.related == ()


CHEBYSHEV_T2 = rs.make_map([2, 0, -1], [0, 0, 1])
CHEBYSHEV_T3 = rs.make_map([4, 0, -3, 0], [0, 0, 0, 1])


def test_chebyshev_maps_commute_exactly():
    t6 = rs.make_map([32, 0, -48, 0, 18, 0, -1], [0, 0, 0, 0, 0, 0, 1])
    t3_t2 = rs.compose(CHEBYSHEV_T3, CHEBYSHEV_T2)
    assert t3_t2 == rs.compose(CHEBYSHEV_T2, CHEBYSHEV_T3) == t6
    assert [c.literal() for c in t3_t2.num] == ["1", "0", "-3/2", "0", "9/16", "0", "-1/32"]
    assert [c.literal() for c in t3_t2.den] == ["0"] * 6 + ["1/32"]


def test_commuting_words_share_one_ledger_entry():
    t3_t2 = rs.compose(CHEBYSHEV_T3, CHEBYSHEV_T2)
    t2_t3 = rs.compose(CHEBYSHEV_T2, CHEBYSHEV_T3)
    assert t3_t2 is not t2_t3 and len({t3_t2, t2_t3}) == 1
    ledger = rs.enumerate_words(rs.GeneratorSet([CHEBYSHEV_T2, CHEBYSHEV_T3]), 2)
    assert ledger.entries[(1, 2)] == (2, ((1, 2), (2, 1)))
    assert ledger.related == ((t3_t2, ((1, 2), (2, 1))),)
    assert (ledger.total_words, ledger.distinct, ledger.relations) == (4, 3, 1)


def test_chebyshev_ledger_at_length_4():
    # T_a o T_b = T_ab, so a word with k letters T3 composes to T_(2^(4-k) 3^k)
    gens = rs.GeneratorSet([CHEBYSHEV_T2, CHEBYSHEV_T3])
    ledger = rs.enumerate_words(gens, 4)
    assert (ledger.total_words, ledger.distinct, ledger.relations) == (16, 5, 11)
    profile = sorted((word_map(gens.maps, word).degree, mult)
                     for word, (mult, _) in ledger.entries.items())
    assert profile == [(16, 1), (24, 4), (36, 6), (54, 4), (81, 1)]


def test_enumerate_words_total_is_power():
    ledger = rs.enumerate_words(rs.GeneratorSet([Z2, Z3]), 3)
    assert sum(m for m, _ in ledger.entries.values()) == 2 ** 3


def test_enumerate_words_budget():
    with pytest.raises(BudgetExceeded):
        rs.enumerate_words(rs.GeneratorSet([Z2, Z3]), 4, word_budget=10)
    with pytest.raises(BudgetExceeded):
        rs.enumerate_words(rs.GeneratorSet([Z2, Z3]), 10, degree_budget=100)


@pytest.mark.parametrize("nu", [0, -1])
def test_enumerate_words_refuses_a_length_below_one(nu):
    # exact and float generators alike, before any word is composed
    exact = rs.GeneratorSet([Z2, Z3])
    inexact = rs.GeneratorSet([rs.make_map([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
                               rs.make_map([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0])])
    assert not inexact.exact
    for gens in (exact, inexact):
        with pytest.raises(ValueError, match="nu must be >= 1"):
            rs.enumerate_words(gens, nu)


def test_inexact_generators_disable_relation_detection():
    f = rs.make_map([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    g = rs.make_map([1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0])
    ledger = rs.enumerate_words(rs.GeneratorSet([f, g]), 2)
    assert not ledger.exact
    assert ledger.relations is None
    assert ledger.distinct == 4  # every word its own entry


def test_the_ledger_builds_no_gaussian_rational_once_the_generators_exist(monkeypatch):
    # a map is its Gaussian-integer form: composing, the coprimality
    # certificates (a constant denominator, Euclid mod a prime), hashing and
    # sorting all run on ints. Every GaussianRational is made by _make
    free = rs.GeneratorSet([rs.make_map([1, 0, -1], [0, 0, 1]),
                            rs.make_map(["1/2", 0, rs.GaussianRational(0, "1/2")], [0, 0, 1])])
    rational = rs.GeneratorSet([rs.make_map([1, 0, 0], [-1, 0, 1]),
                                rs.make_map([1, 0, 0, 0], [-1, 0, 0, 1])])
    made = []
    make = gaussian._make

    def counting(a, b, d):
        made.append((a, b, d))
        return make(a, b, d)

    monkeypatch.setattr(gaussian, "_make", counting)
    assert rs.GaussianRational("1/2").literal() == "1/2" and made  # the count sees a scalar made
    made.clear()
    ledger = rs.enumerate_words(free, 6)
    assert (ledger.total_words, ledger.distinct, ledger.relations) == (64, 64, 0)
    ledger = rs.enumerate_words(rational, 4)
    assert (ledger.total_words, ledger.distinct, ledger.relations) == (16, 16, 0)
    # the Chebyshev pair's words collide, so its ledger composes
    ledger = rs.enumerate_words(rs.GeneratorSet([CHEBYSHEV_T2, CHEBYSHEV_T3]), 5)
    assert (ledger.total_words, ledger.distinct, ledger.relations) == (32, 6, 26)
    assert made == []


FREE_PAIR = (rs.make_map([1, 0, -1], [0, 0, 1]),
             rs.make_map(["1/2", 0, rs.GaussianRational(0, "1/2")], [0, 0, 1]))
RATIONAL_PAIR = (rs.make_map([1, 0, 0], [-1, 0, 1]),
                 rs.make_map([1, 0, 0, 0], [-1, 0, 0, 1]))


I = rs.GaussianRational(0, 1)
MOBIUS_PAIR = (rs.make_map([I, 0], [0, 1]), rs.make_map([-1, 0], [0, 1]))
#: z, z/p and p z for the fingerprint prime p: the words (2, 3) and (3, 2)
#: are z, yet both forms of each vanish mod p at every point, so their
#: fingerprints are undefined while the word (1, 1), also z, has one
PRIME_SCALINGS = (rs.make_map([1, 0], [0, 1]),
                  rs.make_map([1, 0], [0, polynomial.CERT_PRIME]),
                  rs.make_map([polynomial.CERT_PRIME, 0], [0, 1]))

LEDGER_SETS = [
    ((CHEBYSHEV_T2, CHEBYSHEV_T3), 4),
    (FREE_PAIR, 4),
    (RATIONAL_PAIR, 3),
    ((Z2, Z3), 3),
    ((Z2, Z4), 4),
    (MOBIUS_PAIR, 4),
    (PRIME_SCALINGS, 3),
]
LEDGER_IDS = ["chebyshev", "free", "rational", "z2-z3", "z2-z4", "mobius", "prime-scalings"]


def assert_reference_ledger(maps, nu, ledger):
    """entries, multiplicities, the order of each entry's witness words and
    the related maps against the word-by-word oracle, which composes each
    word on its own without the library's form_mul"""
    want = reference_ledger([reference_make_map(f.num, f.den) for f in maps], nu)
    assert ledger.exact and ledger.total_words == len(maps) ** nu
    assert ledger.entries == dict(sorted((words[0], (m, words)) for m, words in want.values()))
    assert list(ledger.entries) == sorted(ledger.entries)
    related = sorted(((h, words) for h, (m, words) in want.items() if m > 1),
                     key=lambda hw: hw[0].sort_key())
    assert ([(f.num, f.den, words) for f, words in ledger.related]
            == [(h.num, h.den, words) for h, words in related])
    # each class's first word composes to the oracle's map of the class
    for h, (_, words) in want.items():
        f = word_map(maps, words[0])
        assert (f.num, f.den) == (h.num, h.den)
    return want


@pytest.mark.parametrize("maps, nu", LEDGER_SETS, ids=LEDGER_IDS)
def test_shared_power_tables_match_word_by_word_reference_compose(maps, nu):
    # enumerate_words and corr_pow run one walk, which builds each level
    # map's powers once for every outer component
    want = assert_reference_ledger(maps, nu, rs.enumerate_words(rs.GeneratorSet(maps), nu))
    power = rs.corr_pow(rs.build_correspondence(rs.GeneratorSet(maps)), nu)
    assert ([(f.num, f.den, m) for f, m in power.components]
            == [(h.num, h.den, m) for h, (m, _) in
                sorted(want.items(), key=lambda item: item[0].sort_key())])


def test_an_undefined_fingerprint_sends_every_word_of_its_degree_to_the_walk():
    # (1, 1) is alone in its fingerprint class, but its map z is also the
    # map of (2, 3) and (3, 2), whose fingerprints are undefined
    gens = rs.GeneratorSet(PRIME_SCALINGS)
    _, final = correspondence._fingerprint_walk(gens, 2)
    assert final[(1, (2, 3))] == (1, (1, 1))
    assert final[(1, None)] == (2, (2, 3))
    ledger = rs.enumerate_words(gens, 2)
    assert ledger.entries[(3, 2)] == (3, ((3, 2), (1, 1), (2, 3)))
    assert (ledger.distinct, ledger.relations) == (5, 4)


def counted_composes(monkeypatch):
    """The (outer, inner) maps of every composition the walk makes."""
    calls = []
    compose = correspondence.compose

    def counting(g, f, powers=None):
        calls.append((g, f))
        return compose(g, f, powers)

    monkeypatch.setattr(correspondence, "compose", counting)
    return calls


def test_the_ledger_composes_only_inside_colliding_fingerprint_classes(monkeypatch):
    calls = counted_composes(monkeypatch)
    # no two words of the free or the rational pair share a fingerprint
    ledger = rs.enumerate_words(rs.GeneratorSet(FREE_PAIR), 6)
    assert (ledger.distinct, ledger.relations, ledger.related) == (64, 0, ())
    ledger = rs.enumerate_words(rs.GeneratorSet(RATIONAL_PAIR), 8)
    assert (ledger.distinct, ledger.relations, ledger.related) == (256, 0, ())
    assert calls == []
    # Chebyshev at 5: the walk over its 6 distinct maps makes 2 (2 + 3 + 4 + 5)
    # = 28 compositions, less T2^5 and T3^5, each alone in its class
    ledger = rs.enumerate_words(rs.GeneratorSet([CHEBYSHEV_T2, CHEBYSHEV_T3]), 5)
    assert (ledger.distinct, ledger.relations) == (6, 26)
    assert len(calls) == 26
    assert ledger.entries[(1,) * 5] == (1, ((1,) * 5,))
    assert ledger.entries[(2,) * 5] == (1, ((2,) * 5,))


def test_the_degree_budget_bounds_only_the_maps_the_ledger_builds(monkeypatch):
    calls = counted_composes(monkeypatch)
    # the rational pair's 512 words at length 9 reach degree 3^9 > 10^4, but
    # their fingerprints tell them apart, so no map is built and none refused
    ledger = rs.enumerate_words(rs.GeneratorSet(RATIONAL_PAIR), 9)
    assert (ledger.total_words, ledger.distinct, ledger.relations) == (512, 512, 0)
    assert calls == []
    # the Chebyshev pair's largest colliding class at 9 is 2 * 3^8, refused
    # before any composition
    with pytest.raises(BudgetExceeded, match="composed degree 13122 exceeds 10000"):
        rs.enumerate_words(rs.GeneratorSet([CHEBYSHEV_T2, CHEBYSHEV_T3]), 9)
    assert calls == []


@pytest.mark.parametrize("maps, nu", LEDGER_SETS, ids=LEDGER_IDS)
def test_a_planted_false_collision_still_gives_the_exact_ledger(maps, nu, monkeypatch):
    # every point steps to 0, so all words of one degree share a fingerprint
    monkeypatch.setattr(correspondence, "_step_mod_p", lambda coeffs, degree, points: (0, 0))
    calls = counted_composes(monkeypatch)
    assert_reference_ledger(maps, nu, rs.enumerate_words(rs.GeneratorSet(maps), nu))
    assert calls


@pytest.mark.parametrize("maps, nu", LEDGER_SETS, ids=LEDGER_IDS)
def test_a_planted_undefined_step_still_gives_the_exact_ledger(maps, nu, monkeypatch):
    # the first generator's step from the fingerprint points is undefined,
    # so every word that starts with it has no fingerprint
    step = correspondence._step_mod_p
    first = polynomial.pairs_mod_p(maps[0].pairs)

    def planted(coeffs, degree, points):
        if coeffs == first and points == correspondence.FINGERPRINT_POINTS:
            return None
        return step(coeffs, degree, points)

    monkeypatch.setattr(correspondence, "_step_mod_p", planted)
    _, final = correspondence._fingerprint_walk(rs.GeneratorSet(maps), nu)
    assert sum(count for (_, points), (count, _) in final.items() if points is None) >= (
        len(maps) ** (nu - 1))
    assert_reference_ledger(maps, nu, rs.enumerate_words(rs.GeneratorSet(maps), nu))


def test_the_walk_keeps_no_power_table_past_its_level():
    # a level map's power table lives for its inner loop: at length 5 the
    # rational pair's traced peak is about 1.1 times what the returned
    # iterate holds, and about 2.0 times when every table is kept to the end
    c = rs.build_correspondence(rs.GeneratorSet(RATIONAL_PAIR))
    tracemalloc.start()
    try:
        power = rs.corr_pow(c, 5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(power.components), power.M) == (32, 32)
    assert peak <= 1.5 * held
