"""Correspondences built from weighted graphs of maps, and word algebra.

A correspondence is a multiset of distinct component maps with positive
integer multiplicities. Its iterates compose component-wise; relations in
the generated semigroup (equal compositions along different words) surface
as multiplicities greater than 1, which is exactly why the topological
degree of the iterate is multiplicative while the degree of the underlying
support relation is not.

The iterate is one walk: each level's maps compose under the outer
components, multiplicities multiply, and equal composites merge by exact
canonical-form equality, for float-entered maps too. Merging equal maps
cannot change M, d_top or the support degree. For general (non-graph)
components the composition rule would need generic fiber counts; for
graphs it reduces to the multiplicity product implemented here.

The word ledger decides first, by fingerprints, which words differ, and
runs that walk only inside the classes that might not. A word's
fingerprint is its degree and its values at FINGERPRINT_POINTS of
P^1(Z/p), p = CERT_PRIME, stepped through the generators' integer forms
mapped into Z/p (``polynomial.pairs_mod_p``); no map is composed. Equal
maps have proportional composed integer forms, F = lambda F' with lambda
in Q(i). Write lambda = a/b with a, b Gaussian integers not both in the
kernel of the ring map into Z/p; then b F(x) = a F'(x) mod p, so wherever
neither value vanishes mod p both sides are nonzero and F(x), F'(x) are
one point of P^1(Z/p). Different fingerprints therefore prove different
maps, and a false collision costs only the composition it sends to the
walk. A word whose value vanishes at a point (an undefined step) has no
fingerprint; it may equal any word of its degree, so it and every word of
that degree go to the walk too. Exact equality still decides every
relation. Generators entered with float coefficients only switch off
relation detection in the ledger: a float-entered map stands for a nearby
exact one, so equality of its composites proves no relation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceeded, DuplicateGenerator, LengthMismatch, positive_int
from .polynomial import CERT_PRIME, pairs_mod_p
from .ratmap import compose, maps_equal, power_table

WORD_BUDGET = 10 ** 6
DEGREE_BUDGET = 10 ** 4

#: the points [2 : 1] and [3 : 1] of P^1(Z/CERT_PRIME) at which a word's
#: fingerprint reads its map; a residue x stands for [x : 1], and the
#: residue CERT_PRIME for [1 : 0]
FINGERPRINT_POINTS = (2, 3)


@dataclass(frozen=True)
class GeneratorSet:
    """N pairwise-distinct maps; the labels are their 1-based positions."""

    maps: tuple

    def __init__(self, maps):
        maps = tuple(maps)
        if not maps:
            raise ValueError("a generator set needs at least one map")
        for i in range(len(maps)):
            for j in range(i + 1, len(maps)):
                if maps_equal(maps[i], maps[j]):
                    raise DuplicateGenerator(
                        f"generators {i} and {j} are equal; use a multiplicity instead")
        object.__setattr__(self, "maps", maps)

    def __len__(self):
        return len(self.maps)

    @property
    def degrees(self) -> tuple:
        return tuple(m.degree for m in self.maps)

    @property
    def exact(self) -> bool:
        return all(m.exact_coeffs for m in self.maps)


@dataclass(frozen=True)
class Correspondence:
    """Sorted components (map, multiplicity) with total multiplicity M."""

    components: tuple  # tuple[(RationalMap, int), ...]

    @property
    def M(self) -> int:
        return sum(m for _, m in self.components)

    def primed(self) -> tuple:
        """Components expanded by multiplicity; index k-1 realizes label k."""
        out = []
        for f, m in self.components:
            out.extend([f] * m)
        return tuple(out)

    def __repr__(self):
        degs = ", ".join(f"{f.degree}^x{m}" for f, m in self.components)
        return f"Correspondence([{degs}])"


def _sorted_components(pairs):
    return tuple(sorted(pairs, key=lambda fm: fm[0].sort_key()))


def build_correspondence(gens: GeneratorSet, mults=None) -> Correspondence:
    """The correspondence sum(m_j * graph(f_j)); mults default to all 1."""
    mults = (1,) * len(gens) if mults is None else tuple(mults)
    if len(mults) != len(gens):
        raise LengthMismatch(
            f"{len(mults)} multiplicities for {len(gens)} generators")
    mults = tuple(positive_int(m, "multiplicities must be positive integers")
                  for m in mults)
    return Correspondence(components=_sorted_components(zip(gens.maps, mults)))


def _step(level, outer, wanted=None) -> dict:
    """One level of the composition walk: {g o f: (mult, words)}.

    ``level`` holds pairs (f, (mult, words)) and ``outer`` pairs (g, m),
    labelled 1.. in order. Each f, in sort order, composes under every g:
    multiplicities multiply and f's words each gain g's label. Equal
    composites merge, summing multiplicities and joining words. f's powers
    are built once for all the g and dropped before the next f. With a set
    of ``wanted`` words, f composes under the g of label j only when its
    first word extended by j is in it: the caller decides for all of f's
    words by its first.
    """
    top = max(g.degree for g, _ in outer)
    nxt: dict = {}
    for f, (mult, words) in sorted(level, key=lambda item: item[0].sort_key()):
        labels = [j for j in range(1, len(outer) + 1)
                  if wanted is None or words[0] + (j,) in wanted]
        if not labels:
            continue
        powers = power_table(f, top)
        for j in labels:
            g, m = outer[j - 1]
            h = compose(g, f, powers)
            extended = tuple(w + (j,) for w in words)
            if h in nxt:
                m0, w0 = nxt[h]
                nxt[h] = (m0 + mult * m, w0 + extended)
            else:
                nxt[h] = (mult * m, extended)
    return nxt


def _iterate(a: Correspondence, b: Correspondence, steps: int) -> Correspondence:
    """a followed by ``steps`` levels of b."""
    level = [(f, (m, ())) for f, m in a.components]
    for _ in range(steps):
        level = _step(level, b.components).items()
    return Correspondence(components=_sorted_components((f, m) for f, (m, _) in level))


def compose_corr(a: Correspondence, b: Correspondence) -> Correspondence:
    """Composite correspondence "b after a": one step of the walk.

    Every pair of components composes; multiplicities multiply, and equal
    composite maps merge with their multiplicities summed.
    """
    return _iterate(a, b, 1)


def corr_pow(c: Correspondence, nu: int) -> Correspondence:
    """nu-fold iterate of c: nu - 1 steps of the walk from c's components."""
    return _iterate(c, c, positive_int(nu, "nu must be >= 1") - 1)


def d_top(c: Correspondence) -> int:
    """Topological degree: generic preimage count with multiplicity."""
    return sum(m * f.degree for f, m in c.components)


def support_degree(c: Correspondence) -> int:
    """Degree of the underlying relation: the degree of each distinct map
    value once, so multiplicities are ignored and an exact map and a float
    one of equal value count once."""
    return sum({(f.pairs, f.scale): f.degree for f, _ in c.components}.values())


@dataclass(frozen=True)
class WordLedger:
    """All compositions of a given word length, grouped by exact equality.

    ``entries`` maps each class's first witness word to (multiplicity,
    witness words), in word order; a word (i_1, ..., i_nu) composes as
    f_{i_nu} o ... o f_{i_1}. ``related`` holds (map, witness words) for
    every class of multiplicity above 1, in the map's sort order. When
    relation detection is unavailable (float generators) every word is its
    own entry, ``related`` is empty and ``relations`` is None.
    """

    entries: dict
    related: tuple
    total_words: int
    exact: bool

    @property
    def distinct(self) -> int:
        return len(self.entries)

    @property
    def relations(self):
        if not self.exact:
            return None
        return self.total_words - self.distinct


def _step_mod_p(coeffs: list, degree: int, points):
    """The images of ``points`` (residues, CERT_PRIME for [1 : 0]) under a
    map whose integer pairs, num then den, are ``coeffs`` mod CERT_PRIME;
    None when both forms vanish at one of them."""
    p = CERT_PRIME
    images = []
    for x in points:
        if x == p:
            a, b = coeffs[0], coeffs[degree + 1]
        else:
            a = b = 0
            for c in coeffs[:degree + 1]:
                a = (a * x + c) % p
            for c in coeffs[degree + 1:]:
                b = (b * x + c) % p
        if b:
            images.append(a * pow(b, -1, p) % p)
        elif a:
            images.append(p)
        else:
            return None
    return tuple(images)


def _fingerprint_walk(gens: GeneratorSet, nu: int) -> tuple[list, dict]:
    """The fingerprint classes of the words of each length up to nu.

    A class key is (degree, points): the words' degree and the images of
    FINGERPRINT_POINTS under them mod CERT_PRIME, None for words with an
    undefined step. The empty word's key is (1, FINGERPRINT_POINTS).
    Returns (children, final): children[k] maps each key of length k to the
    keys of its extensions by the labels 1..N, in order, and final maps
    each key of length nu to (number of words, first word). Words of one
    key step on as one class, so a level costs one step per class and
    generator, and no class keeps its words.
    """
    steps = [(pairs_mod_p(g.pairs), g.degree) for g in gens.maps]
    level = {(1, FINGERPRINT_POINTS): (1, ())}
    children = []
    for _ in range(nu):
        kids, nxt = {}, {}
        for (degree, points), (count, word) in level.items():
            row = []
            for j, (coeffs, d) in enumerate(steps, start=1):
                key = (degree * d, None if points is None else _step_mod_p(coeffs, d, points))
                row.append(key)
                if key in nxt:
                    nxt[key] = (nxt[key][0] + count, nxt[key][1])
                else:
                    nxt[key] = (count, word + (j,))
            kids[(degree, points)] = tuple(row)
        children.append(kids)
        level = nxt
    return children, level


def enumerate_words(gens: GeneratorSet, nu: int,
                    word_budget: int = WORD_BUDGET,
                    degree_budget: int = DEGREE_BUDGET) -> WordLedger:
    """Ledger of all N^nu compositions of length nu.

    Fingerprints (see the module docstring) decide which words differ: a
    word alone in its fingerprint class is its own class, and no map is
    built for it. The words of the colliding classes, and every word of the
    degree of a word with an undefined step, go through the composition
    walk from the generators, each at multiplicity 1 and carrying its
    witness words; a level map composes under a generator only when the
    extended word is a prefix of one of those words. Exact equality decides
    each of their classes, and each level map's powers are built once for
    all the generators. The word budget is checked first, and the degree
    budget on the largest degree of those words before any map is composed.
    """
    nu = positive_int(nu, "nu must be >= 1")
    n = len(gens)
    total = n ** nu
    if total > word_budget:
        raise BudgetExceeded(f"{n}^{nu} words exceed the budget of {word_budget}")

    if not gens.exact:
        entries = {
            word: (1, (word,))
            for word in itertools.product(range(1, n + 1), repeat=nu)
        }
        return WordLedger(entries=entries, related=(), total_words=total, exact=False)

    children, final = _fingerprint_walk(gens, nu)
    undefined = {degree for degree, points in final if points is None}
    live = {key for key, (count, _) in final.items() if count > 1 or key[0] in undefined}
    top = max((degree for degree, _ in live), default=0)
    if top > degree_budget:
        raise BudgetExceeded(f"composed degree {top} exceeds {degree_budget}")
    entries = {word: (1, (word,)) for key, (_, word) in final.items() if key not in live}
    # lives[k] holds the keys of length k that some word of a live class
    # extends: their words are a union of exact classes, so the first word of
    # a level entry speaks for all of its words
    lives = [live]
    for kids in reversed(children):
        lives.append({key for key, row in kids.items() if any(kid in lives[-1] for kid in row)})
    lives.reverse()
    level, keys = {}, {}
    for j, (f, key) in enumerate(zip(gens.maps, children[0][1, FINGERPRINT_POINTS]), start=1):
        if key in lives[1]:
            level[f], keys[(j,)] = (1, ((j,),)), key
    outer = tuple((g, 1) for g in gens.maps)
    for k in range(1, nu):
        kids, ahead = children[k], lives[k + 1]
        wanted = {word + (j,) for word, key in keys.items()
                  for j, kid in enumerate(kids[key], start=1) if kid in ahead}
        level = _step(level.items(), outer, wanted)
        keys = {words[0]: kids[keys[words[0][:-1]]][words[0][-1] - 1]
                for _, words in level.values()}
    related = []
    for f, (mult, words) in sorted(level.items(), key=lambda item: item[0].sort_key()):
        entries[words[0]] = (mult, words)
        if mult > 1:
            related.append((f, words))
    assert sum(m for m, _ in entries.values()) == total
    return WordLedger(entries=dict(sorted(entries.items())), related=tuple(related),
                      total_words=total, exact=True)
