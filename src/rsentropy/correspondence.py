"""Correspondences built from weighted graphs of maps, and word algebra.

A correspondence is a multiset of distinct component maps with positive
integer multiplicities. Its iterates compose component-wise; relations in
the generated semigroup (equal compositions along different words) surface
as multiplicities greater than 1, which is exactly why the topological
degree of the iterate is multiplicative while the degree of the underlying
support relation is not.

The iterate and the word ledger are one walk: each level's maps compose
under the outer components, multiplicities multiply, and equal composites
merge by exact canonical-form equality, for float-entered maps too. Merging
equal maps cannot change M, d_top or the support degree. Generators entered
with float coefficients only switch off relation detection in the ledger: a
float-entered map stands for a nearby exact one, so equality of its
composites proves no relation. For general (non-graph) components the
composition rule would need generic fiber counts; for graphs it reduces to
the multiplicity product implemented here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceeded, DuplicateGenerator, LengthMismatch, positive_int
from .ratmap import compose, maps_equal, power_table

WORD_BUDGET = 10 ** 6
DEGREE_BUDGET = 10 ** 4


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


def _step(level, outer) -> dict:
    """One level of the composition walk: {g o f: (mult, words)}.

    ``level`` holds pairs (f, (mult, words)) and ``outer`` pairs (g, m),
    labelled 1.. in order. Each f, in sort order, composes under every g:
    multiplicities multiply and f's words each gain g's label. Equal
    composites merge, summing multiplicities and joining words. f's powers
    are built once for all the g and dropped before the next f.
    """
    top = max(g.degree for g, _ in outer)
    nxt: dict = {}
    for f, (mult, words) in sorted(level, key=lambda item: item[0].sort_key()):
        powers = power_table(f, top)
        for j, (g, m) in enumerate(outer, start=1):
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

    ``entries`` maps each distinct composed map to (multiplicity, witness
    words); a word (i_1, ..., i_nu) composes as f_{i_nu} o ... o f_{i_1}.
    When relation detection is unavailable (float generators) every word is
    its own entry and ``relations`` is None.
    """

    entries: dict
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


def enumerate_words(gens: GeneratorSet, nu: int,
                    word_budget: int = WORD_BUDGET,
                    degree_budget: int = DEGREE_BUDGET) -> WordLedger:
    """Ledger of all N^nu compositions of length nu.

    nu - 1 steps of the walk from the generators, each at multiplicity 1
    and carrying its witness words: each *distinct* level-k map composes
    with every generator, so the cost tracks the number of distinct
    compositions rather than N^nu when relations are plentiful. Each
    level-k map's powers are built once for all the generators.
    """
    nu = positive_int(nu, "nu must be >= 1")
    n = len(gens)
    total = n ** nu
    if total > word_budget:
        raise BudgetExceeded(f"{n}^{nu} words exceed the budget of {word_budget}")
    top = max(gens.degrees)
    if top ** nu > degree_budget:
        raise BudgetExceeded(f"composed degree {top}^{nu} exceeds {degree_budget}")

    if not gens.exact:
        entries = {
            word: (1, (word,))
            for word in itertools.product(range(1, n + 1), repeat=nu)
        }
        return WordLedger(entries=entries, total_words=total, exact=False)

    level = {f: (1, ((j,),)) for j, f in enumerate(gens.maps, start=1)}
    outer = tuple((g, 1) for g in gens.maps)
    for _ in range(nu - 1):
        level = _step(level.items(), outer)
    assert sum(m for m, _ in level.values()) == total
    return WordLedger(entries=level, total_words=total, exact=True)
