"""Correspondences built from weighted graphs of maps, and word algebra.

A correspondence is a multiset of distinct component maps with positive
integer multiplicities. Its iterates compose component-wise; relations in
the generated semigroup (equal compositions along different words) surface
as multiplicities greater than 1, which is exactly why the topological
degree of the iterate is multiplicative while the degree of the underlying
support relation is not.

Multiplicity merging relies exclusively on exact canonical-form equality.
Generators entered with float coefficients disable merging and mark every
ledger as "relation detection unavailable": a false merge would silently
corrupt the degree bookkeeping. For general (non-graph) components the
composition rule would need generic fiber counts; for graphs it reduces to
the multiplicity product implemented here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceeded, DuplicateGenerator, LengthMismatch
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
    merged: bool = True  # False when float coefficients disabled merging

    @property
    def M(self) -> int:
        return sum(m for _, m in self.components)

    @property
    def exact(self) -> bool:
        return all(f.exact_coeffs for f, _ in self.components)

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
    if mults is None:
        mults = (1,) * len(gens)
    mults = tuple(int(m) for m in mults)
    if len(mults) != len(gens):
        raise LengthMismatch(
            f"{len(mults)} multiplicities for {len(gens)} generators")
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be positive integers")
    return Correspondence(components=_sorted_components(zip(gens.maps, mults)))


def compose_corr(a: Correspondence, b: Correspondence) -> Correspondence:
    """Composite correspondence "b after a".

    Every pair of components composes; multiplicities multiply, and equal
    composite maps merge with their multiplicities summed (exact
    coefficients only).
    """
    exact = a.exact and b.exact
    top = max(fb.degree for fb, _ in b.components)
    merged: dict = {}
    order: list = []
    for fa, ma in a.components:
        powers = power_table(fa, top)  # fa's powers, shared by every fb
        for fb, mb in b.components:
            g = compose(fb, fa, powers)
            m = ma * mb
            if exact:
                if g in merged:
                    merged[g] += m
                else:
                    merged[g] = m
            else:
                order.append((g, m))
    if exact:
        return Correspondence(components=_sorted_components(merged.items()))
    return Correspondence(components=tuple(order), merged=False)


def corr_pow(c: Correspondence, nu: int) -> Correspondence:
    """nu-fold iterate of c under compose_corr."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    out = c
    for _ in range(nu - 1):
        out = compose_corr(out, c)
    return out


def d_top(c: Correspondence) -> int:
    """Topological degree: generic preimage count with multiplicity."""
    return sum(m * f.degree for f, m in c.components)


def support_degree(c: Correspondence) -> int:
    """Degree of the underlying relation: multiplicities ignored."""
    if c.merged:
        return sum(f.degree for f, _ in c.components)
    # without merging, collapse equal maps first
    seen = []
    for f, _ in c.components:
        if not any(maps_equal(f, g) for g in seen):
            seen.append(f)
    return sum(f.degree for f in seen)


@dataclass(frozen=True)
class WordLedger:
    """All compositions of a given word length, grouped by exact equality.

    ``entries`` maps each distinct composed map to (multiplicity, witness
    words); a word (i_1, ..., i_nu) composes as f_{i_nu} o ... o f_{i_1}.
    When relation detection is unavailable (float generators) every word is
    its own entry and ``relations`` is None.
    """

    length: int
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

    Walks the word tree level by level, composing each *distinct* level-k
    map with every generator, so the cost tracks the number of distinct
    compositions rather than N^nu when relations are plentiful. Each
    level-k map's powers are built once for all the generators.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
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
        return WordLedger(length=nu, entries=entries, total_words=total, exact=False)

    level: dict = {}
    for j, f in enumerate(gens.maps, start=1):
        mult, words = level.get(f, (0, ()))
        level[f] = (mult + 1, words + ((j,),))
    for _ in range(nu - 1):
        nxt: dict = {}
        for f in sorted(level, key=lambda m: m.sort_key()):
            mult, words = level[f]
            powers = power_table(f, top)
            for j, g in enumerate(gens.maps, start=1):
                h = compose(g, f, powers)
                extended = tuple(w + (j,) for w in words)
                if h in nxt:
                    m0, w0 = nxt[h]
                    nxt[h] = (m0 + mult, w0 + extended)
                else:
                    nxt[h] = (mult, extended)
        level = nxt
    assert sum(m for m, _ in level.values()) == total
    return WordLedger(length=nu, entries=level, total_words=total, exact=True)
