"""Finite orbit structures: orbit pools, forward orbits, backward trees.

An orbit of length nu records nu+1 points and the nu component labels that
realized each step (labels index the multiplicity-expanded presentation of
the correspondence, so a doubled component contributes two labels per step).
A pool of orbits of one length is an ``OrbitPool``: one orbit per row of
three arrays, the canonical homogeneous coordinates h0 and h1 of its points
and its labels.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from .correspondence import Correspondence, d_top
from .errors import (
    BudgetExceeded,
    MixedNu,
    NonCanonicalPoint,
    NonGenericTerminal,
    RootFindingFailure,
)
from .projective import ProjPoint, normalize
from .ratmap import evaluate, fs_jacobian, preimages

ORBIT_BUDGET = 200_000
TREE_BUDGET = 20_000
PERTURB_ATTEMPTS = 5
PERTURB_SIZE = 1e-6


@dataclass(frozen=True, eq=False)
class OrbitPool:
    """k orbits (x_0, ..., x_nu; a_1, ..., a_nu), one per row.

    h0 and h1 (complex128, k x (nu+1)) hold the points' coordinates, symbols
    (int64, k x nu) the labels; arrays that disagree on k or nu raise
    MixedNu. Every h0 is real and nonnegative, as in a canonical point, so
    that a pair's chordal test value has the same bits in either order;
    NonCanonicalPoint is raised otherwise.
    """

    h0: np.ndarray
    h1: np.ndarray
    symbols: np.ndarray

    def __post_init__(self):
        shape = self.h0.shape
        if (len(shape) != 2 or self.h1.shape != shape
                or self.symbols.shape != (shape[0], shape[1] - 1)):
            raise MixedNu(f"pool arrays of shapes h0 {shape}, h1 {self.h1.shape} "
                          f"and symbols {self.symbols.shape} disagree on k or nu")
        if (self.h0.imag != 0).any() or (self.h0.real < 0).any():
            raise NonCanonicalPoint("pool points need a real, nonnegative h0")

    def __len__(self) -> int:
        return self.h0.shape[0]

    @property
    def nu(self) -> int:
        return self.symbols.shape[1]

    def __getitem__(self, rows) -> OrbitPool:
        """The pool of the selected rows (a slice or an index sequence)."""
        if isinstance(rows, (int, np.integer)):
            raise TypeError("select pool rows with a slice or a sequence")
        return OrbitPool(self.h0[rows], self.h1[rows], self.symbols[rows])


def _pool(points, symbols, nu: int) -> OrbitPool:
    """A pool from rows of nu+1 points and rows of nu labels."""
    k = len(points)
    return OrbitPool(
        np.array([[complex(x.h0) for x in row] for row in points],
                 dtype=np.complex128).reshape(k, nu + 1),
        np.array([[complex(x.h1) for x in row] for row in points],
                 dtype=np.complex128).reshape(k, nu + 1),
        np.array(symbols, dtype=np.int64).reshape(k, nu))


def forward_orbits(c: Correspondence, starts, nu: int) -> OrbitPool:
    """The unique orbit for every start and every label word of length nu;
    BudgetExceeded when they are more than ORBIT_BUDGET."""
    comps = c.primed()
    m = len(comps)
    total = len(starts) * m ** nu
    if total > ORBIT_BUDGET:
        raise BudgetExceeded(f"{total} forward orbits exceed the budget {ORBIT_BUDGET}")
    words = list(itertools.product(range(1, m + 1), repeat=nu))
    rows = []
    for x0 in starts:
        for word in words:
            pts = [x0]
            for a in word:
                pts.append(evaluate(comps[a - 1], pts[-1]))
            rows.append(pts)
    return _pool(rows, words * len(starts), nu)


def preimage_tree(c: Correspondence, terminal: ProjPoint, nu: int,
                  jac_floor: float = 0.0,
                  budget: int = TREE_BUDGET) -> OrbitPool:
    """All nu-orbits ending at the terminal point, built backward.

    With jac_floor = 0 the full tree is returned: it has exactly d_top(c)^nu
    orbits for a generic terminal, whose preimages are all simple roots.
    With jac_floor > 0, any backward step owning a preimage whose Jacobian
    falls below the floor keeps only one such low-Jacobian preimage, which
    reproduces the pruned families used for separated-set lower bounds.

    A terminal that hits a critical value (a root cluster of multiplicity
    at least 2) is perturbed automatically up to 5 times by about 1e-6
    before NonGenericTerminal is raised.
    """
    return preimage_tree_levels(c, terminal, nu, jac_floor, budget)[nu]


def preimage_tree_levels(c: Correspondence, terminal: ProjPoint, nu: int,
                         jac_floor: float = 0.0,
                         budget: int = TREE_BUDGET) -> dict[int, OrbitPool]:
    """Backward tree with every intermediate depth retained.

    Level k holds all k-orbits ending at the terminal; level nu is what
    preimage_tree returns. Each row of level k extends a row of level k-1
    by one more backward step, so one tree serves a whole ladder of depths.
    """
    if affordable_depth(c, nu, budget) < nu:
        raise BudgetExceeded(
            f"tree of {d_top(c)}^{nu} orbits exceeds the budget {budget}")
    last_error = None
    point = terminal
    for attempt in range(PERTURB_ATTEMPTS + 1):
        try:
            return _expand_tree(c, point, nu, jac_floor)
        except RootFindingFailure as exc:
            last_error = exc
            point = _perturb(terminal, attempt)
    raise NonGenericTerminal(
        f"no generic terminal after {PERTURB_ATTEMPTS} perturbations: {last_error}")


def affordable_depth(c: Correspondence, nu: int, budget: int) -> int:
    """The largest depth k <= nu whose full tree of d_top(c)^k orbits fits
    the budget; the one place the tree budget is checked."""
    dt = d_top(c)
    while nu > 0 and dt ** nu > budget:
        nu -= 1
    return nu


def _perturb(p: ProjPoint, attempt: int) -> ProjPoint:
    shift = PERTURB_SIZE * cmath.exp(2j * cmath.pi * (attempt + 0.3) / 7.0)
    return normalize(p.h0 + shift, p.h1 + shift * 1j)


def _expand_tree(c, terminal, nu, jac_floor):
    """Levels 0..nu; the rows of level k are ordered by parent row, then
    label, then preimage order."""
    comps = c.primed()
    level = _pool([[terminal]], [()], 0)
    levels = {0: level}
    heads = [terminal]
    for depth in range(1, nu + 1):
        parents, labels, roots_out = [], [], []
        for i, head in enumerate(heads):
            for a, f in enumerate(comps, 1):
                roots = preimages(f, head)
                # the multiplicities sum to the degree, so a shortfall of
                # points is a multiple root
                if len(roots) < f.degree:
                    raise RootFindingFailure(f"critical value at depth {depth}")
                if jac_floor > 0.0:
                    jacs = [fs_jacobian(f, r) for r, _ in roots]
                    low = [k for k, jac in enumerate(jacs) if jac < jac_floor]
                    if low:
                        roots = [roots[min(low, key=jacs.__getitem__)]]
                parents += [i] * len(roots)
                labels += [a] * len(roots)
                roots_out += [r for r, _ in roots]
        heads = roots_out
        level = levels[depth] = OrbitPool(*(
            np.column_stack([np.array(head, dtype=old.dtype), old[parents]])
            for head, old in (([r.h0 for r in heads], level.h0),
                              ([r.h1 for r in heads], level.h1),
                              (labels, level.symbols))))
    return levels
