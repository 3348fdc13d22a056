"""Finite orbit structures: orbit pools, backward trees, shift, metric.

An orbit of length nu records nu+1 points and the nu component labels that
realized each step (labels index the multiplicity-expanded presentation of
the correspondence, so a doubled component contributes two labels per step).
A pool of orbits of one length is an ``OrbitPool``: one orbit per row of
three arrays, the canonical homogeneous coordinates h0 and h1 of its points
and its labels. Truncated paths reuse the same data viewed as the head of an
infinite orbit; with the path metric's 2^-k weights, anything beyond depth
~24 contributes less than every separation radius used here, so finite
storage is metrically invisible.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from .correspondence import Correspondence, d_top
from .errors import (
    BudgetExceeded,
    DepthMismatch,
    EmptyPath,
    EmptyPool,
    MixedNu,
    NonCanonicalPoint,
    NonGenericTerminal,
    RootFindingFailure,
)
from .projective import ProjPoint, chordal_dist, normalize
from .ratmap import evaluate, fs_jacobian, preimages

ORBIT_BUDGET = 200_000
PERTURB_ATTEMPTS = 5
PERTURB_SIZE = 1e-6


@dataclass(frozen=True)
class TruncatedPath:
    """The first depth+1 coordinates of an infinite orbit."""

    points: tuple
    symbols: tuple

    @property
    def depth(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True, eq=False)
class OrbitPool:
    """k orbits (x_0, ..., x_nu; a_1, ..., a_nu), one per row.

    h0 and h1 (complex128, k x (nu+1)) hold the points' coordinates, symbols
    (int64, k x nu) the labels. Every h0 is real and nonnegative, as in a
    canonical point, so that a pair's chordal test value has the same bits
    in either order; NonCanonicalPoint is raised otherwise.
    """

    h0: np.ndarray
    h1: np.ndarray
    symbols: np.ndarray

    def __post_init__(self):
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

    @classmethod
    def from_paths(cls, paths) -> OrbitPool:
        """The pool of equal-depth paths, whose points are taken as canonical."""
        if not paths:
            raise EmptyPool("cannot build a pool from no paths")
        depth = paths[0].depth
        if any(p.depth != depth for p in paths):
            raise MixedNu("paths of different depths")
        return _pool([p.points for p in paths], [p.symbols for p in paths], depth)

    def paths(self) -> list[TruncatedPath]:
        """Each row as a path of canonical points."""
        return [TruncatedPath(tuple(map(ProjPoint, r0, r1)), tuple(s))
                for r0, r1, s in zip(self.h0.tolist(), self.h1.tolist(),
                                     self.symbols.tolist())]


def _pool(points, symbols, nu: int) -> OrbitPool:
    """A pool from rows of nu+1 points and rows of nu labels."""
    k = len(points)
    return OrbitPool(
        np.array([[complex(x.h0) for x in row] for row in points],
                 dtype=np.complex128).reshape(k, nu + 1),
        np.array([[complex(x.h1) for x in row] for row in points],
                 dtype=np.complex128).reshape(k, nu + 1),
        np.array(symbols, dtype=np.int64).reshape(k, nu))


def forward_orbits(c: Correspondence, starts, nu: int,
                   budget: int = ORBIT_BUDGET) -> OrbitPool:
    """The unique orbit for every start and every label word of length nu."""
    comps = c.primed()
    m = len(comps)
    total = len(starts) * m ** nu
    if total > budget:
        raise BudgetExceeded(f"{total} forward orbits exceed the budget {budget}")
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
                  budget: int = ORBIT_BUDGET) -> OrbitPool:
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
                         budget: int = ORBIT_BUDGET) -> dict[int, OrbitPool]:
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
        except (_CriticalValueHit, RootFindingFailure) as exc:
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


class _CriticalValueHit(Exception):
    pass


def _perturb(p: ProjPoint, attempt: int) -> ProjPoint:
    shift = PERTURB_SIZE * cmath.exp(2j * cmath.pi * (attempt + 0.3) / 7.0)
    return normalize(p.h0 + shift, p.h1 + shift * 1j)


def _expand_tree(c, terminal, nu, jac_floor):
    """Levels 0..nu; the rows of level k are ordered by parent row, then
    label, then preimage order."""
    comps = c.primed()
    m = len(comps)
    level = _pool([[terminal]], [()], 0)
    levels = {0: level}
    heads = [terminal]
    for depth in range(1, nu + 1):
        parents, labels, roots_out = [], [], []
        for i, head in enumerate(heads):
            for a in range(1, m + 1):
                roots = preimages(comps[a - 1], head)
                if any(mult > 1 for _, mult in roots):
                    raise _CriticalValueHit(f"critical value at depth {depth}")
                if jac_floor > 0.0:
                    low = [(r, mult) for r, mult in roots
                           if fs_jacobian(comps[a - 1], r) < jac_floor]
                    if low:
                        roots = [min(low, key=lambda rm: fs_jacobian(comps[a - 1], rm[0]))]
                for root, _ in roots:
                    parents.append(i)
                    labels.append(a)
                    roots_out.append(root)
        heads = roots_out
        level = levels[depth] = OrbitPool(*(
            np.column_stack([np.array(head, dtype=old.dtype), old[parents]])
            for head, old in (([r.h0 for r in heads], level.h0),
                              ([r.h1 for r in heads], level.h1),
                              (labels, level.symbols))))
    return levels


def shift(p: TruncatedPath) -> TruncatedPath:
    """Drop x_0 and the first label; depth decreases by one."""
    if p.depth < 1:
        raise EmptyPath("cannot shift a depth-0 path")
    return TruncatedPath(points=p.points[1:], symbols=p.symbols[1:])


def delta_metric(p: TruncatedPath, q: TruncatedPath) -> float:
    """Product metric max(sup d(x_k, y_k)/2^k, sup delta(a_{k+1}, b_{k+1})/2^k).

    The symbol mismatch indicator uses the 0-1 metric, so a first-label
    mismatch alone already gives distance 1.
    """
    if p.depth != q.depth:
        raise DepthMismatch(f"depths {p.depth} and {q.depth} differ")
    best = 0.0
    w = 1.0
    for a, b in zip(p.points, q.points):
        best = max(best, chordal_dist(a, b) * w)
        w *= 0.5
    w = 1.0
    for a, b in zip(p.symbols, q.symbols):
        if a != b:
            best = max(best, w)
            break  # later mismatches only have smaller weight
        w *= 0.5
    return best


def shifted_separation(p: TruncatedPath, q: TruncatedPath, horizon: int) -> float:
    """max over 0 <= j <= horizon of delta_metric(shift^j p, shift^j q).

    Evaluated in closed form: the j-maximum turns the 2^-k weights into
    2^-(k - horizon)+ weights on both points and symbols, exactly as the
    left-shift lemma for product metrics states.
    """
    if p.depth != q.depth:
        raise DepthMismatch(f"depths {p.depth} and {q.depth} differ")
    if horizon > p.depth:
        raise DepthMismatch(f"horizon {horizon} exceeds depth {p.depth}")
    best = 0.0
    for k in range(len(p.points)):
        w = 1.0 if k <= horizon else 0.5 ** (k - horizon)
        best = max(best, chordal_dist(p.points[k], q.points[k]) * w)
    for k in range(len(p.symbols)):
        if p.symbols[k] != q.symbols[k]:
            w = 1.0 if k <= horizon else 0.5 ** (k - horizon)
            best = max(best, w)
    return best
