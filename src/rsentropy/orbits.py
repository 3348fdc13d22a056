"""Finite orbit structures: forward orbits, backward trees, shift, metric.

An orbit of length nu records nu+1 points and the nu component labels that
realized each step (labels index the multiplicity-expanded presentation of
the correspondence, so a doubled component contributes two labels per step).
Truncated paths reuse the same data viewed as the head of an infinite orbit;
with the path metric's 2^-k weights, anything beyond depth ~24 contributes
less than every separation radius used here, so finite storage is
metrically invisible.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

from .correspondence import Correspondence, d_top
from .errors import (
    BudgetExceeded,
    DepthMismatch,
    EmptyPath,
    NonGenericTerminal,
    RootFindingFailure,
)
from .projective import ProjPoint, chordal_dist, normalize
from .ratmap import evaluate, fs_jacobian, preimages

ORBIT_BUDGET = 200_000
ORBIT_STEP_TOL = 1e-9
PERTURB_ATTEMPTS = 5
PERTURB_SIZE = 1e-6


@dataclass(frozen=True)
class NuOrbit:
    """(x_0, ..., x_nu; a_1, ..., a_nu)."""

    points: tuple
    symbols: tuple

    @property
    def nu(self) -> int:
        return len(self.symbols)

    def validate(self, c: Correspondence, tol: float = ORBIT_STEP_TOL) -> bool:
        comps = c.primed()
        for j, a in enumerate(self.symbols):
            img = evaluate(comps[a - 1], self.points[j])
            if chordal_dist(img, self.points[j + 1]) > tol:
                return False
        return True

    def as_path(self) -> "TruncatedPath":
        return TruncatedPath(points=self.points, symbols=self.symbols)


@dataclass(frozen=True)
class TruncatedPath:
    """The first depth+1 coordinates of an infinite orbit."""

    points: tuple
    symbols: tuple

    @property
    def depth(self) -> int:
        return len(self.symbols)


def forward_orbits(c: Correspondence, starts, nu: int,
                   budget: int = ORBIT_BUDGET) -> list[NuOrbit]:
    """The unique orbit for every start and every label word of length nu."""
    comps = c.primed()
    m = len(comps)
    total = len(starts) * m ** nu
    if total > budget:
        raise BudgetExceeded(f"{total} forward orbits exceed the budget {budget}")
    out = []
    for x0 in starts:
        for word in itertools.product(range(1, m + 1), repeat=nu):
            pts = [x0]
            for a in word:
                pts.append(evaluate(comps[a - 1], pts[-1]))
            out.append(NuOrbit(points=tuple(pts), symbols=word))
    return out


def preimage_tree(c: Correspondence, terminal: ProjPoint, nu: int,
                  jac_floor: float = 0.0,
                  budget: int = ORBIT_BUDGET) -> list[NuOrbit]:
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
                         budget: int = ORBIT_BUDGET) -> dict[int, list[NuOrbit]]:
    """Backward tree with every intermediate depth retained.

    Level k holds all k-orbits ending at the terminal; level nu is what
    preimage_tree returns. Orbits at level k extend orbits at level k-1 by
    one more backward step, so one tree serves a whole ladder of depths.
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
    comps = c.primed()
    m = len(comps)
    levels = {0: [NuOrbit(points=(terminal,), symbols=())]}
    for depth in range(1, nu + 1):
        nxt = []
        for orbit in levels[depth - 1]:
            head = orbit.points[0]
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
                    nxt.append(NuOrbit(
                        points=(root,) + orbit.points,
                        symbols=(a,) + orbit.symbols,
                    ))
        levels[depth] = nxt
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
