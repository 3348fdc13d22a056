"""Coincidence points, recurrence, fiber entropy, and Friedland-type bounds.

The coincidence set collects the finitely many sphere points where two
distinct generators agree. Itineraries through a recurrent coincidence point
are the only place the symbol-forgetting projection can have a large fiber,
so the gap between the symbol-aware entropy log(sum of degrees) and the
itinerary entropy is controlled by the largest average branching along
cycles through such points. That average is a maximum mean cycle weight in
the forward transition graph with edges weighted log(number of generators
realizing the step), computed here with Karp's algorithm.

Exact arithmetic is used whenever the generators and points are exact
Gaussian-rational data: a false recurrence would inflate the cycle bound and
destroy the lower bound, so equality at exact points is decided exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .correspondence import Correspondence, GeneratorSet, build_correspondence
from .errors import BudgetExceeded, InconsistentItinerary, RootFindingFailure
from .gaussian import GaussianRational
from .polynomial import (
    aberth_roots,
    form_eval_exact,
    form_mul,
    poly_trim,
)
from .projective import NearPoints, ProjPoint, chordal_dist, normalize
from .ratmap import RationalMap, evaluate

RECURRENCE_TOL = 1e-9
NODE_BUDGET = 20_000
SNAP_DENOMINATOR = 10 ** 6

ExactPoint = tuple  # (GaussianRational, GaussianRational), normalized


# -- exact projective helpers ----------------------------------------------------


def exact_normalize(h0: GaussianRational, h1: GaussianRational) -> ExactPoint:
    """Scale so the first nonzero coordinate is exactly 1."""
    if not h0.is_zero():
        return (GaussianRational(1), h1 / h0)
    if h1.is_zero():
        raise ValueError("zero vector has no projective class")
    return (GaussianRational(0), GaussianRational(1))


def exact_eval(f: RationalMap, pt: ExactPoint) -> ExactPoint:
    w0 = form_eval_exact(f.num, pt[0], pt[1])
    w1 = form_eval_exact(f.den, pt[0], pt[1])
    return exact_normalize(w0, w1)


def exact_to_proj(pt: ExactPoint) -> ProjPoint:
    return normalize(complex(pt[0]), complex(pt[1]))


def _snap_exact(z: complex) -> GaussianRational | None:
    re = Fraction(z.real).limit_denominator(SNAP_DENOMINATOR)
    im = Fraction(z.imag).limit_denominator(SNAP_DENOMINATOR)
    if abs(re - Fraction(z.real)) > 1e-9 or abs(im - Fraction(z.imag)) > 1e-9:
        return None
    return GaussianRational(re, im)


# -- the coincidence set ----------------------------------------------------------


@dataclass(frozen=True)
class CoincidencePoint:
    """A point where at least one pair of distinct generators agrees."""

    point: ProjPoint
    witnesses: frozenset  # unordered (i, j) generator index pairs, 1-based
    exact: bool
    exact_coords: ExactPoint | None = None


def coincidence_set(gens: GeneratorSet) -> list[CoincidencePoint]:
    """All solutions of f_i(x) = f_j(x) over distinct generator pairs.

    Roots of the cross form P_i Q_j - P_j Q_i are extracted exactly where
    possible: monomial factors give 0 and the point at infinity outright,
    and numeric roots that snap to small Gaussian rationals are verified by
    exact substitution and deflated. Distinct generators guarantee the set
    is finite.
    """
    n = len(gens)
    if n < 2:
        return []
    found: list[dict] = []

    def record(point, exact_coords, pair):
        for entry in found:
            if exact_coords is not None and entry["exact_coords"] is not None:
                if exact_coords == entry["exact_coords"]:
                    entry["witnesses"].add(pair)
                    return
            elif chordal_dist(point, entry["point"]) <= RECURRENCE_TOL:
                entry["witnesses"].add(pair)
                if exact_coords is not None and entry["exact_coords"] is None:
                    entry["exact_coords"] = exact_coords
                    entry["point"] = point
                return
        found.append({
            "point": point,
            "exact_coords": exact_coords,
            "witnesses": {pair},
        })

    for i in range(n):
        for j in range(i + 1, n):
            fi, fj = gens.maps[i], gens.maps[j]
            cross = tuple(
                a - b
                for a, b in zip(form_mul(fi.num, fj.den), form_mul(fj.num, fi.den))
            )
            exact_ok = fi.exact_coeffs and fj.exact_coeffs
            for pt, coords in _cross_roots(cross, exact_ok):
                record(pt, coords, (i + 1, j + 1))

    out = [
        CoincidencePoint(
            point=e["point"],
            witnesses=frozenset(e["witnesses"]),
            exact=e["exact_coords"] is not None,
            exact_coords=e["exact_coords"],
        )
        for e in found
    ]
    out.sort(key=lambda cp: (cp.point.h0.real, cp.point.h1.real, cp.point.h1.imag))
    return out


def _cross_roots(cross, exact_ok):
    """Projective roots of an exact form, exact where recoverable."""
    if all(c.is_zero() for c in cross):
        raise RootFindingFailure("cross form vanishes identically")
    # monomial factors: leading zeros are roots at infinity, trailing at 0
    lead = 0
    while cross[lead].is_zero():
        lead += 1
    trail = 0
    while cross[len(cross) - 1 - trail].is_zero():
        trail += 1
    core = cross[lead:len(cross) - trail]

    roots: list[tuple[ProjPoint, ExactPoint | None]] = []
    if lead:
        pt = (GaussianRational(1), GaussianRational(0))
        roots.append((exact_to_proj(pt), pt if exact_ok else None))
    if trail:
        pt = (GaussianRational(0), GaussianRational(1))
        roots.append((exact_to_proj(pt), pt if exact_ok else None))

    # affine part, ascending coefficients
    asc = poly_trim(list(reversed(core)))
    if len(asc) <= 1:
        return roots
    if exact_ok:
        asc, rational_roots = _deflate_rational_roots(asc)
        for r in rational_roots:
            pt = exact_normalize(r, GaussianRational(1))
            roots.append((exact_to_proj(pt), pt))
    if len(asc) > 1:
        for z in aberth_roots([complex(c) for c in asc]):
            roots.append((normalize(z, 1.0), None))
    return roots


def _deflate_rational_roots(asc):
    """Strip Gaussian-rational roots found by snapping verified numerically."""
    rational: list[GaussianRational] = []
    while len(asc) > 1:
        if len(asc) == 2:
            rational.append((-asc[0]) / asc[1])
            asc = [asc[1]]
            break
        progress = False
        for z in aberth_roots([complex(c) for c in asc]):
            cand = _snap_exact(z)
            if cand is None:
                continue
            value = asc[-1]
            for c in reversed(asc[:-1]):
                value = value * cand + c
            if value.is_zero():
                rational.append(cand)
                asc = _exact_deflate(asc, cand)
                progress = True
                break
        if not progress:
            break
    return asc, rational


def _exact_deflate(asc, root):
    """Synthetic division of an ascending-coefficient polynomial by (z - root)."""
    out = [GaussianRational(0)] * (len(asc) - 1)
    carry = GaussianRational(0)
    for k in range(len(asc) - 1, 0, -1):
        carry = asc[k] + carry * root
        out[k - 1] = carry
    return out


# -- recurrence --------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceCertificate:
    point: ProjPoint
    return_depths: tuple
    searched_depth: int
    status: str  # "recurrent" | "not_found_within_depth"


def is_recurrent(c: Correspondence, x: ProjPoint, depth: int,
                 tol: float = RECURRENCE_TOL,
                 exact_point: ExactPoint | None = None,
                 node_budget: int = NODE_BUDGET) -> RecurrenceCertificate:
    """Breadth-first search of the forward sets for returns to x.

    Uses exact arithmetic when both the point and all component maps are
    exact; otherwise matches within the chordal tolerance. A forward set
    larger than node_budget raises BudgetExceeded as its first extra point
    is found.
    """
    support = [f for f, _ in c.components]
    exact_mode = exact_point is not None and all(f.exact_coeffs for f in support)
    message = "forward set exceeded the node budget"
    returns = []
    if exact_mode:
        frontier = {exact_point}
        for step in range(1, depth + 1):
            images = set()
            for pt, f in itertools.product(frontier, support):
                images.add(exact_eval(f, pt))
                if len(images) > node_budget:
                    raise BudgetExceeded(message)
            frontier = images
            if exact_point in frontier:
                returns.append(step)
    else:
        frontier = [x]
        for step in range(1, depth + 1):
            images = NearPoints(tol, node_budget, message)
            for pt, f in itertools.product(frontier, support):
                images.index_of(evaluate(f, pt))
            frontier = images.points
            if images.find(x) is not None:
                returns.append(step)
    status = "recurrent" if returns else "not_found_within_depth"
    return RecurrenceCertificate(
        point=x, return_depths=tuple(returns), searched_depth=depth, status=status)


def certified_coincidences(gens: GeneratorSet, depth: int,
                           tol: float = RECURRENCE_TOL,
                           node_budget: int = NODE_BUDGET) -> list[tuple]:
    """Each coincidence point paired with its recurrence certificate."""
    corr = build_correspondence(gens)
    return [
        (cp, is_recurrent(corr, cp.point, depth, tol,
                          exact_point=cp.exact_coords, node_budget=node_budget))
        for cp in coincidence_set(gens)
    ]


# -- fiber entropy ------------------------------------------------------------------


@dataclass(frozen=True)
class FiberEntropyValue:
    """Cycle-average branching entropy over one eventually periodic itinerary."""

    preperiod: tuple
    cycle: tuple
    profile: tuple  # m_k over the cycle
    value: float


def fiber_entropy(gens: GeneratorSet, cycle, preperiod=(),
                  tol: float = RECURRENCE_TOL) -> FiberEntropyValue:
    """Entropy of the shift relative to the decorations of one itinerary.

    For a fixed eventually periodic itinerary the fiber consists of its
    admissible label decorations; in the path metric those decorations
    coincide pointwise, so n-step distinguishability is purely symbolic and
    the count of distinguishable elements is the number of admissible words,
    whose growth rate is the cycle average of log m_k with m_k the number of
    generators realizing step k. Cross-validated against direct spanning
    counts in the test suite rather than trusted on its own.
    """
    cycle = tuple(cycle)
    preperiod = tuple(preperiod)
    if not cycle:
        raise InconsistentItinerary("cycle must be nonempty")

    def step_mult(a: ProjPoint, b: ProjPoint) -> int:
        m = sum(1 for f in gens.maps if chordal_dist(evaluate(f, a), b) <= tol)
        if m == 0:
            raise InconsistentItinerary("a step is realized by no generator")
        return m

    walk = preperiod + cycle
    for k in range(len(preperiod)):
        step_mult(walk[k], walk[k + 1])
    profile = tuple(
        step_mult(cycle[k], cycle[(k + 1) % len(cycle)])
        for k in range(len(cycle))
    )
    value = sum(math.log(m) for m in profile) / len(cycle)
    return FiberEntropyValue(
        preperiod=preperiod, cycle=cycle, profile=profile, value=value)


# -- Friedland-type two-sided bounds --------------------------------------------------


@dataclass(frozen=True)
class FriedlandBounds:
    lower: float
    upper: float
    s_hat: float
    details: dict


def friedland_bounds(gens: GeneratorSet, depth: int = 12,
                     tol: float = RECURRENCE_TOL,
                     node_budget: int = NODE_BUDGET) -> FriedlandBounds:
    """Two-sided bounds on the itinerary entropy for one generator set.

    upper = log(sum of degrees). lower = upper - S where S bounds the worst
    fiber entropy over itineraries through recurrent coincidence points: the
    maximum mean cycle weight of the explored forward graph, edges weighted
    by log(number of generators realizing the step). Positive weights only
    occur on edges leaving coincidence points, so any positive-mean cycle
    passes through one. The exploration is depth-capped; the details record
    whether the cap was hit, in which case S is certified only to that depth.
    """
    upper = math.log(sum(gens.degrees))
    coincidences = certified_coincidences(gens, depth, tol, node_budget)
    recurrent = [cp for cp, cert in coincidences if cert.status == "recurrent"]

    graph = NearPoints(tol, node_budget, "transition graph exceeded the node budget")
    nodes = graph.points
    keys: list = []  # exact mode: the exact coords of each node
    exact_ids: dict = {}  # exact coords -> node index
    edges: list = []
    cap_hit = False

    # In exact mode every node has exact coords and equality decides; in
    # float mode none has and the chordal tolerance does.
    def node_id(point: ProjPoint, coords: ExactPoint | None) -> int:
        if coords is None:
            return graph.index_of(point)
        idx = exact_ids.get(coords)
        if idx is None:
            idx = exact_ids[coords] = graph.add(point)
            keys.append(coords)
        return idx

    exact_mode = gens.exact and all(cp.exact_coords is not None for cp in recurrent)
    frontier = []
    for cp in recurrent:
        frontier.append(node_id(cp.point, cp.exact_coords if exact_mode else None))
    frontier = sorted(set(frontier))
    seen_edges = set()
    for _ in range(depth):
        nxt = []
        for u in frontier:
            images: dict[int, int] = {}
            for f in gens.maps:
                if exact_mode:
                    coords = exact_eval(f, keys[u])
                    v = node_id(exact_to_proj(coords), coords)
                else:
                    v = node_id(evaluate(f, nodes[u]), None)
                images[v] = images.get(v, 0) + 1
            for v, m in sorted(images.items()):
                if (u, v) not in seen_edges:
                    seen_edges.add((u, v))
                    edges.append((u, v, math.log(m)))
                    nxt.append(v)
        frontier = sorted(set(nxt))
        if not frontier:
            break
    else:
        cap_hit = bool(frontier)

    mean = karp_max_mean_cycle(len(nodes), edges)
    s_hat = max(mean, 0.0) if mean is not None else 0.0
    lower = max(upper - s_hat, 0.0)
    details = {
        "coincidences": coincidences,
        "graph_nodes": len(nodes),
        "graph_edges": len(edges),
        "depth": depth,
        "depth_cap_hit": cap_hit,
        "exact": exact_mode,
    }
    return FriedlandBounds(lower=lower, upper=upper, s_hat=s_hat, details=details)


def karp_max_mean_cycle(num_nodes: int, edges) -> float | None:
    """Karp's maximum mean cycle weight; None when the graph is acyclic.

    F[k][v] = best weight of a k-edge walk ending at v (walks may start
    anywhere); the answer is max over v of min over k of
    (F[n][v] - F[k][v]) / (n - k).
    """
    if num_nodes == 0 or not edges:
        return None
    n = num_nodes
    neg = float("-inf")
    table = [[neg] * n for _ in range(n + 1)]
    for v in range(n):
        table[0][v] = 0.0
    for k in range(1, n + 1):
        row, prev = table[k], table[k - 1]
        for u, v, w in edges:
            if prev[u] > neg and prev[u] + w > row[v]:
                row[v] = prev[u] + w
    best = None
    for v in range(n):
        if table[n][v] == neg:
            continue
        worst = None
        for k in range(n):
            if table[k][v] == neg:
                continue
            ratio = (table[n][v] - table[k][v]) / (n - k)
            if worst is None or ratio < worst:
                worst = ratio
        if worst is not None and (best is None or worst > best):
            best = worst
    return best
