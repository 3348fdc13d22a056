"""Coincidence points, recurrence, fiber entropy, and Friedland-type bounds.

The coincidence set collects the finitely many sphere points where two
distinct generators agree. Itineraries through a recurrent coincidence point
are the only place the symbol-forgetting projection can have a large fiber,
so the gap between the symbol-aware entropy log(sum of degrees) and the
itinerary entropy is controlled by the largest average branching along
cycles through such points. That average is a maximum mean cycle weight in
the forward transition graph with edges weighted log(number of generators
realizing the step), computed here with Karp's algorithm on the graph's
strongly connected components that hold a cycle.

Recurrence is decided only at exact points of exact generators, on one
exact forward graph per call. A float orbit can merge points or drift past a
true return, so a float point is undecided and no lower bound rests on it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain

from .correspondence import Correspondence, GeneratorSet
from .errors import BudgetExceeded, InconsistentItinerary, RootFindingFailure
from .gaussian import canonical, to_complex
from .polynomial import aberth_roots, form_mul, pairs_divmod, pairs_eval, pairs_gcd
from .projective import ProjPoint, chordal_dist, normalize, point_order
from .ratmap import RationalMap, evaluate

RECURRENCE_TOL = 1e-9
NODE_BUDGET = 20_000
RECURRENCE_DEPTH = 12
SNAP_DENOMINATOR = 10 ** 6

#: an exact point: its coordinates' canonical Gaussian-integer pairs, so
#: ((d, 0), (a, b)) is [1 : (a + b*i)/d] and ((0, 0), (1, 0)) is [0 : 1]
ExactPoint = tuple


# -- exact projective helpers ----------------------------------------------------


def exact_eval(f: RationalMap, pt: ExactPoint) -> ExactPoint:
    """f(pt) in canonical form, from one Horner pass per half of ``f.pairs``
    at the point's integer coordinates: both values lie over the map's
    scale, which the canonical form drops."""
    d = f.degree
    return canonical((pairs_eval(f.pairs[:d + 1], *pt),
                      pairs_eval(f.pairs[d + 1:], *pt)))[0]


def exact_to_proj(pt: ExactPoint) -> ProjPoint:
    """The float point of an exact one: each coordinate over the scale, the
    first entry of the first nonzero pair, by correctly rounded int division."""
    s = pt[0][0] or pt[1][0]
    return normalize(to_complex(pt[0], s), to_complex(pt[1], s))


def _snap_exact(z: complex) -> tuple | None:
    """z snapped to a small Gaussian rational (a + b*i)/d, as the pairs
    ((a, b), (d, 0)) of the point [z : 1], or None when it is not close."""
    re = Fraction(z.real).limit_denominator(SNAP_DENOMINATOR)
    im = Fraction(z.imag).limit_denominator(SNAP_DENOMINATOR)
    if abs(re - Fraction(z.real)) > 1e-9 or abs(im - Fraction(z.imag)) > 1e-9:
        return None
    d = math.lcm(re.denominator, im.denominator)
    return (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)), (d, 0)


# -- the coincidence set ----------------------------------------------------------


@dataclass(frozen=True)
class CoincidencePoint:
    """A point where at least one pair of distinct generators agrees."""

    point: ProjPoint
    witnesses: frozenset  # unordered (i, j) generator index pairs, 1-based
    exact_coords: ExactPoint | None = None

    @property
    def exact(self) -> bool:
        return self.exact_coords is not None


def coincidence_set(gens: GeneratorSet) -> list[CoincidencePoint]:
    """All solutions of f_i(x) = f_j(x) over distinct generator pairs.

    Roots of the cross form P_i Q_j - P_j Q_i are extracted exactly where
    possible: monomial factors give 0 and the point at infinity outright,
    and numeric roots that snap to small Gaussian rationals are verified by
    exact substitution and deflated. Distinct generators guarantee the set
    is finite.
    """
    n = len(gens)
    found: list[CoincidencePoint] = []
    for i in range(n):
        for j in range(i + 1, n):
            fi, fj = gens.maps[i], gens.maps[j]
            di, dj = fi.degree + 1, fj.degree + 1
            # both products lie over scale_i scale_j, so the pairs subtract
            cross = [(a - c, b - e) for (a, b), (c, e) in zip(
                form_mul(fi.pairs[:di], fj.pairs[dj:]),
                form_mul(fj.pairs[:dj], fi.pairs[di:]))]
            exact_ok = fi.exact_coeffs and fj.exact_coeffs
            for pt, coords in _cross_roots(cross, fi.scale * fj.scale, exact_ok):
                pair = (i + 1, j + 1)
                for k, e in enumerate(found):
                    # exact coordinates are equal or not, others within RECURRENCE_TOL
                    if (coords == e.exact_coords if None not in (coords, e.exact_coords)
                            else chordal_dist(pt, e.point) <= RECURRENCE_TOL):
                        if coords is not None and e.exact_coords is None:
                            e = CoincidencePoint(pt, e.witnesses, coords)
                        found[k] = replace(e, witnesses=e.witnesses | {pair})
                        break
                else:
                    found.append(CoincidencePoint(pt, frozenset({pair}), coords))

    found.sort(key=lambda cp: point_order(cp.point))
    return found


def _cross_roots(cross, scale, exact_ok):
    """Projective roots of the exact form cross/scale, its Gaussian-integer
    pairs over a positive int, exact where recoverable."""
    if not any(map(any, cross)):
        raise RootFindingFailure("cross form vanishes identically")
    # monomial factors: leading zeros are roots at infinity, trailing at 0
    lead = 0
    while cross[lead] == (0, 0):
        lead += 1
    trail = 0
    while cross[len(cross) - 1 - trail] == (0, 0):
        trail += 1
    core = cross[lead:len(cross) - trail]

    roots: list[tuple[ProjPoint, ExactPoint | None]] = []
    if lead:
        pt = ((1, 0), (0, 0))
        roots.append((exact_to_proj(pt), pt if exact_ok else None))
    if trail:
        pt = ((0, 0), (1, 0))
        roots.append((exact_to_proj(pt), pt if exact_ok else None))

    # affine part, highest degree first
    if len(core) <= 1:
        return roots
    # Aberth splits a multiple root at ~1e-8, too coarse to snap or to match
    # within RECURRENCE_TOL: keep p / gcd(p, p'), exact also for float maps,
    # whose coefficients are stored as exact dyadic rationals
    m = len(core) - 1
    g = pairs_gcd(core, [(a * (m - k), b * (m - k)) for k, (a, b) in enumerate(core[:m])])
    if len(g) > 1:
        core, scale = _exact_quotient(core, scale, g)
    if exact_ok:
        points, zs = _deflate_rational_roots(core, scale)
        roots += [(exact_to_proj(pt), pt) for pt in points]
    else:
        zs = aberth_roots([to_complex(c, scale) for c in reversed(core)])
    roots += [(normalize(z, 1.0), None) for z in zs]
    return roots


def _exact_quotient(pairs, den, divisor):
    """The quotient of the polynomial pairs/den by the monic divisor/s, s
    its first int, which divides it over Q(i): pairs over a denominator,
    with no common factor. By pseudo-division, s^n pairs = q divisor, so the
    quotient is q s / (s^n den)."""
    q = pairs_divmod(pairs, divisor)[0]
    den *= divisor[0][0] ** (len(q) - 1)
    g = math.gcd(den, *chain.from_iterable(q))
    return [(a // g, b // g) for a, b in q], den // g


def _deflate_rational_roots(pairs, den):
    """(exact roots, numeric roots) of the polynomial pairs/den: the
    Gaussian-rational roots that its numeric roots snap to, each verified by
    exact substitution and deflated, as exact points; then the numeric
    roots of what is left, from the solve that snapped none."""
    points: list[ExactPoint] = []
    while len(pairs) > 1:
        if len(pairs) == 2:
            # p0 z + p1 vanishes at [-p1 : p0]
            p0, (a, b) = pairs
            points.append(canonical([(-a, -b), p0])[0])
            break
        zs = aberth_roots([to_complex(c, den) for c in reversed(pairs)])
        for z in zs:
            cand = _snap_exact(z)
            if cand is not None and pairs_eval(pairs, *cand) == (0, 0):
                points.append(canonical(cand)[0])
                (a, b), d = cand
                pairs, den = _exact_quotient(pairs, den, [d, (-a, -b)])
                break
        else:
            return points, zs
    return points, []


# -- recurrence --------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceCertificate:
    """One of "recurrent", "never_returns", "no_return_within_depth" (see
    _status) or "undecided": a float point or any point of a float set,
    searched by nothing, with return_depths None."""

    status: str
    return_depths: tuple | None


def _escape_test(maps):
    """A predicate on exact points: true where |z|^2 > B when every map is a
    polynomial of degree >= 2, false everywhere for any other set. Such a
    point lies on no cycle, and neither do its images.

    With f = sum a_k z^k of degree d and A+ = sum_{k<d} |Re a_k| + |Im a_k|,
    which bounds sum_{k<d} |a_k|, a point with |z| > 1 has
    |f(z)| >= |z|^(d-1) (|a_d| |z| - A+). So |z|^2 > B, where B is the
    largest max(1, (1 + A+)^2 / |a_d|^2) over the set, gives
    |f(z)| > |z|^(d-1) >= |z| under every generator: the escape radius
    (Milnor, Dynamics in One Complex Variable, 3rd ed., section 9), taken
    over the semigroup as in Hinkkanen & Martin, Proc. LMS 73 (1996). The
    point [1 : w] is z = 1/w, so the test is w != 0 and |w|^2 B < 1.

    On ``f.pairs``, f(z) = sum N_k z^(d-k) / L with L the last pair, so
    a_(d-k) = N_k conj(L) / |L|^2 and B = S^2 / (|L|^2 |N_0|^2), where
    S = |L|^2 + sum_{k>0} |Re N_k conj(L)| + |Im N_k conj(L)|.
    """
    bound = Fraction(1)
    for f in maps:
        d = f.degree
        num, den = f.pairs[:d + 1], f.pairs[d + 1:]
        if d < 2 or any(map(any, den[:-1])):
            return lambda pt: False
        (p, q), (x, y) = den[-1], num[0]
        ll = p * p + q * q
        spread = ll + sum(abs(u * p + v * q) + abs(v * p - u * q) for u, v in num[1:])
        bound = max(bound, Fraction(spread * spread, ll * (x * x + y * y)))
    bn, bd = bound.numerator, bound.denominator

    def escapes(pt):
        # pt = [1 : w] with w = (a + b*i)/d, so |w|^2 B < 1 is
        # (a^2 + b^2) bn < d^2 bd; d = 0 at [0 : 1]
        (d, _), (a, b) = pt
        return d != 0 and (a != 0 or b != 0) and (a * a + b * b) * bn < d * d * bd
    return escapes


def _forward_graph(starts, step, depth: int, node_budget: int):
    """(points, succ): the points within depth steps of starts, breadth
    first from them, and for each point within depth - 1 steps, succ[u],
    the ids of step(points[u]) in order. So each point is stepped once, the
    graph is closed when len(succ) == len(points), and listing point
    node_budget + 1 raises BudgetExceeded."""
    ids, points, succ = {}, [], []

    def node(p) -> int:
        u = ids.get(p)
        if u is None:
            if len(points) == node_budget:
                raise BudgetExceeded("forward graph exceeded the node budget")
            u = ids[p] = len(points)
            points.append(p)
        return u

    for p in starts:
        node(p)
    for _ in range(depth):
        level_end = len(points)
        while len(succ) < level_end:
            succ.append(tuple(node(y) for y in step(points[len(succ)])))
    return points, succ


def _exact_step(maps):
    """An exact point's images under maps, in order, less the escaping
    points of _escape_test(maps), which is built once: they never return,
    and neither do their images, so return depths and cycles are those of
    the full forward set."""
    escapes = _escape_test(maps)
    return lambda pt: [y for f in maps if not escapes(y := exact_eval(f, pt))]


def _status(succ, u: int, depth: int) -> RecurrenceCertificate:
    """The certificate of node u, a start of succ: recurrent at each
    n <= depth with u in its own n-th image set (all expanded), else
    never_returns when every node reachable from u is expanded and none
    steps to u, else no_return_within_depth. Closure is read by reachability,
    not by level sets: a closed set can hold a return past depth when a
    second start lies on u's cycle."""
    level, returns = {u}, []
    for n in range(1, depth + 1):
        level = {v for w in level for v in succ[w]}
        if u in level:
            returns.append(n)
    if returns:
        return RecurrenceCertificate("recurrent", tuple(returns))
    seen, todo = {u}, [u]
    while todo:
        w = todo.pop()
        if w >= len(succ) or u in succ[w]:
            return RecurrenceCertificate("no_return_within_depth", ())
        todo += {*succ[w]} - seen
        seen.update(succ[w])
    return RecurrenceCertificate("never_returns", ())


def is_recurrent(c: Correspondence, x: ExactPoint, depth: int,
                 node_budget: int = NODE_BUDGET) -> RecurrenceCertificate:
    """The certificate of the exact point x under c's component maps, by
    the rule of certified_coincidences on a forward graph of its own;
    undecided when a component map is float. A graph larger than
    node_budget raises BudgetExceeded."""
    support = [f for f, _ in c.components]
    if not all(f.exact_coeffs for f in support):
        return RecurrenceCertificate("undecided", None)
    _, succ = _forward_graph([x], _exact_step(support), depth, node_budget)
    return _status(succ, 0, depth)


def _certify(gens: GeneratorSet, depth: int, node_budget: int):
    """(pairs, points, succ): certified_coincidences' pairs, and the one
    forward graph over gens.maps from the exact points of an exact set,
    which certifies them all; they are its first ids. Every other point is
    undecided, and nothing searches it."""
    cps = coincidence_set(gens)
    starts = [cp.exact_coords for cp in cps if gens.exact and cp.exact]
    points, succ = _forward_graph(starts, _exact_step(gens.maps), depth, node_budget)
    ids = iter(range(len(starts)))
    certs = [_status(succ, next(ids), depth) if gens.exact and cp.exact
             else RecurrenceCertificate("undecided", None) for cp in cps]
    return list(zip(cps, certs)), points, succ


def certified_coincidences(gens: GeneratorSet, depth: int,
                           node_budget: int = NODE_BUDGET) -> list[tuple]:
    """Each coincidence point paired with its RecurrenceCertificate, all
    read from the call's one exact forward graph."""
    return _certify(gens, depth, node_budget)[0]


# -- fiber entropy ------------------------------------------------------------------


@dataclass(frozen=True)
class FiberEntropyValue:
    """Cycle-average branching entropy over one periodic itinerary."""

    profile: tuple  # m_k over the cycle
    value: float


def fiber_entropy(gens: GeneratorSet, cycle) -> FiberEntropyValue:
    """Entropy of the shift relative to the decorations of one itinerary.

    For the periodic itinerary that repeats the cycle's points the fiber
    consists of its admissible label decorations; in the path metric those
    decorations coincide pointwise, so n-step distinguishability is purely
    symbolic and the count of distinguishable elements is the number of
    admissible words, whose growth rate is the cycle average of log m_k with
    m_k the number of generators realizing step k. Cross-validated against
    direct spanning counts in the test suite rather than trusted on its own.
    """
    cycle = tuple(cycle)
    if not cycle:
        raise InconsistentItinerary("cycle must be nonempty")

    def step_mult(a: ProjPoint, b: ProjPoint) -> int:
        m = sum(1 for f in gens.maps if chordal_dist(evaluate(f, a), b) <= RECURRENCE_TOL)
        if m == 0:
            raise InconsistentItinerary("a step is realized by no generator")
        return m

    profile = tuple(
        step_mult(cycle[k], cycle[(k + 1) % len(cycle)])
        for k in range(len(cycle))
    )
    value = sum(math.log(m) for m in profile) / len(cycle)
    return FiberEntropyValue(profile=profile, value=value)


# -- Friedland-type two-sided bounds --------------------------------------------------


@dataclass(frozen=True)
class FriedlandBounds:
    lower: float | None
    upper: float
    s_hat: float | None
    details: dict


def friedland_bounds(gens: GeneratorSet, depth: int = RECURRENCE_DEPTH,
                     node_budget: int = NODE_BUDGET) -> FriedlandBounds:
    """Two-sided bounds on the itinerary entropy for one generator set.

    upper = log(sum of degrees). lower = upper - S where S bounds the worst
    fiber entropy over itineraries through recurrent coincidence points: the
    maximum mean cycle weight of the explored forward graph, edges weighted
    by log(number of generators realizing the step). Positive weights only
    occur on edges leaving coincidence points, so any positive-mean cycle
    passes through one. The exploration is depth-capped; depth_cap_hit
    records that it left a node unexpanded or that some point is
    no_return_within_depth, when S is certified only to depth. Under
    polynomials of degree >= 2 the graph leaves out the escaping points of
    _escape_test, which lie on no cycle, so it often closes before the cap
    and S holds at every depth.

    S is log(P) / L for one optimal cycle, with P the product of its
    multiplicities (its profile) and L its length; the details name it.

    The bound needs every point decided: when the set has a float generator
    or any point is undecided, lower and s_hat are None and the graph is
    empty, since a float point's recurrence is not known.
    """
    upper = math.log(sum(gens.degrees))
    coincidences, points, succ = _certify(gens, depth, node_budget)
    statuses = [cert.status for _, cert in coincidences]
    details = {"coincidences": coincidences, "graph_nodes": 0, "graph_edges": 0,
               "depth_cap_hit": False, "exact": False, "cycle_points": (),
               "cycle_profile": (), "cycle_length": 0}
    if not gens.exact or "undecided" in statuses:
        return FriedlandBounds(lower=None, upper=upper, s_hat=None, details=details)

    # Karp's graph: the call's graph within depth steps of the recurrent
    # points (the points are its first ids, in order), renumbered breadth
    # first from them; it steps by reading succ
    nodes, inner = _forward_graph([u for u, s in enumerate(statuses) if s == "recurrent"],
                                  succ.__getitem__, depth, node_budget)
    edges = [(u, v, m) for u, out in enumerate(inner)  # (u, v, generators stepping u to v)
             for v, m in sorted(Counter(out).items())]
    cycle = _optimal_cycle(len(nodes), edges)
    profile = tuple(edges[e][2] for e in cycle)
    s_hat = math.log(math.prod(profile)) / len(cycle) if cycle else 0.0
    details.update(graph_nodes=len(nodes), graph_edges=len(edges),
                   depth_cap_hit=(len(inner) < len(nodes)
                                  or "no_return_within_depth" in statuses),
                   exact=True, cycle_points=tuple(points[nodes[edges[e][0]]] for e in cycle),
                   cycle_profile=profile, cycle_length=len(cycle))
    return FriedlandBounds(lower=max(upper - s_hat, 0.0), upper=upper, s_hat=s_hat,
                           details=details)


def _optimal_cycle(num_nodes: int, edges) -> list:
    """Edge indices, in walk order from its lowest node, of one cycle of
    maximum mean log multiplicity over edges (u, v, m); [] when acyclic.

    Karp runs on each strongly connected component that holds a cycle. Two
    components' cycles compare exactly, profile products P1^L2 against
    P2^L1; a tie keeps the shorter cycle, then the one found first.
    """
    best, best_p = [], 1
    for nodes, inner in _cyclic_components(num_nodes, edges):
        local = {node: i for i, node in enumerate(nodes)}
        _, cycle = karp_max_mean_cycle(
            len(nodes), [(local[edges[e][0]], local[edges[e][1]], math.log(edges[e][2]))
                         for e in inner])
        cycle = [inner[e] for e in cycle]
        p = math.prod(edges[e][2] for e in cycle)
        if not best or (p ** len(best), len(best)) > (best_p ** len(cycle), len(cycle)):
            best, best_p = cycle, p
    if best:
        start = min(range(len(best)), key=lambda k: edges[best[k]][0])
        best = best[start:] + best[:start]
    return best


def _cyclic_components(num_nodes: int, edges) -> list:
    """Tarjan's strongly connected components (1972), iteratively in
    O(n + E): (sorted nodes, indices of the edges inside) of each component
    that holds a cycle, that is two or more nodes or a self-loop."""
    succ: list = [[] for _ in range(num_nodes)]
    for u, v, _ in edges:
        succ[u].append(v)
    index, low = [-1] * num_nodes, [0] * num_nodes
    on_stack, stack, work, comp_of, found = [False] * num_nodes, [], [], {}, []

    def visit(v):
        index[v] = low[v] = len(comp_of) + len(stack)  # nodes visited so far
        stack.append(v)
        on_stack[v] = True
        work.append((v, iter(succ[v])))

    for root in range(num_nodes):
        if index[root] < 0:
            visit(root)
        while work:
            v, children = work[-1]
            for w in children:
                if index[w] < 0:
                    visit(w)
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    nodes = []
                    while not nodes or nodes[-1] != v:
                        nodes.append(stack.pop())
                        on_stack[nodes[-1]] = False
                        comp_of[nodes[-1]] = len(found)
                    found.append(sorted(nodes))
    inner: list = [[] for _ in found]
    for e, (u, v, _) in enumerate(edges):
        if comp_of[u] == comp_of[v]:
            inner[comp_of[u]].append(e)
    return [(nodes, es) for nodes, es in zip(found, inner)
            if len(nodes) > 1 or es]


def karp_max_mean_cycle(num_nodes: int, edges):
    """Karp's maximum mean cycle weight (Karp 1978) and one cycle of that
    mean: (mean, indices into edges in walk order), (None, None) when the
    graph is acyclic.

    F_k[v] = best weight of a k-edge walk ending at v (walks may start
    anywhere); the mean is max over v of min over k of
    (F_n[v] - F_k[v]) / (n - k), at the first node that reaches it. The
    cycle is the first one closed on the best n-edge walk into that node,
    read back through the (n + 1) x n rows and n x n predecessor edges;
    every cycle on that walk has the maximum mean. A row keeps the first
    edge, in input order, of the walks of its best weight.
    """
    n, neg = num_nodes, float("-inf")
    rows, preds = [[0.0] * n], []  # preds[k][t]: last edge of a best (k + 1)-edge walk to t
    for _ in range(n):
        prev, row, pred = rows[-1], [neg] * n, [-1] * n
        for e, (u, v, w) in enumerate(edges):
            if prev[u] + w > row[v]:
                row[v], pred[v] = prev[u] + w, e
        rows.append(row)
        preds.append(pred)
    mean = node = None
    for v in range(n):
        if rows[n][v] > neg:
            worst = min((rows[n][v] - rows[k][v]) / (n - k) for k in range(n))
            if mean is None or worst > mean:
                mean, node = worst, v
    if mean is None:
        return None, None
    walk, seen = [], {node: 0}
    for k in range(n - 1, -1, -1):  # n + 1 nodes on the walk, so one repeats
        walk.append(preds[k][node])
        node = edges[walk[-1]][0]
        if node in seen:
            return mean, walk[seen[node]:][::-1]
        seen[node] = len(walk)
    raise AssertionError("an n-edge walk over n nodes closes a cycle")
