"""Growth-rate estimation of entropy from separated-set counts.

The estimators fit log(count) against orbit length over a ladder of lengths
and take the best slope across an epsilon grid. Counts come from backward
orbit trees of a seeded generic terminal: one tree expanded to the top of
the ladder supplies a pool at every depth, and its per-word branch families
are exactly the separated families whose product-of-degrees size drives the
lower bound for the symbol-aware entropy. Forward pools from affordable
start counts saturate near log(pool size)/nu and systematically undershoot,
so they are not mixed in.

Estimates are lower bounds with a regression standard error, not certified
values; the fitted slope of a pool-limited count can only undershoot the
sup/limsup it approximates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .correspondence import Correspondence, GeneratorSet, build_correspondence, d_top
from .errors import InsufficientData
from .orbits import TREE_BUDGET, OrbitPool, affordable_depth, preimage_tree_levels
from .projective import chordal_dist, ring_around, sample_points
from .ratmap import evaluate, fs_jacobian
from .separation import (
    _count_classes,
    _greedy,
    _pair_source,
    _walk_plan,
    _word_blocks,
    count_separated,
)

EPSILON_GRID = (0.02, 0.05, 0.1, 0.2)
NU_MIN, NU_MAX = 2, 12

INJECTIVITY_CAP = 0.2
INJECTIVITY_FLOOR = 1e-4
RING_SAMPLES = 12
SCALES_PER_GENERATOR = 40
JAC_SAFETY = 1.05


@dataclass(frozen=True)
class EntropyEstimate:
    """Fitted growth rate in nats with its provenance."""

    value: float
    epsilon_grid: tuple
    nu_range: tuple
    slope_stderr: float
    method: str
    seed: int
    best_epsilon: float


def entropy_fit(counts, method: str = "", seed: int = 0) -> EntropyEstimate:
    """Least-squares slope of log(count) vs nu per epsilon; best slope wins.

    Needs at least three distinct nu values for every epsilon present. The
    reported value is clamped at zero (the quantities estimated are
    nonnegative) and carries the regression standard error of the winning
    epsilon.
    """
    by_eps: dict = {}
    for c in counts:
        by_eps.setdefault(c.epsilon, {})[c.nu] = c.count
    if not by_eps:
        raise InsufficientData("no counts supplied")

    best = None
    for eps in sorted(by_eps):
        cells = by_eps[eps]
        if len(cells) < 3:
            raise InsufficientData(
                f"epsilon {eps} has {len(cells)} nu values; need at least 3")
        nus = np.array(sorted(cells), dtype=float)
        logs = np.array([math.log(cells[int(n)]) for n in nus])
        slope, stderr = _ols_slope(nus, logs)
        if best is None or slope > best[0]:
            best = (slope, stderr, eps)

    slope, stderr, eps = best
    nus_all = sorted({c.nu for c in counts})
    return EntropyEstimate(
        value=max(slope, 0.0),
        epsilon_grid=tuple(sorted(by_eps)),
        nu_range=(nus_all[0], nus_all[-1]),
        slope_stderr=stderr,
        method=method or counts[0].mode,
        seed=seed,
        best_epsilon=eps,
    )


def _ols_slope(xs, ys):
    xbar = xs.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    slope = float(((xs - xbar) * (ys - ys.mean())).sum()) / sxx
    resid = ys - (ys.mean() + slope * (xs - xbar))
    dof = len(xs) - 2
    if dof <= 0:
        return slope, 0.0
    s2 = float((resid ** 2).sum()) / dof
    return slope, math.sqrt(s2 / sxx)


def ladder_tree(c: Correspondence, nu_min: int, nu_max: int, seed: int,
                tree_budget: int) -> dict[int, OrbitPool]:
    """Backward tree levels for the nu ladder, from the seed's terminal point.

    The ladder is cut down from nu_max to the deepest affordable tree; at
    least three rungs nu_min.. must survive. One tree serves every rung.
    """
    top = affordable_depth(c, nu_max, tree_budget)
    nus = list(range(nu_min, top + 1))
    if len(nus) < 3:
        raise InsufficientData(
            f"budget {tree_budget} leaves ladder {nus}; need 3 rungs")
    terminal = sample_points(1, seed + 9001)[0]
    return preimage_tree_levels(c, terminal, top, 0.0, budget=tree_budget)


def estimate_entropy(c: Correspondence, method: str,
                     epsilon_grid=EPSILON_GRID,
                     nu_min: int = NU_MIN, nu_max: int = NU_MAX,
                     seed: int = 0,
                     tree_budget: int = TREE_BUDGET,
                     levels: dict | None = None):
    """(estimate, rows) for method 'ds' or 'friedland'.

    Counts run over ladder_tree(c, nu_min, nu_max, seed, tree_budget), or
    over the given levels of that same tree when the caller already has it.
    An epsilon grid that repeats an epsilon raises ValueError, and an empty
    one InsufficientData, before a tree is built.
    """
    mode = {"ds": "dinh_sibony", "friedland": "friedland"}.get(method)
    if mode is None:
        raise ValueError(f"unknown method {method!r}")
    if not epsilon_grid:
        raise InsufficientData("empty epsilon grid")
    if len(set(epsilon_grid)) < len(epsilon_grid):
        raise ValueError(f"epsilon grid {list(epsilon_grid)} repeats an epsilon")
    if levels is None:
        levels = ladder_tree(c, nu_min, nu_max, seed, tree_budget)
    rows = []
    for i_nu, nu in enumerate(range(nu_min, max(levels) + 1)):
        # the plan, word blocks and pair list serve every eps; each level's
        # go before the next level's are built
        classes = _count_classes(levels[nu], mode, max(epsilon_grid))
        for i_eps, eps in enumerate(epsilon_grid):
            cell_seed = seed * 10007 + i_nu * 101 + i_eps
            rows.append(count_separated(levels[nu], eps, mode, seed=cell_seed,
                                        classes=classes))
        del classes
    return entropy_fit(rows, method=mode, seed=seed), rows


# -- the pruned-tree lower-bound family -----------------------------------------


@dataclass(frozen=True)
class MpFamily:
    """A verified separated family built from a pruned backward tree."""

    family: OrbitPool
    epsilon: float
    count: int
    jacobian_bound: float
    jacobian_floor: float
    pruned: bool
    dropped: int


def jacobian_bound(gens: GeneratorSet, seed: int, samples: int = 400) -> float:
    """Safe upper estimate of the largest Jacobian over all generators."""
    pts = sample_points(samples, seed)
    return JAC_SAFETY * max([0.0] + [fs_jacobian(f, p) for f in gens.maps for p in pts])


def injectivity_scale(f, center) -> float:
    """Largest tested radius at which f looks injective on the chordal ball.

    Proxy: images of a ring sample must not fold onto each other, i.e. the
    minimum pairwise image distance must stay comparable to the expected
    conformal spacing. Halves the radius from INJECTIVITY_CAP until the
    proxy passes, down to INJECTIVITY_FLOOR. Downstream separation never
    trusts this value: families are re-verified pairwise at the returned scale.
    """
    jac = fs_jacobian(f, center)
    r = INJECTIVITY_CAP
    while r > INJECTIVITY_FLOOR:
        pts = ring_around(center, r, RING_SAMPLES)
        images = [evaluate(f, p) for p in pts]
        spacing = max(2.0 * math.pi * r * math.sqrt(max(jac, 1e-12)) / RING_SAMPLES, 1e-12)
        if not any(chordal_dist(a, b) < 0.05 * spacing
                   for a, b in itertools.combinations(images, 2)):
            return r
        r *= 0.5
    return INJECTIVITY_FLOOR


def mp_family(gens: GeneratorSet, beta: float, nu: int, seed: int,
              samples: int = 400, tree_budget: int = TREE_BUDGET) -> MpFamily:
    """Separated family from the low-Jacobian-pruned backward tree.

    The pruning floor is delta(beta) = L^(-beta/(1-beta)) for a sampled
    Jacobian bound L; steps whose preimages all stay above the floor branch
    fully, the rest collapse to one low-Jacobian branch. The separation
    radius is the smallest sampled injectivity scale over the high-Jacobian
    regions, floored at 1e-4. The family is then verified within each label
    word at that radius by the greedy count in pool order; violators are
    dropped (none are expected for a generic terminal) so the returned family
    is separated by construction, not by trust.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    bound = jacobian_bound(gens, seed, samples)
    floor = bound ** (-beta / (1.0 - beta)) if bound > 1.0 else 0.0

    pts = sample_points(samples, seed + 17)
    eps = INJECTIVITY_CAP
    for f in gens.maps:
        high = (p for p in pts if not fs_jacobian(f, p) < floor)
        for p in itertools.islice(high, SCALES_PER_GENERATOR):
            eps = min(eps, injectivity_scale(f, p))
    eps = max(eps, INJECTIVITY_FLOOR)

    corr = build_correspondence(gens)
    terminal = sample_points(1, seed + 23)[0]
    tree = preimage_tree_levels(corr, terminal, nu, floor,
                                budget=tree_budget)[nu]

    # no pair crosses words, so one pass in pool order runs each word's greedy
    pairs = _pair_source(_walk_plan(tree, True), eps)
    kept = np.array(_greedy(pairs, np.arange(len(tree)), len(tree))[0], dtype=np.intp)
    kept = kept[np.argsort(_word_blocks(tree.symbols)[1][kept], kind="stable")]

    return MpFamily(
        family=tree[kept],
        epsilon=eps,
        count=len(kept),
        jacobian_bound=bound,
        jacobian_floor=floor,
        pruned=len(tree) < d_top(corr) ** nu,
        dropped=len(tree) - len(kept),
    )
