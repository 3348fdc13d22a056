"""Closed-form entropy values and degree bounds on projective spaces.

For a generator set of degrees (d_1, ..., d_N) acting on n-dimensional
projective space, the symbol-aware entropy equals log(sum of d_j^n), and
the intermediate dynamical degrees are d_p = sum of d_j^p with d_0 = N.
The general two-sided bound collapses there: every d_j^p with p < n is
dominated by d_j^n, and N by the same sum, so lower and upper agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyInput, positive_int


@dataclass(frozen=True)
class ExactEntropyRecord:
    """Exact entropy data for one degree tuple on P^n."""

    n: int
    degrees: tuple
    h_top_exact: float
    dynamical_degrees: tuple  # d_p for p = 0..n
    bounds: tuple  # (lower, upper)


def _checked(degrees, n: int) -> tuple:
    """(degrees as a tuple of ints, n as an int); EmptyInput on no degree,
    ValueError unless n and every degree are integers >= 1."""
    degrees = tuple(degrees)
    if not degrees:
        raise EmptyInput("need at least one degree")
    n = positive_int(n, "ambient dimension must be >= 1")
    return tuple(positive_int(d, "degrees must be positive integers") for d in degrees), n


def exact_htop(degrees, n: int) -> float:
    """log(sum of d_j^n) in nats."""
    degrees, n = _checked(degrees, n)
    return math.log(sum(d ** n for d in degrees))


def general_bounds_eval(degrees, n: int) -> tuple:
    """(lower, upper) for the two-sided entropy bound on P^n.

    lower = log(sum of d_j^n); upper = max of log(N), log(sum of d_j^n),
    and max over 0 < p < n of log(sum of d_j^p).
    """
    degrees, n = _checked(degrees, n)
    lower = exact_htop(degrees, n)
    candidates = [math.log(len(degrees)), lower]
    for p in range(1, n):
        candidates.append(math.log(sum(d ** p for d in degrees)))
    return (lower, max(candidates))


def exact_record(degrees, n: int) -> ExactEntropyRecord:
    """Full exact record: entropy, dynamical degrees, collapsed bounds."""
    degrees, n = _checked(degrees, n)
    value = exact_htop(degrees, n)
    dyn = tuple(sum(d ** p for d in degrees) for p in range(n + 1))
    return ExactEntropyRecord(
        n=n,
        degrees=degrees,
        h_top_exact=value,
        dynamical_degrees=dyn,
        bounds=general_bounds_eval(degrees, n),
    )
