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

    h_top_exact: float
    dynamical_degrees: tuple  # d_p for p = 0..n
    bounds: tuple  # (lower, upper)


def _dynamical_degrees(degrees, n: int) -> tuple:
    """(d_0, ..., d_n), d_p the sum of d_j^p; EmptyInput on no degree,
    ValueError unless n and every degree are integers >= 1."""
    degrees = tuple(degrees)
    if not degrees:
        raise EmptyInput("need at least one degree")
    n = positive_int(n, "ambient dimension must be >= 1")
    degrees = [positive_int(d, "degrees must be positive integers") for d in degrees]
    return tuple(sum(d ** p for d in degrees) for p in range(n + 1))


def exact_htop(degrees, n: int) -> float:
    """log(sum of d_j^n) in nats."""
    return math.log(_dynamical_degrees(degrees, n)[-1])


def general_bounds_eval(degrees, n: int) -> tuple:
    """(lower, upper) for the two-sided entropy bound on P^n.

    lower = log(sum of d_j^n); upper = max of log(N), log(sum of d_j^n),
    and max over 0 < p < n of log(sum of d_j^p).
    """
    return exact_record(degrees, n).bounds


def exact_record(degrees, n: int) -> ExactEntropyRecord:
    """Full exact record: entropy, dynamical degrees, collapsed bounds.
    N is d_0, so the upper bound is the largest log d_p."""
    dyn = _dynamical_degrees(degrees, n)
    lower = math.log(dyn[-1])
    return ExactEntropyRecord(h_top_exact=lower, dynamical_degrees=dyn,
                              bounds=(lower, max(map(math.log, dyn))))
