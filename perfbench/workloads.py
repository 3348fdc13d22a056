"""The benchmark's workloads: fixed configs, the CLI calls made on them, and
the correctness check of every call.

A workload is a sequence of ``rsentropy`` CLI calls (one *cycle*). The
generators and settings are fixed; only the config ``seed`` comes from the
benchmark's ``--seed``, and it moves only the estimator workloads (the
exact-arithmetic workloads ignore it).

Configs are smaller than the README-scale runs they stand for, so that one
cycle takes seconds rather than minutes and a run holds several cycles; see
README.md in this directory for the full-size figures.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

LOG2 = math.log(2.0)
LOG5 = math.log(5.0)
LOG10 = math.log(10.0)
EXACT_TOL = 1e-12


def _quadratic(c):
    """z -> z^2 + c as a homogeneous coefficient pair."""
    return {"num": ["1", "0", c], "den": ["0", "0", "1"]}


def _gaussian(re, im):
    return {"re": re, "im": im}


Z2 = _quadratic("0")
Z3 = {"num": ["1", "0", "0", "0"], "den": ["0", "0", "0", "1"]}
Z3_MINUS_1 = {"num": ["1", "0", "0", "-1"], "den": ["0", "0", "0", "1"]}
CHEBYSHEV_T2 = {"num": ["2", "0", "-1"], "den": ["0", "0", "1"]}
CHEBYSHEV_T3 = {"num": ["4", "0", "-3", "0"], "den": ["0", "0", "0", "1"]}
HALF_Z2_PLUS_I = {"num": ["1/2", "0", _gaussian("0", "1/2")], "den": ["0", "0", "1"]}


@dataclass(frozen=True)
class Op:
    """One CLI call: the config it reads, its arguments, and its check."""

    config: str
    args: tuple
    check: object  # callable(report dict) -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    configs: object  # callable(seed) -> {config name: config dict}
    ops: tuple


# -- checks: each returns a list of problems, empty when the report is right --


def _close(value, target, tol):
    return isinstance(value, (int, float)) and abs(value - target) <= tol


def _within(value, low, high):
    return isinstance(value, (int, float)) and low <= value <= high


def check_report_readme(r):
    problems = []
    if r.get("flags") != []:
        problems.append(f"flags raised: {r.get('flags')}")
    if not _close(r["exact"].get("h_top_exact"), LOG5, EXACT_TOL):
        problems.append("h_top_exact is not log 5")
    ds = r["estimates"]["dinh_sibony"]["value"]
    if not _within(ds, 0.75 * LOG5, LOG5 + 0.05):
        problems.append(f"ds estimate {ds} outside [0.75 log 5, log 5 + 0.05]")
    fb = r["coincidence"]["friedland_bounds"]
    if not _close(fb.get("upper"), LOG5, EXACT_TOL):
        problems.append("Friedland upper bound is not log 5")
    if not _within(fb.get("lower"), -math.inf, fb.get("upper", -math.inf)):
        problems.append("Friedland lower bound exceeds the upper bound")
    rel = r["relations"]
    if (rel.get("total_words"), rel.get("distinct"), rel.get("relations")) != (4, 3, 1):
        problems.append("length-2 ledger is not 4 words, 3 distinct, 1 relation")
    if r["estimates"]["per_word"].get("sum_matches_joint") is not True:
        problems.append("per-word sum does not match the joint count")
    return problems


def check_tree_quad5(r):
    problems = []
    ds = r["estimates"]["dinh_sibony"]
    for row in ds["counts"]:
        if row["pool_size"] != 10 ** row["nu"]:
            problems.append(f"pool at nu {row['nu']} has {row['pool_size']} orbits")
    if not _within(ds["value"], 0.75 * LOG10, LOG10 + 0.05):
        problems.append(f"ds estimate {ds['value']} outside [0.75 log 10, log 10 + 0.05]")
    return problems


def check_bounds_basilica(r):
    problems = []
    fb = r["coincidence"]["friedland_bounds"]
    if not _close(fb.get("upper"), LOG5, EXACT_TOL):
        problems.append("upper bound is not log 5")
    if not _close(fb.get("s_hat"), LOG2, 1e-9):
        problems.append(f"s_hat {fb.get('s_hat')} is not log 2")
    return problems


def _ledger_check(words, distinct, relations):
    def check(r):
        rel = r["relations"]
        got = (rel.get("total_words"), rel.get("distinct"), rel.get("relations"))
        if got != (words, distinct, relations):
            return [f"ledger (words, distinct, relations) = {got}, "
                    f"expected {(words, distinct, relations)}"]
        return []
    return check


def judge(op, returncode, text, first_text=None):
    """Problems with one call's outcome; empty when it is correct.

    ``first_text`` is the report the same call produced in the run's first
    cycle: a report must repeat byte for byte at one seed, count rows
    included.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        report = json.loads(text)
        problems = op.check(report)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]
    if first_text is not None and text != first_text:
        problems.append("report differs from the first cycle's at the same seed")
    return problems


# -- the workloads -----------------------------------------------------------


def _readme_configs(seed):
    # README {z^2, z^3} config. tree_budget 5000 (default 20000) cuts the
    # configured nu 2..8 to 2..5 instead of 2..6, so one report takes
    # seconds, and separation still dominates it.
    return {"readme": {
        "generators": [Z2, Z3],
        "seed": seed,
        "estimator": {"epsilon_grid": [0.02, 0.05, 0.1, 0.2],
                      "nu_min": 2, "nu_max": 8, "tree_budget": 5000},
    }}


def _quad5_configs(seed):
    # d_top = 10 keeps every per-word block at most 32 orbits, so tree
    # expansion (preimages / Aberth) rather than counting dominates.
    quads = [_quadratic("0"), _quadratic("1/4"), _quadratic("-1"),
             _quadratic(_gaussian("0", "1")), _quadratic(_gaussian("-1/2", "1/2"))]
    return {"quad5": {
        "generators": quads,
        "seed": seed,
        "estimator": {"epsilon_grid": [0.05], "nu_min": 2, "nu_max": 4,
                      "tree_budget": 10 ** 6},
    }}


def _basilica_configs(seed):
    # 0 -> -1 -> 0 is a recurrent coincidence point; its exact forward graph
    # reaches 514 nodes at depth 10 (2,050 at the default depth 12).
    return {"basilica": {
        "generators": [_quadratic("-1"), Z3_MINUS_1],
        "seed": seed,
        "recurrence_depth": 10,
    }}


def _ledger_configs(seed):
    # Chebyshev T2, T3 commute (many relations); z^2 - 1 and (z^2 + i)/2
    # have none, so the two calls sit at opposite ends of relation share.
    return {
        "chebyshev": {"generators": [CHEBYSHEV_T2, CHEBYSHEV_T3], "seed": seed},
        "free": {"generators": [_quadratic("-1"), HALF_Z2_PLUS_I], "seed": seed},
    }


WORKLOADS = {w.name: w for w in (
    Workload(
        name="report-readme",
        configs=_readme_configs,
        ops=(Op("readme", ("report",), check_report_readme),),
    ),
    Workload(
        name="tree-quad5",
        configs=_quad5_configs,
        ops=(Op("quad5", ("estimate", "--method", "ds"), check_tree_quad5),),
    ),
    Workload(
        name="bounds-basilica",
        configs=_basilica_configs,
        ops=(Op("basilica", ("friedland-bounds",), check_bounds_basilica),),
    ),
    Workload(
        name="ledger-mixed",
        configs=_ledger_configs,
        ops=(
            Op("chebyshev", ("relations", "--word-length", "5"), _ledger_check(32, 6, 26)),
            Op("free", ("relations", "--word-length", "6"), _ledger_check(64, 64, 0)),
        ),
    ),
)}


def write_configs(workload, seed, directory):
    """Write the workload's configs for ``seed`` as <name>.json files."""
    os.makedirs(directory, exist_ok=True)
    for name, data in workload.configs(seed).items():
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
