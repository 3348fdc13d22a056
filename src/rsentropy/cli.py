"""Command-line entry point.

Subcommands: exact, estimate, friedland-bounds, coincidence, relations,
report. All take --config pointing at a JSON run configuration; results are
written as canonical JSON (and optionally CSV count rows). Module errors,
an unwritable output path and an unknown log level exit 1 with only a
machine-readable error object on stdout; --strict escalates
bound-violation flags to exit code 2. Log verbosity comes from the
RSENTROPY_LOG environment variable only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from functools import cache

from .coincidence import certified_coincidences, exact_to_proj, friedland_bounds
from .config import RunConfig, parse_config
from .correspondence import (
    build_correspondence,
    d_top,
    enumerate_words,
    support_degree,
)
from .errors import BudgetExceeded, RsentropyError, UnknownLogLevel, UnwritableFile
from .estimate import estimate_entropy, ladder_tree
from .formulas import exact_record
from .report import build_report, counts_to_csv
from .separation import sum_up_partition

log = logging.getLogger("rsentropy")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        level = os.environ.get("RSENTROPY_LOG")
        # basicConfig checks and sets the level only when the root logger has
        # no handler, so a level that is given also goes on our own logger
        if level is not None:
            if not isinstance(logging.getLevelName(level.upper()), int):
                raise UnknownLogLevel(f"RSENTROPY_LOG={level!r} names no logging level")
            log.setLevel(level.upper())
        logging.basicConfig(level=(level or "WARNING").upper())
        cfg = parse_config(args.config, {
            "seed": args.seed, "relations_word_length": args.word_length})
        started, stages = time.monotonic(), {}
        payload, rows = _dispatch(args, cfg, stages)
        provenance = {
            "seed": cfg.seed,
            "budgets": dict(cfg.budgets),
            "subcommand": args.command,
        }
        if args.timing:
            provenance["wall_time_s"] = round(time.monotonic() - started, 3)
            provenance["stage_s"] = {k: round(v, 3) for k, v in stages.items()}
        report = build_report(cfg.echo(), provenance=provenance, **payload)
        # files first, so a failed write prints only the error object
        text = report.to_json()
        report_path = args.report or cfg.output.get("report_path")
        if report_path:
            _write(report_path, text)
        csv_path = args.csv or cfg.output.get("csv_path")
        if csv_path and rows is not None:
            _write(csv_path, counts_to_csv(rows))
    except RsentropyError as exc:
        error = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "pointer": getattr(exc, "pointer", None),
            }
        }
        print(json.dumps(error, sort_keys=True))
        return 1

    if not report_path:
        print(text, end="")
    if args.strict and report.payload["flags"]:
        log.warning("strict mode: flags %s", report.payload["flags"])
        return 2
    return 0


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UnwritableFile(f"cannot write {path}: {exc}") from exc


@cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rsentropy",
        description="entropy of finitely generated rational semigroups")
    parser.add_argument("command", choices=[
        "exact", "estimate", "friedland-bounds", "coincidence",
        "relations", "report"])
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--method", choices=["ds", "friedland", "both"],
                        default="both", help="estimator selection (estimate)")
    parser.add_argument("--word-length", type=int, default=None,
                        help="relation search length (relations)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--report", default=None, help="report JSON path")
    parser.add_argument("--csv", default=None, help="count-rows CSV path")
    parser.add_argument("--strict", action="store_true",
                        help="nonzero exit when bound flags are raised")
    parser.add_argument("--timing", action="store_true",
                        help="record wall and stage times (breaks byte-identity of reports)")
    return parser


@contextmanager
def _stage(stages, name):
    """Add the seconds the block takes to stages[name]."""
    started = time.monotonic()
    try:
        yield
    finally:
        stages[name] = stages.get(name, 0.0) + time.monotonic() - started


def _dispatch(args, cfg: RunConfig, stages):
    """(payload, rows) of the command, the payload keyed by build_report's
    section parameters; ``stages`` gets the seconds of each stage that ran:
    tree, counts, coincidence and relations. ``report`` runs every section,
    its estimates by both methods."""
    command, rows = args.command, None
    payload = {"exact": _exact_section(cfg)}
    if command in ("estimate", "report"):
        method = "both" if command == "report" else args.method
        payload["estimates"], rows = _estimate_section(cfg, method, stages)
    if command in ("friedland-bounds", "coincidence", "report"):
        with _stage(stages, "coincidence"):
            payload["coincidence"] = _coincidence_section(
                cfg, with_bounds=command != "coincidence")
    if command in ("relations", "report"):
        with _stage(stages, "relations"):
            payload["relations"] = _relations_section(cfg)
    return payload, rows


def _expanded_degrees(cfg: RunConfig):
    out = []
    for d, m in zip(cfg.degrees, cfg.multiplicities):
        out.extend([d] * m)
    return tuple(out)


def _exact_section(cfg: RunConfig) -> dict:
    section = dataclasses.asdict(exact_record(_expanded_degrees(cfg), cfg.n))
    if cfg.generators:
        corr = build_correspondence(cfg.generator_set(), cfg.multiplicities)
        section["d_top"] = d_top(corr)
        section["support_degree"] = support_degree(corr)
    return section


def _estimate_section(cfg: RunConfig, method: str, stages):
    corr = build_correspondence(cfg.generator_set(), cfg.multiplicities)
    methods = ["ds", "friedland"] if method == "both" else [method]
    section = {}
    rows = []
    est_cfg = cfg.estimator
    with _stage(stages, "tree"):
        levels = ladder_tree(corr, est_cfg["nu_min"], est_cfg["nu_max"], cfg.seed,
                             est_cfg["tree_budget"])
    with _stage(stages, "counts"):
        for m in methods:
            est, cells = estimate_entropy(
                corr, m,
                epsilon_grid=tuple(est_cfg["epsilon_grid"]),
                nu_min=est_cfg["nu_min"],
                nu_max=est_cfg["nu_max"],
                seed=cfg.seed,
                levels=levels,
            )
            section[est.method] = {
                "value": est.value,
                "stderr": est.slope_stderr,
                "best_epsilon": est.best_epsilon,
                "epsilon_grid": list(est.epsilon_grid),
                "nu_range": list(est.nu_range),
                "seed": est.seed,
                "counts": [
                    {"epsilon": r.epsilon, "nu": r.nu, "count": r.count,
                     "exact": r.exact, "pool_size": r.pool_size}
                    for r in cells
                ],
            }
            rows.extend(cells)
        section["per_word"] = _per_word_section(levels, cfg)
    return section, rows


def _per_word_section(levels, cfg: RunConfig):
    """Exact per-word maxima over the tree's nu_min pool, when small enough."""
    nu = cfg.estimator["nu_min"]
    eps = cfg.estimator["epsilon_grid"][0]
    try:
        per_word, joint, equal = sum_up_partition(levels[nu], eps)
    except BudgetExceeded as exc:
        return {"available": False, "reason": str(exc)}
    return {
        "available": True,
        "nu": nu,
        "epsilon": eps,
        "joint": joint,
        "sum_matches_joint": equal,
        "per_word": {",".join(map(str, w)): c for w, c in per_word.items()},
    }


def _point_label(point) -> str:
    if point.is_infinity():
        return "inf"
    z = point.affine()
    return repr(z)


def _coincidence_section(cfg: RunConfig, with_bounds: bool) -> dict:
    gens = cfg.generator_set()
    depth = cfg.recurrence_depth
    budget = cfg.budgets["node_budget"]
    if with_bounds:
        fb = friedland_bounds(gens, depth, node_budget=budget)
        pairs = fb.details["coincidences"]
    else:
        pairs = certified_coincidences(gens, depth, node_budget=budget)
    entries = []
    for cp, cert in pairs:
        entries.append({
            "point": _point_label(cp.point),
            "exact": cp.exact,
            "witnesses": sorted(list(w) for w in cp.witnesses),
            "recurrent": cert.status == "recurrent",
            "return_depths": list(cert.return_depths),
        })
    section = {"points": entries, "depth": depth}
    if with_bounds:
        section["friedland_bounds"] = {
            "lower": fb.lower,
            "upper": fb.upper,
            "s_hat": fb.s_hat,
            "graph_nodes": fb.details["graph_nodes"],
            "graph_edges": fb.details["graph_edges"],
            "depth_cap_hit": fb.details["depth_cap_hit"],
            "exact": fb.details["exact"],
            "cycle_points": [_point_label(exact_to_proj(pt))
                             for pt in fb.details["cycle_points"]],
            "cycle_profile": list(fb.details["cycle_profile"]),
            "cycle_length": fb.details["cycle_length"],
        }
    return section


def _relations_section(cfg: RunConfig) -> dict:
    gens = cfg.generator_set()
    ledger = enumerate_words(
        gens, cfg.relations_word_length,
        word_budget=cfg.budgets["word_budget"],
        degree_budget=cfg.budgets["degree_budget"])
    section = {
        "word_length": ledger.length,
        "total_words": ledger.total_words,
        "distinct": ledger.distinct,
        "relations": ledger.relations,
        "relation_detection": ledger.exact,
    }
    if ledger.exact:
        related = sorted(((f, words) for f, (mult, words) in ledger.entries.items()
                          if mult > 1), key=lambda fw: fw[0].sort_key())
        section["relation_witnesses"] = [[list(w) for w in words]
                                         for _, words in related[:10]]
    return section


if __name__ == "__main__":
    sys.exit(main())
