"""The benchmark's correctness checks count wrong results as failures, and
its tracer records spans through the package's by-name imports.

    python3 -m pytest perfbench
"""

import copy
import io
import json
import math
import os

import pytest

import tracer
import worker
from workloads import LOG2, LOG5, LOG10, WORKLOADS, judge

GOOD = {
    "report-readme": [{
        "flags": [],
        "exact": {"h_top_exact": LOG5},
        "estimates": {"dinh_sibony": {"value": LOG5},
                      "per_word": {"sum_matches_joint": True}},
        "coincidence": {"friedland_bounds": {"lower": LOG5 - LOG2, "upper": LOG5}},
        "relations": {"total_words": 4, "distinct": 3, "relations": 1},
    }],
    "tree-quad5": [{
        "estimates": {"dinh_sibony": {"value": LOG10, "counts": [
            {"nu": nu, "pool_size": 10 ** nu} for nu in (2, 3, 4)]}},
    }],
    "bounds-basilica": [{
        "coincidence": {"friedland_bounds": {"upper": LOG5, "s_hat": LOG2}},
    }],
    "ledger-mixed": [
        {"relations": {"total_words": 32, "distinct": 6, "relations": 26}},
        {"relations": {"total_words": 64, "distinct": 64, "relations": 0}},
    ],
}

# (workload, op index, key path, wrong value)
WRONG = [
    ("report-readme", 0, ("flags",), ["dinh_sibony_estimate_exceeds_bound"]),
    ("report-readme", 0, ("exact", "h_top_exact"), math.log(6)),
    ("report-readme", 0, ("estimates", "dinh_sibony", "value"), 0.7 * LOG5),
    ("report-readme", 0, ("estimates", "dinh_sibony", "value"), LOG5 + 0.06),
    ("report-readme", 0, ("coincidence", "friedland_bounds", "upper"), math.log(6)),
    ("report-readme", 0, ("coincidence", "friedland_bounds", "lower"), LOG5 + 0.01),
    ("report-readme", 0, ("relations", "total_words"), 8),
    ("report-readme", 0, ("relations", "distinct"), 4),
    ("report-readme", 0, ("relations", "relations"), 0),
    ("report-readme", 0, ("estimates", "per_word", "sum_matches_joint"), False),
    ("report-readme", 0, ("coincidence",), None),
    ("tree-quad5", 0, ("estimates", "dinh_sibony", "counts", 1, "pool_size"), 999),
    ("tree-quad5", 0, ("estimates", "dinh_sibony", "value"), 0.7 * LOG10),
    ("tree-quad5", 0, ("estimates", "dinh_sibony", "value"), LOG10 + 0.06),
    ("bounds-basilica", 0, ("coincidence", "friedland_bounds", "upper"), math.log(6)),
    ("bounds-basilica", 0, ("coincidence", "friedland_bounds", "s_hat"), LOG2 + 1e-8),
    ("ledger-mixed", 0, ("relations", "distinct"), 7),
    ("ledger-mixed", 0, ("relations", "relations"), 25),
    ("ledger-mixed", 1, ("relations", "total_words"), 128),
    ("ledger-mixed", 1, ("relations", "relations"), 1),
]


def _set(report, path, value):
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


class FakeCli:
    """Stands in for rsentropy.cli: prints canned reports, one per call."""

    def __init__(self, reports):
        self.reports = reports
        self.calls = 0

    def main(self, argv):
        print(json.dumps(self.reports[self.calls % len(self.reports)]), end="")
        self.calls += 1
        return 0


def _loop(name, reports, seconds=0.0):
    w = WORKLOADS[name]
    paths = {op.config: f"{op.config}.json" for op in w.ops}
    return worker.run_loop(FakeCli(reports), w, paths, seconds, False, None)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_good_reports_pass(name):
    result = _loop(name, GOOD[name])
    # two cycles at least: a warm-up and a timed one
    assert result["attempted"] == 2 * len(WORKLOADS[name].ops)
    assert result["failed"] == 0
    assert all(probe_s > 0 for _, _, probe_s in result["cycles"])


@pytest.mark.parametrize("name,op,path,value", WRONG)
def test_wrong_result_counts_as_failed(name, op, path, value):
    reports = copy.deepcopy(GOOD[name])
    _set(reports[op], path, value)
    assert judge(WORKLOADS[name].ops[op], 0, json.dumps(reports[op]))
    result = _loop(name, reports)
    assert result["failed"] == 2  # once in each of the two cycles


def test_every_workload_has_a_wrong_case():
    assert {w for w, *_ in WRONG} == set(WORKLOADS)


def test_nonzero_exit_and_bad_json_fail():
    op = WORKLOADS["bounds-basilica"].ops[0]
    good = json.dumps(GOOD["bounds-basilica"][0])
    assert judge(op, 0, good) == []
    assert judge(op, 1, good)
    assert judge(op, 0, good[:-1])


def test_report_that_changes_between_cycles_fails():
    op = WORKLOADS["bounds-basilica"].ops[0]
    first = GOOD["bounds-basilica"][0]
    later = copy.deepcopy(first)
    later["coincidence"]["friedland_bounds"]["graph_nodes"] = 7
    assert judge(op, 0, json.dumps(later), first_text=json.dumps(first))
    result = _loop("bounds-basilica", [first, later], seconds=0.05)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"] // 2


def test_tracer_rebinds_by_name_imports_and_restores_them():
    worker._import_program()
    from rsentropy import orbits, ratmap
    from rsentropy.correspondence import GeneratorSet, build_correspondence
    from rsentropy.projective import point_at

    original = ratmap.preimages
    corr = build_correspondence(GeneratorSet([ratmap.make_map([1, 0, 0], [0, 0, 1])]))
    t = tracer.Tracer()
    t.install()
    try:
        assert orbits.preimages is not original
        t.call("cli.main", orbits.preimage_tree, corr, point_at(0.3 + 0.1j), 2)
    finally:
        t.uninstall()
    assert orbits.preimages is original and ratmap.preimages is original

    summary = tracer.summarize(t.spans)
    assert summary["orbits.tree"]["calls"] == 1
    assert summary["orbits.tree"]["attrs"]["nodes"] == 1 + 2 + 4
    assert summary["ratmap.preimages"]["calls"] == 1 + 2
    tree = next(i for i, s in enumerate(t.spans) if s.name == "orbits.tree")
    assert all(s.parent == tree for s in t.spans if s.name == "ratmap.preimages")
    busy, own = summary["orbits.tree"]["busy_s"], summary["orbits.tree"]["self_s"]
    assert 0.0 <= own <= busy
    out = io.StringIO()
    t.write(out, 0.0, 0)
    assert len(out.getvalue().splitlines()) == len(t.spans)


def test_benchmark_json_names_every_metric():
    path = os.path.join(os.path.dirname(worker.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == ["wall_rel", "setup_s", "peak_rss_mb"]
    layers = list(worker.layer_metrics({})) + ["trace.overhead_s"]
    assert [m["name"] for m in doc["per_layer"]] == layers
