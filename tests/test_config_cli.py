import dataclasses
import json
import logging
import math
import sys
from fractions import Fraction

import pytest

import rsentropy as rs
import jsonschema
from rsentropy import cli, coincidence, config, orbits
from rsentropy.config import config_schema
from rsentropy.errors import BadScalarLiteral, SchemaViolation, UnreadableFile
from util import Z2, Z3

Z23_CONFIG = {
    "space": "P1",
    "generators": [
        {"num": ["1", "0", "0"], "den": ["0", "0", "1"]},
        {"num": ["1", "0", "0", "0"], "den": ["0", "0", "0", "1"]},
    ],
}


@pytest.fixture(autouse=True)
def keep_log_level():
    # cli.main sets the rsentropy logger's level from RSENTROPY_LOG
    logger = logging.getLogger("rsentropy")
    level = logger.level
    yield
    logger.setLevel(level)


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_scalar_forms():
    assert rs.parse_scalar(3) == rs.GaussianRational(3)
    assert rs.parse_scalar("2/5") == rs.GaussianRational(Fraction(2, 5))
    s = rs.parse_scalar({"re": "1/2", "im": "-3/4"})
    assert s == rs.GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    with pytest.raises(BadScalarLiteral):
        rs.parse_scalar("one half")


def test_minimal_config_defaults(tmp_path):
    cfg = rs.parse_config(write_config(tmp_path, {
        "generators": [{"num": ["1", "0", "0"], "den": ["0", "0", "1"]}],
    }))
    assert cfg.seed == 0
    assert cfg.multiplicities == (1,)
    assert cfg.estimator["epsilon_grid"] == [0.02, 0.05, 0.1, 0.2]
    assert cfg.degrees == (2,)
    echo = cfg.echo()
    assert echo["seed"] == 0 and echo["estimator"]["nu_max"] == 12


def test_config_common_factor_points_at_generator(tmp_path):
    bad = {"generators": [{"num": ["0", "1", "0"], "den": ["0", "0", "1"]}]}
    with pytest.raises(SchemaViolation) as err:
        rs.parse_config(write_config(tmp_path, bad))
    assert err.value.pointer == "/generators/0"


def test_config_schema_pointer(tmp_path):
    bad = {"generators": [{"num": ["1", "0"], "den": ["0", "1"]}], "seed": -3}
    with pytest.raises(SchemaViolation) as err:
        rs.parse_config(write_config(tmp_path, bad))
    assert err.value.pointer == "/seed"


def test_config_schema_is_valid_against_its_metaschema():
    # load_config validates with a validator built once, without this check
    schema = config_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)
    assert config._validator() is config._validator()


@pytest.mark.parametrize("bad", [
    {"generators": [{"num": ["1", "0"], "den": ["0", "1"]}], "seed": -3},
    {"generators": [{"num": ["1", "0"]}]},
    {"generators": "z^2"},
    {"space": "P3", "n": 0, "seed": "x"},
    {"estimator": {"epsilon_grid": [], "nu_min": 0, "tree_budget": 1.5}},
    {"budgets": {"node_budget": 0, "word_budget": -1}},
    {"degrees": [2], "recurrence_depth": -1, "output": {"csv_path": 3}},
    {"unknown": 1, "seed": 2},
    [],
])
def test_config_errors_match_jsonschema_validate(bad):
    # the same error as jsonschema.validate, which checks the schema first
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(bad, config_schema())
    with pytest.raises(SchemaViolation) as got:
        config.load_config(bad)
    assert got.value.__cause__.message == want.value.message
    assert list(got.value.__cause__.absolute_path) == list(want.value.absolute_path)


@pytest.mark.parametrize("edit, pointer", [
    ({"seed": 2.0}, "/seed"),
    ({"recurrence_depth": 3.0}, "/recurrence_depth"),
    ({"relations_word_length": 2.0}, "/relations_word_length"),
    ({"multiplicities": [2.0, 1]}, "/multiplicities/0"),
    ({"estimator": {"nu_max": 4.0}}, "/estimator/nu_max"),
    ({"estimator": {"tree_budget": 100.0}}, "/estimator/tree_budget"),
    ({"budgets": {"node_budget": 100.0}}, "/budgets/node_budget"),
    ({"budgets": {"word_budget": 100.0}}, "/budgets/word_budget"),
    ({"space": "Pn", "n": 2.0}, "/n"),
    ({"space": "Pn", "degrees": [2.0, 3]}, "/degrees/0"),
])
def test_config_rejects_an_integral_float_where_it_asks_for_an_integer(edit, pointer):
    # draft-07 counts 2.0 as an integer; the run needs an int
    with pytest.raises(SchemaViolation) as err:
        config.load_config(dict(Z23_CONFIG, **edit))
    assert err.value.pointer == pointer


def test_config_rejects_a_repeated_epsilon(tmp_path, capsys):
    bad = dict(Z23_CONFIG, estimator={"epsilon_grid": [0.1, 0.1, 0.2]})
    with pytest.raises(SchemaViolation) as err:
        config.load_config(bad)
    assert err.value.pointer == "/estimator/epsilon_grid"
    assert cli.main(["estimate", "--config", write_config(tmp_path, bad)]) == 1
    out = json.loads(capsys.readouterr().out)["error"]
    assert (out["type"], out["pointer"]) == ("SchemaViolation", "/estimator/epsilon_grid")


def test_config_exact_scalar_objects(tmp_path):
    cfg = rs.parse_config(write_config(tmp_path, {
        "generators": [{
            "num": [{"re": "1"}, {"re": "1/2", "im": "-3/4"}],
            "den": ["0", "1"],
        }],
    }))
    c = cfg.generators[0].num[1]
    assert c == rs.GaussianRational(Fraction(1, 2), Fraction(-3, 4))


def test_config_unreadable():
    with pytest.raises(UnreadableFile):
        rs.parse_config("/nonexistent/path.json")


def test_cli_exact_values(tmp_path, capsys):
    path = write_config(tmp_path, Z23_CONFIG)
    assert cli.main(["exact", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exact"]["h_top_exact"] == math.log(5)
    assert report["exact"]["d_top"] == 5

    mobius = {
        "generators": [
            {"num": ["1", "1"], "den": ["0", "1"]},   # z + 1
            {"num": ["2", "0"], "den": ["0", "1"]},   # 2z
        ],
    }
    assert cli.main(["exact", "--config", write_config(tmp_path, mobius, "m.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exact"]["h_top_exact"] == math.log(2)


def test_cli_error_json(tmp_path, capsys):
    bad = {"generators": [{"num": ["0", "1", "0"], "den": ["0", "0", "1"]}]}
    code = cli.main(["exact", "--config", write_config(tmp_path, bad)])
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "SchemaViolation"
    assert err["error"]["pointer"] == "/generators/0"


@pytest.mark.parametrize("flag,key", [
    ("--report", None), ("--csv", None), (None, "report_path"), (None, "csv_path")])
def test_cli_unwritable_output_prints_only_the_error(tmp_path, capsys, flag, key):
    target = str(tmp_path / "missing" / "out")
    cfg = dict(Z23_CONFIG, estimator={"nu_min": 2, "nu_max": 4, "epsilon_grid": [0.2]})
    if key:
        cfg["output"] = {key: target}
    argv = ["estimate", "--config", write_config(tmp_path, cfg), "--method", "ds"]
    assert cli.main(argv + ([flag, target] if flag else [])) == 1
    # stdout holds the error object alone, not the report before it
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "UnwritableFile" and target in err["message"]


@pytest.mark.parametrize("level,code", [("bogus", 1), ("10", 1), ("info", 0)])
def test_cli_unknown_log_level_is_an_error_object(tmp_path, capsys, monkeypatch,
                                                  level, code):
    monkeypatch.setenv("RSENTROPY_LOG", level)
    assert cli.main(["exact", "--config", write_config(tmp_path, Z23_CONFIG)]) == code
    out = json.loads(capsys.readouterr().out)
    if code:
        assert out["error"]["type"] == "UnknownLogLevel"
        assert repr(level) in out["error"]["message"]
    else:
        assert out["exact"]["h_top_exact"] == math.log(5)


def test_cli_relations(tmp_path, capsys):
    z24 = {
        "generators": [
            {"num": ["1", "0", "0"], "den": ["0", "0", "1"]},
            {"num": ["1", "0", "0", "0", "0"], "den": ["0", "0", "0", "0", "1"]},
        ],
    }
    assert cli.main(["relations", "--config", write_config(tmp_path, z24),
                     "--word-length", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    rel = report["relations"]
    assert rel["relations"] == 1
    assert rel["relation_witnesses"] == [[[1, 2], [2, 1]]]


def test_cli_relation_witnesses_are_the_first_related_entries(tmp_path, capsys):
    # Chebyshev T2, T3 at length 5: the witnesses are the word lists of the
    # ledger's entries with multiplicity above 1, in sort_key order, first 10
    t2 = {"num": ["2", "0", "-1"], "den": ["0", "0", "1"]}
    t3 = {"num": ["4", "0", "-3", "0"], "den": ["0", "0", "0", "1"]}
    assert cli.main(["relations", "--config",
                     write_config(tmp_path, {"generators": [t2, t3]}),
                     "--word-length", "5"]) == 0
    rel = json.loads(capsys.readouterr().out)["relations"]
    ledger = rs.enumerate_words(rs.GeneratorSet([
        rs.make_map([2, 0, -1], [0, 0, 1]), rs.make_map([4, 0, -3, 0], [0, 0, 0, 1])]), 5)
    oracle = [[list(w) for w in words]
              for f, (mult, words) in sorted(ledger.entries.items(),
                                             key=lambda fw: fw[0].sort_key())
              if mult > 1][:10]
    assert (rel["total_words"], rel["distinct"], rel["relations"]) == (32, 6, 26)
    assert len(oracle) == 4
    assert rel["relation_witnesses"] == oracle


def test_cli_word_length_is_applied_and_echoed(tmp_path, capsys):
    cfg = dict(Z23_CONFIG, recurrence_depth=4,
               estimator={"nu_min": 2, "nu_max": 4, "epsilon_grid": [0.2]})
    path = write_config(tmp_path, cfg)
    for command in ("relations", "report"):
        assert cli.main([command, "--config", path, "--word-length", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["relations_word_length"] == 3
        assert report["relations"]["word_length"] == 3
        assert report["relations"]["total_words"] == 8


def test_cli_estimate_deterministic_csv(tmp_path):
    cfg = dict(Z23_CONFIG)
    cfg["estimator"] = {"nu_min": 2, "nu_max": 4, "epsilon_grid": [0.1, 0.2]}
    path = write_config(tmp_path, cfg)
    outs = []
    for run in (1, 2):
        report = tmp_path / f"r{run}.json"
        csv = tmp_path / f"c{run}.csv"
        assert cli.main(["estimate", "--config", path, "--method", "ds",
                         "--seed", "42", "--report", str(report),
                         "--csv", str(csv)]) == 0
        outs.append((report.read_bytes(), csv.read_bytes()))
    assert outs[0] == outs[1]
    header = outs[0][1].decode().splitlines()[0]
    assert header == "method,epsilon,nu,count,exact_flag,pool_size"


def test_cli_symbolic_dimension_run(tmp_path, capsys):
    cfg = {"space": "Pn", "n": 2, "degrees": [2, 2]}
    assert cli.main(["exact", "--config", write_config(tmp_path, cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exact"]["h_top_exact"] == math.log(8)
    assert report["exact"]["dynamical_degrees"] == [2, 4, 8]
    assert "d_top" not in report["exact"]


def test_info_logging_leaves_report_unchanged(tmp_path, caplog):
    cfg = dict(Z23_CONFIG)
    cfg["estimator"] = {"nu_min": 2, "nu_max": 4, "epsilon_grid": [0.1, 0.2]}
    path = write_config(tmp_path, cfg)
    outs = []
    for level in (logging.WARNING, logging.INFO):
        report = tmp_path / f"r{level}.json"
        csv = tmp_path / f"c{level}.csv"
        with caplog.at_level(level, logger="rsentropy"):
            assert cli.main(["report", "--config", path, "--report", str(report),
                             "--csv", str(csv)]) == 0
        outs.append((report.read_bytes(), csv.read_bytes()))
    assert outs[0] == outs[1]
    greedy = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("greedy count:")]
    # the nu = 4 Friedland pool (625 orbits) is counted greedily at both eps
    assert any("mode=friedland eps=0.1 nu=4 block=625" in m for m in greedy)
    assert any("mode=friedland eps=0.2 nu=4 block=625" in m for m in greedy)


def test_log_level_applies_under_a_root_handler(tmp_path, capsys, caplog, monkeypatch):
    # pytest's capture handler sits on the root logger, so basicConfig sets
    # no level here; RSENTROPY_LOG must still reach the rsentropy logger
    monkeypatch.setenv("RSENTROPY_LOG", "INFO")
    cfg = dict(Z23_CONFIG, estimator={"nu_min": 2, "nu_max": 4, "epsilon_grid": [0.2]})
    argv = ["estimate", "--config", write_config(tmp_path, cfg), "--method", "friedland"]
    assert cli.main(argv) == 0
    greedy = [r for r in caplog.records if r.getMessage().startswith("greedy count:")]
    assert any("nu=4 block=625" in r.getMessage() for r in greedy)
    assert all(r.levelno == logging.INFO for r in greedy)


# (mode, nu, epsilon, count, exact, pool_size) of every count row of the
# report on the benchmark's README config: tree_budget 5000, seed 42
README_REPORT_COUNTS = [
    ("dinh_sibony", 2, 0.02, 25, True, 25), ("dinh_sibony", 2, 0.05, 25, True, 25),
    ("dinh_sibony", 2, 0.1, 25, True, 25), ("dinh_sibony", 2, 0.2, 25, True, 25),
    ("dinh_sibony", 3, 0.02, 125, False, 125), ("dinh_sibony", 3, 0.05, 125, False, 125),
    ("dinh_sibony", 3, 0.1, 125, False, 125), ("dinh_sibony", 3, 0.2, 125, False, 125),
    ("dinh_sibony", 4, 0.02, 625, False, 625), ("dinh_sibony", 4, 0.05, 625, False, 625),
    ("dinh_sibony", 4, 0.1, 625, False, 625), ("dinh_sibony", 4, 0.2, 625, False, 625),
    ("dinh_sibony", 5, 0.02, 3125, False, 3125), ("dinh_sibony", 5, 0.05, 3125, False, 3125),
    ("dinh_sibony", 5, 0.1, 3125, False, 3125), ("dinh_sibony", 5, 0.2, 3125, False, 3125),
    ("friedland", 2, 0.02, 25, False, 25), ("friedland", 2, 0.05, 25, False, 25),
    ("friedland", 2, 0.1, 23, False, 25), ("friedland", 2, 0.2, 17, False, 25),
    ("friedland", 3, 0.02, 124, False, 125), ("friedland", 3, 0.05, 120, False, 125),
    ("friedland", 3, 0.1, 107, False, 125), ("friedland", 3, 0.2, 74, False, 125),
    ("friedland", 4, 0.02, 610, False, 625), ("friedland", 4, 0.05, 580, False, 625),
    ("friedland", 4, 0.1, 501, False, 625), ("friedland", 4, 0.2, 315, False, 625),
    ("friedland", 5, 0.02, 3013, False, 3125), ("friedland", 5, 0.05, 2813, False, 3125),
    ("friedland", 5, 0.1, 2338, False, 3125), ("friedland", 5, 0.2, 1355, False, 3125),
]


def test_report_counts_are_pinned(tmp_path, capsys):
    cfg = dict(Z23_CONFIG, seed=42, estimator={
        "epsilon_grid": [0.02, 0.05, 0.1, 0.2], "nu_min": 2, "nu_max": 8,
        "tree_budget": 5000})
    assert cli.main(["report", "--config", write_config(tmp_path, cfg)]) == 0
    estimates = json.loads(capsys.readouterr().out)["estimates"]
    rows = [(mode, c["nu"], c["epsilon"], c["count"], c["exact"], c["pool_size"])
            for mode in ("dinh_sibony", "friedland") for c in estimates[mode]["counts"]]
    assert rows == README_REPORT_COUNTS


@pytest.mark.parametrize("command,stages", [
    ("report", {"tree", "counts", "coincidence", "relations"}),
    ("estimate", {"tree", "counts"}),
])
def test_timing_records_stage_times(tmp_path, capsys, command, stages):
    cfg = dict(Z23_CONFIG, estimator={"nu_min": 2, "nu_max": 4, "epsilon_grid": [0.1, 0.2]})
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", path, "--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    stage_s = timed["provenance"]["stage_s"]
    assert set(stage_s) == stages and all(s >= 0 for s in stage_s.values())
    assert sum(stage_s.values()) <= timed["provenance"]["wall_time_s"] + 0.005
    # without --timing the report holds no time, and is otherwise the same
    assert cli.main([command, "--config", path]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert set(plain["provenance"]) == {"version", "seed", "budgets", "subcommand"}
    for key in ("wall_time_s", "stage_s"):
        del timed["provenance"][key]
    assert timed == plain


def test_cli_report_subcommand(tmp_path, capsys):
    cfg = dict(Z23_CONFIG)
    cfg["estimator"] = {"nu_min": 2, "nu_max": 4, "epsilon_grid": [0.1, 0.2]}
    path = write_config(tmp_path, cfg)
    assert cli.main(["report", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["estimates"]) == {"dinh_sibony", "friedland", "per_word"}
    pw = report["estimates"]["per_word"]
    assert pw["available"] and pw["sum_matches_joint"]
    assert report["coincidence"]["friedland_bounds"]["upper"] == math.log(5)
    assert report["relations"]["relations"] == 1  # monomials commute
    assert report["flags"] == []


BOTH_METHODS = {"dinh_sibony", "friedland"}


@pytest.mark.parametrize("argv, methods, bounds, relations", [
    (["exact"], None, None, False),
    (["estimate"], BOTH_METHODS, None, False),
    (["estimate", "--method", "ds"], {"dinh_sibony"}, None, False),
    (["friedland-bounds"], None, True, False),
    (["coincidence"], None, False, False),
    (["relations"], None, None, True),
    (["report"], BOTH_METHODS, True, True),
    (["report", "--method", "ds"], BOTH_METHODS, True, True),
])
def test_cli_runs_the_sections_of_its_command(tmp_path, capsys, argv, methods, bounds,
                                              relations):
    # bounds: None without a coincidence section, else whether it holds them
    cfg = dict(Z23_CONFIG, recurrence_depth=4,
               estimator={"nu_min": 2, "nu_max": 4, "epsilon_grid": [0.1, 0.2]})
    assert cli.main([*argv, "--config", write_config(tmp_path, cfg), "--timing"]) == 0
    report = json.loads(capsys.readouterr().out)
    estimates, section = report["estimates"], report["coincidence"]
    assert (estimates and set(estimates) - {"per_word"}) == methods
    assert (section and "friedland_bounds" in section) == bounds
    assert (report["relations"] is not None) == relations
    stages = ({"tree", "counts"} if methods else set()) | (
        {"coincidence"} if bounds is not None else set()) | (
        {"relations"} if relations else set())
    assert set(report["provenance"]["stage_s"]) == stages


def test_cli_coincidence_section(tmp_path, capsys):
    translations = {
        "generators": [
            {"num": ["1", "1"], "den": ["0", "1"]},
            {"num": ["1", {"re": "0", "im": "1"}], "den": ["0", "1"]},
        ],
    }
    path = write_config(tmp_path, translations)
    assert cli.main(["friedland-bounds", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    pts = report["coincidence"]["points"]
    assert [p["point"] for p in pts] == ["inf"]
    assert pts[0]["recurrent"] and pts[0]["exact"]
    fb = report["coincidence"]["friedland_bounds"]
    assert fb["lower"] == 0.0 and fb["upper"] == math.log(2)

    # the plain coincidence subcommand reports points without the bounds
    assert cli.main(["coincidence", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "friedland_bounds" not in report["coincidence"]
    assert [p["point"] for p in report["coincidence"]["points"]] == ["inf"]


def test_cli_bounds_withheld_without_an_exact_graph(tmp_path, capsys):
    # configs hold exact scalars only; {z^2 - 2, 2z^2 + z - 3} meets at the
    # inexact 2-cycle (-1 +- sqrt 5)/2 of z^2 - 2, so no exact graph is built
    cfg = {"generators": [
        {"num": ["1", "0", "-2"], "den": ["0", "0", "1"]},
        {"num": ["2", "1", "-3"], "den": ["0", "0", "1"]},
    ], "recurrence_depth": 8}
    assert cli.main(["friedland-bounds", "--config", write_config(tmp_path, cfg)]) == 0
    section = json.loads(capsys.readouterr().out)["coincidence"]
    assert [p["recurrent"] for p in section["points"]] == [True, True, True]
    assert section["friedland_bounds"] == {
        "lower": None, "upper": math.log(4), "s_hat": None, "graph_nodes": 0,
        "graph_edges": 0, "depth_cap_hit": False, "exact": False,
        "cycle_points": [], "cycle_profile": [], "cycle_length": 0}


@pytest.mark.parametrize("depth", (10, 12, 40))
def test_cli_basilica_bounds_name_the_cycle(tmp_path, capsys, depth):
    # {z^2 - 1, z^3 - 1} closes at its escape radius: the fixed point at
    # infinity, reached by both maps, is the optimal cycle at every depth
    cfg = {"generators": [
        {"num": ["1", "0", "-1"], "den": ["0", "0", "1"]},
        {"num": ["1", "0", "0", "-1"], "den": ["0", "0", "0", "1"]},
    ], "recurrence_depth": depth}
    assert cli.main(["friedland-bounds", "--config", write_config(tmp_path, cfg)]) == 0
    section = json.loads(capsys.readouterr().out)["coincidence"]
    assert section["friedland_bounds"] == {
        "lower": math.log(5) - math.log(2), "upper": math.log(5), "s_hat": math.log(2),
        "graph_nodes": 4, "graph_edges": 4, "depth_cap_hit": False, "exact": True,
        "cycle_points": ["inf"], "cycle_profile": [2], "cycle_length": 1}


@pytest.mark.parametrize("section,key,value", [
    ("estimator", "start_pool", 200),
    ("estimator", "mp_beta", 0.9),
    ("budgets", "orbit_budget", 200000),
    ("tolerances", "compare", 1e-12),
    ("tolerances", "residual", 1e-9),
    ("tolerances", "recurrence", 1e-9),
])
def test_cli_rejects_deleted_knobs(tmp_path, capsys, section, key, value):
    cfg = dict(Z23_CONFIG, **{section: {key: value}})
    assert cli.main(["exact", "--config", write_config(tmp_path, cfg)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "SchemaViolation"
    # the whole tolerances section is gone: every float match uses 1e-9
    assert err["pointer"] == ("/tolerances" if section == "tolerances"
                              else f"/{section}/{key}")


@pytest.mark.parametrize("args,pointer", [
    (("exact", "--seed", "-1"), "/seed"),
    (("relations", "--word-length", "-2"), "/relations_word_length"),
    (("relations", "--word-length", "0"), "/relations_word_length"),
])
def test_cli_override_out_of_schema_bounds(tmp_path, capsys, args, pointer):
    path = write_config(tmp_path, Z23_CONFIG)
    assert cli.main(list(args) + ["--config", path]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["pointer"]) == ("SchemaViolation", pointer)


@pytest.mark.parametrize("command,flag,key,value", [
    ("exact", "--seed", "seed", -1),
    ("relations", "--word-length", "relations_word_length", 0),
])
def test_cli_override_fails_like_the_config_key(tmp_path, capsys, command, flag, key, value):
    in_file = write_config(tmp_path, dict(Z23_CONFIG, **{key: value}), "bad.json")
    assert cli.main([command, "--config", in_file]) == 1
    from_file = json.loads(capsys.readouterr().out)
    path = write_config(tmp_path, Z23_CONFIG)
    assert cli.main([command, "--config", path, flag, str(value)]) == 1
    assert json.loads(capsys.readouterr().out) == from_file


@pytest.mark.parametrize("args", [(), ("--seed", "3")])
def test_cli_rejects_a_config_that_is_not_an_object(tmp_path, capsys, args):
    assert cli.main(["exact", "--config", write_config(tmp_path, []), *args]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["pointer"]) == ("SchemaViolation", "/")


def test_echo_holds_every_field_as_set(tmp_path):
    data = dict(
        Z23_CONFIG, n=1, degrees=[2, 3], multiplicities=[2, 1], seed=5,
        estimator={"epsilon_grid": [0.1, 0.3], "nu_min": 3, "nu_max": 6,
                   "tree_budget": 999},
        budgets={"word_budget": 11, "degree_budget": 12, "node_budget": 13},
        relations_word_length=4, recurrence_depth=7,
        output={"report_path": "r.json", "csv_path": "c.csv"})
    assert set(data) == set(config_schema()["properties"])
    echo = rs.parse_config(write_config(tmp_path, data)).echo()
    assert list(echo) == [f.name for f in dataclasses.fields(rs.RunConfig)]
    assert [{"num": g["num"], "den": g["den"]} for g in echo.pop("generators")] == \
        data.pop("generators")
    assert echo == data


@pytest.mark.parametrize("command,section,key,value", [
    ("estimate", "estimator", "epsilon_grid", [math.nan]),
    ("coincidence", "budgets", "node_budget", math.inf),
    ("exact", "estimator", "nu_max", -math.inf),
])
def test_cli_rejects_non_finite_json_numbers(tmp_path, capsys, command, section, key, value):
    # json.dumps writes NaN / Infinity / -Infinity, which plain json.loads reads
    path = write_config(tmp_path, dict(Z23_CONFIG, **{section: {key: value}}))
    assert cli.main([command, "--config", path]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "SchemaViolation"
    assert "non-finite number" in err["message"]


def _counting(monkeypatch, module, name):
    """Count calls of module.name, wherever a package module imported it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("rsentropy") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_cli_report_shares_one_tree(tmp_path, capsys, monkeypatch):
    cfg = dict(Z23_CONFIG, seed=42)
    cfg["estimator"] = {"nu_min": 2, "nu_max": 4, "epsilon_grid": [0.1, 0.2]}
    expansions = _counting(monkeypatch, orbits, "_expand_tree")
    assert cli.main(["report", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(expansions) == 1
    pw = json.loads(capsys.readouterr().out)["estimates"]["per_word"]

    corr = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))
    pool = rs.preimage_tree(corr, rs.sample_points(1, 42 + 9001)[0], 2)
    per_word, joint, equal = rs.sum_up_partition(pool, 0.1)
    assert pw == {
        "available": True, "nu": 2, "epsilon": 0.1, "joint": joint,
        "sum_matches_joint": equal,
        "per_word": {",".join(map(str, w)): c for w, c in per_word.items()},
    }


def test_cli_bounds_certify_each_point_once(tmp_path, capsys, monkeypatch):
    basilica = {"generators": [
        {"num": ["1", "0", "-1"], "den": ["0", "0", "1"]},
        {"num": ["1", "0", "0", "-1"], "den": ["0", "0", "0", "1"]},
    ], "recurrence_depth": 6}
    calls = _counting(monkeypatch, coincidence, "is_recurrent")
    assert cli.main(["friedland-bounds", "--config",
                     write_config(tmp_path, basilica)]) == 0
    points = json.loads(capsys.readouterr().out)["coincidence"]["points"]
    assert len(points) == 3
    assert len(calls) == len(points)
