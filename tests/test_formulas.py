import json
import math

import numpy as np
import pytest

import rsentropy as rs
from rsentropy.errors import EmptyInput
from util import Z2, Z3


def test_exact_htop_examples():
    assert rs.exact_htop([2, 3], 1) == math.log(5)
    assert rs.exact_htop([7], 3) == pytest.approx(3 * math.log(7))
    assert rs.exact_htop([2, 2], 2) == math.log(8)
    with pytest.raises(EmptyInput):
        rs.exact_htop([], 1)


@pytest.mark.parametrize("call", [
    lambda: rs.exact_htop([2.5, 3.7], 1),
    lambda: rs.exact_htop([2, 3], 1.5),
    lambda: rs.exact_htop([2, 3], 1.0),
    lambda: rs.exact_htop([True, 3], 1),
    lambda: rs.exact_htop([2, 3], True),
    lambda: rs.exact_record([2.9], 1),
    lambda: rs.general_bounds_eval([1.9, 2], 2),
], ids=["float-degrees", "float-n", "integral-float-n", "bool-degree", "bool-n",
        "record", "bounds"])
def test_a_non_integer_degree_or_dimension_is_refused_not_truncated(call):
    with pytest.raises(ValueError, match="must be"):
        call()


def test_numpy_integers_are_integers():
    degrees, n = np.array([2, 3]), np.int64(2)
    assert rs.exact_htop(degrees, n) == math.log(13)
    record = rs.exact_record(degrees, n)
    assert record.dynamical_degrees == (2, 5, 13)
    assert all(type(d) is int for d in record.dynamical_degrees)


def test_general_bounds_examples():
    assert rs.general_bounds_eval([2, 3], 1) == (math.log(5), math.log(5))
    assert rs.general_bounds_eval([1, 1], 1) == (math.log(2), math.log(2))
    assert rs.general_bounds_eval([3], 2) == (math.log(9), math.log(9))


def test_bounds_always_collapse_on_projective_space():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        degrees = [int(rng.integers(1, 7)) for _ in range(int(rng.integers(1, 6)))]
        lower, upper = rs.general_bounds_eval(degrees, n)
        assert lower == upper == rs.exact_htop(degrees, n)


def test_dynamical_degrees_multiplicative():
    c = rs.build_correspondence(rs.GeneratorSet([Z2, Z3]))
    base = _expanded_degrees(c)
    for k in (2, 3):
        power = rs.corr_pow(c, k)
        powered = _expanded_degrees(power)
        for p in range(0, 2):
            assert sum(d ** p for d in powered) == sum(d ** p for d in base) ** k


def _expanded_degrees(c):
    out = []
    for f, m in c.components:
        out.extend([f.degree] * m)
    return out


def test_exact_record_fields():
    rec = rs.exact_record([2, 2], 2)
    assert rec.h_top_exact == math.log(8)
    assert rec.dynamical_degrees == (2, 4, 8)
    assert rec.bounds == (math.log(8), math.log(8))


def test_doubled_correspondence_record():
    # 2 * graph(z^2): degree list expands to (2, 2), entropy log 2 + log 2
    rec = rs.exact_record([2, 2], 1)
    assert rec.h_top_exact == pytest.approx(math.log(2) + math.log(2))
    assert rec.dynamical_degrees == (2, 4)


def test_report_round_trip_and_flags():
    report = rs.build_report(
        config_echo={"seed": 1},
        exact={"h_top_exact": math.log(5)},
        estimates={
            "dinh_sibony": {"value": math.log(5) + 0.2, "stderr": 0.01},
            "friedland": {"value": 0.3, "stderr": 0.05},
        },
        provenance={"seed": 1},
    )
    assert report.payload["flags"] == ["dinh_sibony_estimate_exceeds_bound"]
    ds = report.payload["estimates"]["dinh_sibony"]
    assert ds["delta_vs_exact"] == pytest.approx(0.2)

    text = report.to_json()
    assert json.loads(text) == report.payload
    assert rs.Report(json.loads(text)).to_json() == text
    assert json.loads(text)["exact"]["h_top_log2"] == pytest.approx(math.log2(5))


def test_report_exact_only():
    report = rs.build_report(config_echo={}, exact={"h_top_exact": math.log(2)})
    assert report.payload["estimates"] is None
    assert report.payload["flags"] == []
