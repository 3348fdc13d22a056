"""Seeded random configs at small settings: every run gives a report that
keeps the bound checks of ``fuzz_configs.bound_problems`` or one typed
error object, and repeats byte for byte (``tests/fuzz_configs.py`` runs
more of the same stream at the default settings)."""

import collections
import json

import pytest

from fuzz_configs import configs, outcome
from rsentropy import cli


@pytest.mark.parametrize("seed", [1, 2])
def test_random_configs_give_a_report_or_a_typed_error(seed, tmp_path, capsys):
    tally = collections.Counter()
    for k, cfg in enumerate(configs(seed, 12)):
        cfg.update(estimator={"nu_max": 4}, recurrence_depth=6, relations_word_length=2)
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        runs = []
        for _ in range(2):
            code = cli.main(["report", "--config", str(path)])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        result = outcome(*runs[0])
        assert not result.startswith("bad"), (cfg, result)
        tally[result] += 1
    assert tally["ok"] > 0, tally
