"""The fast golden cases, run in process, byte for byte against the committed
outputs (``python3 tests/golden_outputs.py check`` runs every case)."""

import json
import re

import pytest

from golden_outputs import GOLDEN, HERE, differences, load_cases

FAST = {name: case for name, case in load_cases().items() if not case.get("slow")}


def test_the_corpus_covers_the_documented_runs():
    cases = load_cases()
    assert len(cases) > len(FAST) > 20
    commands = {case["command"].split()[0] for case in FAST.values()}
    assert commands == {"exact", "estimate", "friedland-bounds", "coincidence",
                        "relations", "report"}


def test_the_readme_configs_are_the_readme_example():
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    example = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    configs = GOLDEN / "configs"
    assert json.loads((configs / "readme.json").read_text(encoding="utf-8")) == example
    example["estimator"]["tree_budget"] = 100000
    assert json.loads((configs / "readme-budget-100000.json").read_text(encoding="utf-8")) == example


@pytest.mark.parametrize("name", FAST)
def test_golden_case_is_byte_identical(name):
    assert differences(name, FAST[name]) == []
