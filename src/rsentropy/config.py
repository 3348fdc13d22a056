"""Run configuration: schema validation, exact scalar parsing, defaults.

Exact scalars in configs are fraction strings or {"re": "p/q", "im": "r/s"}
objects, never JSON floats, so exact data is never laundered through binary
floating point on ingestion. Every default is filled explicitly and echoed
back into the report.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, fields
from functools import cache
from importlib import resources

from jsonschema.exceptions import best_match
from jsonschema.validators import extend, validator_for

from .coincidence import NODE_BUDGET, RECURRENCE_DEPTH
from .correspondence import DEGREE_BUDGET, WORD_BUDGET, GeneratorSet
from .errors import (
    BadScalarLiteral,
    RsentropyError,
    SchemaViolation,
    UnreadableFile,
)
from .estimate import EPSILON_GRID, NU_MAX, NU_MIN
from .gaussian import GaussianRational
from .orbits import TREE_BUDGET
from .ratmap import make_map

DEFAULTS = {
    "space": "P1",
    "n": 1,
    "multiplicities": None,  # all ones
    "seed": 0,
    "estimator": {
        "epsilon_grid": list(EPSILON_GRID),
        "nu_min": NU_MIN,
        "nu_max": NU_MAX,
        "tree_budget": TREE_BUDGET,
    },
    "budgets": {
        "word_budget": WORD_BUDGET,
        "degree_budget": DEGREE_BUDGET,
        "node_budget": NODE_BUDGET,
    },
    "relations_word_length": 2,
    "recurrence_depth": RECURRENCE_DEPTH,
    "output": {"report_path": None, "csv_path": None},
}


def config_schema() -> dict:
    text = resources.files("rsentropy").joinpath("config_schema.json").read_text()
    return json.loads(text)


@cache
def _validator():
    """The schema's validator, built once per process. Unlike
    jsonschema.validate it does not check the schema itself on every call;
    the tests check it against its metaschema. Its "integer" is a Python
    int that is not a bool: draft-07 also counts an integral float such as
    2.0, which the run cannot use as a count, a seed or a length."""
    schema = config_schema()
    base = validator_for(schema)
    checker = base.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
    return extend(base, type_checker=checker)(schema)


def parse_scalar(raw) -> GaussianRational:
    """One exact scalar from an int, 'p/q' string, or {re, im} object."""
    if isinstance(raw, bool):
        raise BadScalarLiteral("booleans are not scalars")
    if isinstance(raw, int):
        return GaussianRational(raw)
    if isinstance(raw, str):
        return GaussianRational(raw)
    if isinstance(raw, dict):
        return GaussianRational(raw.get("re", 0), raw.get("im", 0))
    raise BadScalarLiteral(f"cannot parse scalar {raw!r}")


@dataclass
class RunConfig:
    """Validated configuration with all defaults resolved."""

    space: str
    n: int
    generators: tuple  # of RationalMap, possibly empty for Pn runs
    degrees: tuple
    multiplicities: tuple
    seed: int
    estimator: dict
    budgets: dict
    relations_word_length: int
    recurrence_depth: int
    output: dict

    def generator_set(self) -> GeneratorSet:
        if not self.generators:
            raise SchemaViolation("this run needs explicit generators", "/generators")
        return GeneratorSet(self.generators)

    def echo(self) -> dict:
        """The resolved configuration as written into reports, one key per field."""
        echo = {f.name: copy.copy(getattr(self, f.name)) for f in fields(self)}
        echo.update(generators=[
            {"num": [c.literal() for c in g.num], "den": [c.literal() for c in g.den],
             "degree": g.degree, "exact": g.exact_coeffs}
            for g in self.generators
        ], degrees=list(self.degrees), multiplicities=list(self.multiplicities))
        return echo


def _merged(defaults: dict, given: dict) -> dict:
    """given over defaults, merged key by key inside nested dicts, each a new dict."""
    out = dict(defaults, **given)
    for key, value in defaults.items():
        if isinstance(value, dict):
            out[key] = _merged(value, given.get(key, {}))
    return out


def load_config(data: dict) -> RunConfig:
    """Validate a config dict and resolve it to a RunConfig."""
    error = best_match(_validator().iter_errors(data))  # as jsonschema.validate
    if error is not None:
        path = list(error.absolute_path)
        if error.validator == "additionalProperties":  # point at the first unknown key
            path += sorted(set(error.instance) - set(error.schema["properties"]))[:1]
        pointer = "/" + "/".join(str(p) for p in path)
        raise SchemaViolation(error.message, pointer) from error

    merged = _merged(DEFAULTS, data)
    if merged["space"] == "P1" and merged["n"] != 1:
        raise SchemaViolation("P1 runs require n = 1", "/n")
    if merged["space"] == "Pn" and "degrees" not in data and "generators" not in data:
        raise SchemaViolation("Pn runs need a degrees list", "/degrees")

    generators = []
    for idx, g in enumerate(data.get("generators", [])):
        try:
            num = [parse_scalar(c) for c in g["num"]]
            den = [parse_scalar(c) for c in g["den"]]
            generators.append(make_map(num, den))
        except RsentropyError as exc:
            raise SchemaViolation(str(exc), f"/generators/{idx}") from exc
    generators = tuple(generators)

    degrees = tuple(g.degree for g in generators) or tuple(data.get("degrees", ()))
    if generators and "degrees" in data and tuple(data["degrees"]) != degrees:
        raise SchemaViolation(f"degrees {data['degrees']} are not the generators' "
                              f"degrees {list(degrees)}", "/degrees")
    if generators and merged["n"] != 1:
        raise SchemaViolation("runs with generators are on the sphere: n = 1", "/n")
    if not degrees:
        raise SchemaViolation("no generators and no degrees", "/generators")

    mults = merged["multiplicities"]
    if mults is None:
        mults = (1,) * len(degrees)
    mults = tuple(mults)
    if len(mults) != len(degrees):
        raise SchemaViolation(
            f"{len(mults)} multiplicities for {len(degrees)} generators",
            "/multiplicities")

    resolved = {f.name: merged[f.name] for f in fields(RunConfig)
                if f.name not in ("generators", "degrees", "multiplicities")}
    return RunConfig(generators=generators, degrees=degrees, multiplicities=mults,
                     **resolved)


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Load, validate and resolve a JSON config file. The non-None overrides
    replace its top-level keys before validation, like an edit of the file;
    an override that is a dict merges into the file's dict of that name key
    by key, skipping its None entries."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UnreadableFile(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"config is not valid JSON: {exc}", "") from exc
    if isinstance(data, dict):  # any other top level fails the schema as it is
        for key, value in (overrides or {}).items():
            if isinstance(value, dict):
                if not isinstance(data.get(key, {}), dict):
                    continue  # left for the schema to refuse
                value = {**data.get(key, {}), **{k: v for k, v in value.items() if v is not None}}
            if value is not None:
                data[key] = value
    return load_config(data)


def _reject_constant(name):
    # plain json.loads accepts NaN and +-Infinity, and every schema bound
    # compares false against NaN
    raise SchemaViolation(f"config is not valid JSON: non-finite number {name}", "")
