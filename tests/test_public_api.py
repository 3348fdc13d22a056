"""The package's public surface against what the README names."""

import ast
import dataclasses
import functools
import inspect
import pathlib
import re

import pytest

import rsentropy as rs
import rsentropy.cli  # noqa: F401  the module map names the CLI, which the package does not import
from util import Z2, Z3

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_public_surface_matches_the_docs():
    # orbits have one representation, the array pool; the path type, its
    # metric and the conversions to it live in the tests as oracles
    for name in ("TruncatedPath", "shift", "delta_metric", "shifted_separation"):
        assert not hasattr(rs, name)
    for name in ("from_paths", "paths"):
        assert not hasattr(rs.OrbitPool, name)
    assert not hasattr(rs.errors, "EmptyPath")
    # exact points are canonical Gaussian-integer pairs, as maps are: the
    # GaussianRational point normaliser and the scalar helpers only it and
    # the old escape test read are gone
    assert not hasattr(rs.coincidence, "exact_normalize")
    for name in ("conjugate", "sort_key", "ints", "abs2"):
        assert not hasattr(rs.GaussianRational, name)
    # every exact computation runs on Gaussian-integer pairs: a scalar is a
    # parsed literal with no arithmetic, and exact Euclid over Q(i) and the
    # Mobius square root are pair functions
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
                 "__radd__", "__rmul__", "__rsub__", "is_zero"):
        assert not hasattr(rs.GaussianRational, name)
    for name in ("poly_gcd", "poly_divmod", "poly_trim"):
        assert not hasattr(rs.polynomial, name)
    assert not hasattr(rs.gaussian, "sqrt_exact")
    # the iterate and the word ledger are one walk with one merge rule: a
    # correspondence is its components, with no flag for unmerged ones
    assert [f.name for f in dataclasses.fields(rs.Correspondence)] == ["components"]
    for name in ("merged", "exact"):
        assert not hasattr(rs.Correspondence, name)
    names = re.findall(r"`rsentropy\.([A-Za-z_][\w.]*)`", README.read_text(encoding="utf-8"))
    assert len(names) > 10
    for name in names:
        functools.reduce(getattr, name.split("."), rs)


def test_parameters_and_fields_that_nothing_read_are_gone():
    # count_separated has the paper's two senses; per-word maxima are
    # sum_up_partition's, and one word's count is a friedland count of its rows
    params = inspect.signature(rs.count_separated).parameters
    assert list(params) == ["pool", "epsilon", "mode", "seed", "classes"]
    pool = rs.forward_orbits(rs.build_correspondence(rs.GeneratorSet([Z2, Z3])),
                             rs.sample_points(2, 1), 1)
    with pytest.raises(ValueError, match="unknown mode"):
        rs.count_separated(pool, 0.2, "per_word")
    # a fiber entropy is one cycle's; the value and the certificate echo no input
    assert list(inspect.signature(rs.fiber_entropy).parameters) == ["gens", "cycle"]
    assert [f.name for f in dataclasses.fields(rs.FiberEntropyValue)] == ["profile", "value"]
    assert [f.name for f in dataclasses.fields(rs.RecurrenceCertificate)] == [
        "status", "return_depths"]
    # results echo no setting: the CLI reads the seed, the word length, the
    # dimension and the degrees from its RunConfig
    assert list(inspect.signature(rs.entropy_fit).parameters) == ["counts"]
    assert [f.name for f in dataclasses.fields(rs.EntropyEstimate)] == [
        "value", "epsilon_grid", "nu_range", "slope_stderr", "method", "best_epsilon"]
    assert [f.name for f in dataclasses.fields(rs.WordLedger)] == [
        "entries", "related", "total_words", "exact"]
    assert [f.name for f in dataclasses.fields(rs.ExactEntropyRecord)] == [
        "h_top_exact", "dynamical_degrees", "bounds"]
    # the forward-orbit budget is the module constant ORBIT_BUDGET
    assert list(inspect.signature(rs.forward_orbits).parameters) == ["c", "starts", "nu"]
    assert not hasattr(rs.Report, "from_json")


def test_no_module_imports_a_private_name_from_a_sibling():
    # a module's underscored names are its own; dunders such as __version__
    # are not private
    paths = sorted((ROOT / "src" / "rsentropy").glob("*.py"))
    assert len(paths) > 10
    found = [f"{path.name}: {alias.name}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").startswith("rsentropy"))
             for alias in node.names
             if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert found == []


def _referenced_names(node) -> set:
    """The names and attribute names that the code under node reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_is_exported_or_used():
    # a public module-level function or class that the package neither
    # exports nor calls from its other code is dead library code; an
    # oracle that only the tests call belongs in tests/util.py
    paths = sorted((ROOT / "src" / "rsentropy").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    exported = {alias.asname or alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    nodes = [(module, node) for module, tree in trees.items() for node in tree.body]
    refs = [_referenced_names(node) for _, node in nodes]
    dead = [f"{module}: {node.name}" for i, (module, node) in enumerate(nodes)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in exported
            and not any(node.name in r for k, r in enumerate(refs) if k != i)]
    assert len(nodes) > 100
    assert dead == []
