"""The package's public surface against what the README names."""

import functools
import pathlib
import re

import rsentropy as rs
import rsentropy.cli  # noqa: F401  the module map names the CLI, which the package does not import

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_public_surface_matches_the_docs():
    # orbits have one representation, the array pool; the path type, its
    # metric and the conversions to it live in the tests as oracles
    for name in ("TruncatedPath", "shift", "delta_metric", "shifted_separation"):
        assert not hasattr(rs, name)
    for name in ("from_paths", "paths"):
        assert not hasattr(rs.OrbitPool, name)
    assert not hasattr(rs.errors, "EmptyPath")
    names = re.findall(r"`rsentropy\.([A-Za-z_][\w.]*)`", README.read_text(encoding="utf-8"))
    assert len(names) > 10
    for name in names:
        functools.reduce(getattr, name.split("."), rs)
