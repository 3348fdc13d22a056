"""The seeded friedland_bounds sweep at depth 6 gives its committed digest
(``tests/bounds_sweep.py``; CI runs depth 8)."""

from bounds_sweep import DIGESTS, digest


def test_bounds_sweep_gives_the_committed_digest():
    assert digest(6) == DIGESTS[6]
