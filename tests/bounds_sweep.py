"""The seeded ``friedland_bounds`` sweep: one digest over many generator sets.

The sets are the first 120 valid configs of ``fuzz_configs.configs(3, ...)``,
valid meaning that ``load_config`` resolves them to a generator set. Each is
bounded at one depth with the default node budget. Its record holds each
coincidence point (float coordinates, exact coordinates, witnesses) with
its status and return depths, then ``lower``, ``s_hat``, the graph counts,
``depth_cap_hit``, ``cycle_points`` and ``cycle_profile``; a set that raises
an error of ``rsentropy.errors`` records the error's type. The digest is
the SHA-256 of the records' repr, so a change to any bound of any set
moves it. ``DIGESTS`` holds the committed digest of each depth.

    python3 tests/bounds_sweep.py DEPTH

prints the digest at that depth and exits 1 when it differs from the
committed one.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from fuzz_configs import configs  # noqa: E402
from rsentropy.coincidence import friedland_bounds  # noqa: E402
from rsentropy.config import load_config  # noqa: E402
from rsentropy.errors import RsentropyError  # noqa: E402

SEED, SETS, DRAWN = 3, 120, 400
DIGESTS = {
    6: "e99d9c8edb802ca94ebedb3d2697524444183c57413881fa2ae205d70385def8",
    8: "ee2784794b4201e3c83afc569f9e2ecce4b782fb1694722572d661ae9470a6ec",
}


def generator_sets() -> list:
    """The first SETS valid generator sets of the seed's stream."""
    found = []
    for cfg in configs(SEED, DRAWN):
        try:
            found.append(load_config(cfg).generator_set())
        except RsentropyError:
            continue
        if len(found) == SETS:
            return found
    raise AssertionError(f"fewer than {SETS} valid sets among {DRAWN} configs")


def record(gens, depth: int):
    """What friedland_bounds(gens, depth) gives, or its error's type name."""
    try:
        fb = friedland_bounds(gens, depth)
    except RsentropyError as exc:
        return type(exc).__name__
    d = fb.details
    points = [(cp.point.h0, cp.point.h1, cp.exact_coords, sorted(cp.witnesses),
               cert.status, cert.return_depths) for cp, cert in d["coincidences"]]
    return (points, fb.lower, fb.s_hat, d["graph_nodes"], d["graph_edges"],
            d["depth_cap_hit"], d["cycle_points"], d["cycle_profile"])


def digest(depth: int) -> str:
    records = [record(gens, depth) for gens in generator_sets()]
    return hashlib.sha256(repr(records).encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not args[0].isdigit():
        print("usage: bounds_sweep.py DEPTH", file=sys.stderr)
        return 2
    depth = int(args[0])
    got, want = digest(depth), DIGESTS.get(depth)
    print(f"depth {depth}: {got}" + ("" if got == want else f", committed {want}"))
    return 0 if got == want else 1


if __name__ == "__main__":
    sys.exit(main())
