"""Seeded random configs, each run as ``report``: a run gives a report or a
typed error, the same run again gives the same bytes, and a report keeps
the promises of ``bound_problems``.

``configs(seed, count)`` draws the configs with ``random.Random(seed)``.
Each has 2 or 3 generators, 3 with probability 1/3. A generator has a
degree from {1, 2, 2, 3} and numerator coefficients that are integers in
[-2, 2]. With probability 1/2 its denominator is a constant from
{1, 1, 2, -1}; otherwise it is drawn like the numerator. Many such configs
are invalid (a common factor, a zero form), and the run must refuse them
with an error object. ``outcome`` names what one run printed.

    python3 tests/fuzz_configs.py SEED COUNT

runs each of the first COUNT configs of SEED twice at the default settings,
each run as its own ``python -m rsentropy.cli report`` process under a
60 s timeout. It prints one line per config and the tally by outcome, and
exits 1 when a run is neither a report that keeps those promises nor one
error object whose type is a class of ``rsentropy.errors``, times out, or
differs from its repeat.
"""

from __future__ import annotations

import collections
import inspect
import json
import math
import pathlib
import random
import subprocess
import sys
import tempfile
import time

from rsentropy import errors

TIMEOUT_S = 60


def configs(seed: int, count: int) -> list[dict]:
    """The first count configs of the seed's stream."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        generators = []
        for _ in range(3 if rng.random() < 1 / 3 else 2):
            d = rng.choice((1, 2, 2, 3))
            num = [rng.randint(-2, 2) for _ in range(d + 1)]
            if rng.random() < 0.5:
                den = [0] * d + [rng.choice((1, 1, 2, -1))]
            else:
                den = [rng.randint(-2, 2) for _ in range(d + 1)]
            generators.append({"num": [str(c) for c in num], "den": [str(c) for c in den]})
        out.append({"generators": generators})
    return out


def bound_problems(report: dict) -> list[str]:
    """What a report's coincidence section breaks of these exact facts:

    - each point's status is one of the four, and a float point is
      undecided;
    - a point is recurrent iff its return depths are nonempty, and
      undecided iff they are null;
    - a recurrent point's return depths are closed under addition within
      the depth, since f_u(x) = x and f_v(x) = x give f_uv(x) = x;
    - a lower bound is given only when no point is undecided, and a built
      graph with a no_return_within_depth point has depth_cap_hit;
    - s_hat is log(prod cycle_profile) / cycle_length, 0 with no cycle;
    - lower is max(upper - s_hat, 0);
    - upper is the exact section's h_top_exact, within 1e-12.
    """
    section, problems = report["coincidence"], []
    statuses = {p["status"] for p in section["points"]}
    for p in section["points"]:
        status, depths = p["status"], p["return_depths"]
        if status not in ("recurrent", "never_returns", "no_return_within_depth", "undecided"):
            problems.append(f"{p['point']} has the status {status!r}")
        if not p["exact"] and status != "undecided":
            problems.append(f"the float point {p['point']} is not undecided")
        if (status == "recurrent") != bool(depths) or (status == "undecided") != (depths is None):
            problems.append(f"the return depths of {p['point']} do not fit its status")
        elif depths and any(a + b <= section["depth"] and a + b not in depths
                            for a in depths for b in depths):
            problems.append(f"return depths of {p['point']} are not closed under addition")
    fb = section["friedland_bounds"]
    if fb["lower"] is not None and "undecided" in statuses:
        problems.append("lower rests on an undecided point")
    if fb["exact"] and "no_return_within_depth" in statuses and not fb["depth_cap_hit"]:
        problems.append("a point has no return within the depth, but depth_cap_hit is false")
    if fb["s_hat"] is not None:
        length = fb["cycle_length"]
        if fb["s_hat"] != (math.log(math.prod(fb["cycle_profile"])) / length if length
                           else 0.0):
            problems.append("s_hat is not the cycle's mean log profile")
        if fb["lower"] != max(fb["upper"] - fb["s_hat"], 0.0):
            problems.append("lower is not max(upper - s_hat, 0)")
    if abs(fb["upper"] - report["exact"]["h_top_exact"]) > 1e-12:
        problems.append("upper is not h_top_exact")
    return problems


def outcome(code: int, stdout: str) -> str:
    """"ok" for exit 0 with a report that has no bound_problems, the error
    type for exit 1 with one error object of a class of rsentropy.errors,
    else "bad: " and why."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return f"bad: exit {code}, stdout is not one JSON value"
    if code == 0 and isinstance(out, dict) and "exact" in out:
        problems = bound_problems(out)
        return "bad: " + "; ".join(problems) if problems else "ok"
    types = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
             if cls.__module__ == errors.__name__}
    if code == 1 and isinstance(out, dict) and set(out) == {"error"} \
            and out["error"].get("type") in types:
        return out["error"]["type"]
    return f"bad: exit {code}, {stdout[:200]!r}"


def _run(path) -> tuple[int | None, str]:
    """(exit code, stdout) of one report run, or (None, "") on a timeout."""
    try:
        done = subprocess.run([sys.executable, "-m", "rsentropy.cli", "report", "--config",
                               str(path)], capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(a.isdigit() for a in args):
        print("usage: fuzz_configs.py SEED COUNT", file=sys.stderr)
        return 2
    seed, count = map(int, args)
    tally: collections.Counter = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for k, cfg in enumerate(configs(seed, count)):
            path = pathlib.Path(tmp) / f"{k}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            started = time.perf_counter()
            first, second = _run(path), _run(path)
            result = (outcome(*first) if first[0] is not None
                      else f"bad: timed out after {TIMEOUT_S} s")
            if first != second:
                result = "bad: the second run differs"
            tally["bad" if result.startswith("bad") else result] += 1
            print(f"seed {seed} config {k}: {result} ({time.perf_counter() - started:.1f} s)"
                  f" {json.dumps(cfg['generators'])}", flush=True)
    print(f"seed {seed}, {count} configs: "
          + ", ".join(f"{n} {name}" for name, n in sorted(tally.items())))
    return 1 if tally["bad"] else 0


if __name__ == "__main__":
    sys.exit(main())
