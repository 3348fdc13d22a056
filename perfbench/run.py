"""Benchmark of the rsentropy CLI: one workload per invocation, or all four.

    python3 perfbench/run.py --workload report-readme --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from ./src, not
installed. Each workload runs in processes of its own, one at a time: a few
that only time the set-up, one that runs the closed loop for --seconds, and
a few more that only time the set-up. With --trace 0 the last line of stdout
is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics and the tracing overhead, and the
spans are written under perfbench/out/. Exits nonzero, printing no result,
when the program cannot be imported or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS, write_configs

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 6  # set-up-only processes, besides the loop's own set-up
WORKER_GRACE_S = 150  # a worker still running this long after --seconds is killed


def _worker(workload, config_dir, extra, timeout):
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--config-dir", config_dir] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    """(attempted, failed, metrics {name: (value, unit)}, summary lines)."""
    config_dir = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}")
    write_configs(WORKLOADS[name], seed, config_dir)

    def set_up_only(count):
        return [_worker(name, config_dir, ["--setup-only"], WORKER_GRACE_S)["setup_s"]
                for _ in range(count if not trace else 0)]

    # half of the set-up probes before the loop and half after it
    setups = set_up_only(SETUP_PROBES // 2)
    loop = _worker(name, config_dir,
                   ["--seconds", str(seconds), "--trace", str(trace)],
                   seconds + WORKER_GRACE_S)
    setups += set_up_only(SETUP_PROBES - SETUP_PROBES // 2) + [loop["setup_s"]]

    calls = len(WORKLOADS[name].ops)
    lines = [f"{name} (seed {seed}): {len(loop['cycles'])} cycles of {calls} "
             f"call(s), failed_ops {loop['failed']} of {loop['attempted']} calls"]
    if trace:
        metrics = {k: (v, unit_of(k)) for k, v in sorted(loop["layers"].items())}
        lines.append(f"  spans written to {os.path.relpath(loop['spans'])}")
    else:
        # every cycle but the first (a warm-up): its wall time, and that time
        # as a multiple of the speed probe's mean time during the cycle
        timed = loop["cycles"][1:]
        wall = [s for _, s, _ in timed]
        probes = [probe_s for _, _, probe_s in timed]
        metrics = {
            "wall_rel": (statistics.median(s / p for s, p in zip(wall, probes)), "ref"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (loop["peak_rss_mb"], "MiB"),
        }
        lines.append(f"  (wall_rel: median of {len(timed)} cycles after a warm-up; "
                     f"their wall time: median {statistics.median(wall):.4f} s, "
                     f"max {max(wall):.4f} s; speed probe: median "
                     f"{statistics.median(probes) * 1e3:.4f} ms; "
                     f"setup_s: median of {len(setups)} processes, max {max(setups):.4f} s)")
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:34s} {value:14.6g} {unit}")
    return loop["attempted"], loop["failed"], metrics, lines


def unit_of(metric):
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_share", ".yield")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m, lines = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
        print("\n".join(lines), flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
