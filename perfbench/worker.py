"""One workload in one process: time the set-up, then run cycles of CLI calls
in a closed loop (one client, calls in sequence) and check every call.

Started by run.py, once per set-up sample and once for the measured loop,
so that set-up time and peak memory belong to this workload alone. Prints
one JSON line on stdout; failed checks are described on stderr.

While a cycle runs, a timer interrupts it every PROBE_PERIOD_S to time a
short fixed pure-Python computation (SpeedProbe), so that the cycle can be set
against the host's speed during that same cycle: run.py reports that
ratio, because a shared host's speed can drift by half over minutes.

With --trace 1 the loop alternates untraced and traced cycles, so the
tracing overhead is measured in the same process as the per-layer spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

from tracer import TARGETS, Tracer, summarize
from workloads import WORKLOADS, judge

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_program():
    """Import the CLI from this checkout's src, and nothing else."""
    sys.path.insert(0, SRC)
    from rsentropy import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"rsentropy imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload, config_dir):
    """Import, config load and validation, generator construction."""
    started = time.perf_counter()
    cli = _import_program()
    from rsentropy.config import parse_config
    paths = {}
    for op in workload.ops:
        path = os.path.join(config_dir, f"{op.config}.json")
        parse_config(path).generator_set()
        paths[op.config] = path
    return cli, paths, time.perf_counter() - started


def layer_metrics(summary):
    """Every per-layer metric of one traced cycle, from its span summary."""
    empty = {"calls": 0, "failed": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": {}}
    agg = {name: summary.get(name, empty) for name in SPAN_NAMES}
    out = {}
    for name in SPAN_NAMES:
        prefix = name + ("_" if "." in name else ".")  # estimate.calls, orbits.tree_calls
        out[prefix + "calls"] = agg[name]["calls"]
        out[prefix + "s"] = agg[name]["busy_s"]
        out[prefix + "self_s"] = agg[name]["self_s"]

    def attr(name, key):
        return agg[name]["attrs"].get(key, 0)

    est, cells = agg["estimate"], agg["separation.count"]
    words = attr("correspondence.ledger", "words")
    out.update({
        "estimate.nu_cut": attr("estimate", "nu_cut") / max(est["calls"], 1),
        "orbits.tree_nodes": attr("orbits.tree", "nodes"),
        "ratmap.preimages_failed": agg["ratmap.preimages"]["failed"],
        "ratmap.preimages_critical": attr("ratmap.preimages", "critical"),
        "polynomial.aberth_failed": agg["polynomial.aberth"]["failed"],
        "separation.cells": cells["calls"],
        "separation.cells_exact": attr("separation.count", "exact"),
        "separation.exact_share":
            attr("separation.count", "exact") / max(cells["calls"], 1),
        "separation.pool_orbits": attr("separation.count", "pool"),
        "separation.family_orbits": attr("separation.count", "family"),
        "separation.yield": attr("separation.count", "family")
            / max(attr("separation.count", "pool"), 1),
        "coincidence.graph_build_self_s": agg["coincidence.bounds"]["self_s"],
        "coincidence.graph_nodes": attr("coincidence.bounds", "nodes"),
        "coincidence.graph_edges": attr("coincidence.bounds", "edges"),
        "correspondence.words": words,
        "correspondence.distinct": attr("correspondence.ledger", "distinct"),
        "correspondence.relation_share":
            (words - attr("correspondence.ledger", "distinct")) / max(words, 1),
        "trace.spans": sum(a["calls"] for a in summary.values()),
    })
    return out


PROBE_PERIOD_S = 0.05
# Small-int bytecode plus one big-integer product, each about 0.5 ms on an
# idle core of the machine the benchmark was defined on. Together they
# follow the program's slowdowns on a busy host more closely than either
# alone: the CLI mixes interpreted loops, numpy calls and exact arithmetic.
PROBE_ITERATIONS = 6_000
PROBE_FACTORS = (3 ** 12_000, 7 ** 10_000)


class SpeedProbe:
    """Samples the host's speed while a cycle runs: a SIGALRM handler times
    a fixed pure-Python computation every PROBE_PERIOD_S of wall time, on
    the same core and between the same bytecodes as the program."""

    def __init__(self):
        self.samples = []  # seconds per probe computation

    def sample(self, *_signal_args):
        started = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i % 7
        acc += PROBE_FACTORS[0] * PROBE_FACTORS[1]
        self.samples.append(time.perf_counter() - started)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


ROOT_SPAN = "cli.main"
SPAN_NAMES = (ROOT_SPAN,) + tuple(t[0] for t in TARGETS)


def run_loop(cli, workload, paths, seconds, trace, spans_path):
    """Cycles until the next one would overrun ``seconds``; at least two
    (a warm-up and a timed one), half of them traced when tracing."""
    deadline = time.perf_counter() + seconds
    origin = time.perf_counter()
    cycles = []  # (traced, seconds without the probes, mean probe seconds)
    tracers = []
    first_text = {}
    attempted = failed = 0
    while True:
        traced = trace and len(cycles) % 2 == 1
        tracer = Tracer() if traced else None
        if traced:
            tracer.install()
        probe = SpeedProbe()
        busy = 0.0
        for i, op in enumerate(workload.ops):
            argv = list(op.args) + ["--config", paths[op.config]]
            buf = io.StringIO()
            crash = None
            started = time.perf_counter()
            try:
                with probe, contextlib.redirect_stdout(buf):
                    if traced:
                        tracer.op = attempted
                        rc = tracer.call(ROOT_SPAN, cli.main, argv)
                    else:
                        rc = cli.main(argv)
            except Exception:  # a crashing call is a failed operation
                crash = traceback.format_exc()
            busy += time.perf_counter() - started
            if crash:
                problems = [crash]
            else:
                text = buf.getvalue()
                problems = judge(op, rc, text, first_text.get(i))
                first_text.setdefault(i, text)
            attempted += 1
            if problems:
                failed += 1
                print(f"{workload.name} call {attempted} ({' '.join(op.args)}) "
                      f"failed: {problems}", file=sys.stderr)
        if traced:
            tracer.uninstall()
            tracers.append(tracer)
        program_s = busy - sum(probe.samples)  # the handler ran inside the calls
        if not probe.samples:  # a cycle shorter than one probe period
            probe.sample()
        cycles.append((traced, program_s, statistics.fmean(probe.samples)))
        if len(cycles) >= 2 and time.perf_counter() + busy > deadline:
            break

    result = {"cycles": cycles, "attempted": attempted, "failed": failed}
    if trace:
        per_cycle = [layer_metrics(summarize(t.spans)) for t in tracers]
        layers = {k: statistics.median(c[k] for c in per_cycle) for k in per_cycle[0]}
        # each traced cycle against the untraced one just before it, so
        # that slow drift in machine speed cancels
        layers["trace.overhead_s"] = statistics.median(
            traced_s - plain_s
            for (_, plain_s, _), (_, traced_s, _) in zip(cycles[0::2], cycles[1::2]))
        result["layers"] = layers
        with open(spans_path, "w", encoding="utf-8") as fh:
            for cycle, t in enumerate(tracers):
                t.write(fh, origin, cycle)
        result["spans"] = spans_path
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config-dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    cli, paths, setup_s = set_up(workload, args.config_dir)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        spans_path = os.path.join(args.config_dir, "spans.jsonl")
        result.update(run_loop(cli, workload, paths, args.seconds,
                               bool(args.trace), spans_path))
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
