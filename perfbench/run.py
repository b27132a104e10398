#!/usr/bin/env python3
"""Verdict benchmark: time to verdict of the certify, dpor, battery and vet
workloads, with every verdict checked against a committed answer.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

It builds perfbench/ (a Go module of its own that imports the repository
through a replace directive) into .bench_build/, then starts the binary in
fresh processes at GOMAXPROCS=1:

  --trace 0  set-up probes plus one timed process; prints the end-to-end
             metrics.
  --trace 1  an untraced process, the overhead baseline, then a traced one;
             prints the per-layer metrics and writes the traced process's
             flight recording to .bench_build/flight/, for
             `go run ./cmd/explorescope <recording>`.

Per-item rows go to standard output first; the last line is one JSON object
with the keys correct, attempted, failed and metrics. The design record is
perfbench/design.json; the self-test is `cd perfbench && go test ./...`, and
`verdictbench -workload <w> -write-expected`, run from the repository root,
re-records a workload's expected answers.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "verdictbench")

WORKLOADS = ("certify", "dpor", "battery", "vet")

# setup_s is a few ms, so one sample is mostly scheduler noise: every run
# starts this many set-up-only processes, half before the timed process
# and half after it, so that they see more than one moment of the machine,
# and reports the median.
SETUP_PROBES = 32

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_gmean_ms": "ms",
    "alloc_mb_per_verdict": "MB",
    "peak_rss_mb": "MB",
    "verdict_ok_frac": "ratio",
}

PER_LAYER = {
    "sched.run.ms": "ms",
    "sched.run.us_per_run": "us",
    "sched.run.events_per_s": "1/s",
    "sched.switches_per_kevent": "count",
    "sched.handoff.elided_ratio": "ratio",
    "sched.loc.miss_ratio": "ratio",
    "sched.explore.self_ms": "ms",
    "sched.explore.us_per_run": "us",
    "sched.explore.runs": "count",
    "sched.explore.states": "count",
    "sched.explore.alloc_kb_per_run": "KB",
    "sched.explore.frontier_hwm": "count",
    "sched.dpor.self_ms": "ms",
    "sched.dpor.us_per_run": "us",
    "sched.dpor.runs": "count",
    "sched.dpor.states": "count",
    "core.ms": "ms",
    "core.events_per_s": "1/s",
    "harness.fused.ms": "ms",
    "harness.fused.pass1_ms": "ms",
    "harness.fused.pass2_ms": "ms",
    "harness.fused.events_per_s": "1/s",
    "race.fastpath_ratio": "ratio",
    "lockset.fastpath_ratio": "ratio",
    "velodrome.edges_per_kevent": "count",
    "yield.ms": "ms",
    "yield.rounds": "count",
    "static.load_ms": "ms",
    "static.interp_ms": "ms",
    "static.load_alloc_mb": "MB",
    "static.funcs": "count",
    "static.findings": "count",
    "cooptrans.translate_ms": "ms",
    "cooptrans.units": "count",
    "harness.threeway.explore_ms": "ms",
    "harness.threeway.runs": "count",
    "harness.threeway.contradictions": "count",
    "gc.cpu_frac": "ratio",
    "gc.cycles_per_verdict": "count",
    "unattributed_frac": "ratio",
    "trace_overhead_frac": "ratio",
    "flight.dropped": "count",
}


class BenchError(Exception):
    pass


def go_env():
    """The Go toolchain's caches, temporary files, configuration and
    telemetry live in the checkout; nothing is fetched."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
    )
    return env


def build():
    """Builds a static binary: without the dynamic loader, process start,
    which setup_s includes, is shorter and steadier."""
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = go_env()
    env["CGO_ENABLED"] = "0"
    r = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if r.returncode != 0:
        raise BenchError("build failed: perfbench must sit in a checkout of the repository")


# A run, build aside, must end within this many seconds; a process still
# running at the deadline is killed and the run fails.
RUN_DEADLINE_S = 170


def spawn(args, deadline):
    """Runs the benchmark binary in a fresh process at one P and returns
    its report. -exec-ns is the moment the process is started, so its
    set-up time covers process start and package init."""
    env = go_env()
    env["GOMAXPROCS"] = "1"
    cmd = [BINARY] + args
    t0 = time.time_ns()
    p = subprocess.run(cmd + ["-exec-ns", str(t0)], cwd=ROOT, env=env, capture_output=True,
                       text=True, timeout=max(deadline - time.monotonic(), 1))
    if p.returncode != 0:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), p.returncode, p.stderr.strip()))
    return json.loads(p.stdout.strip().splitlines()[-1])


def gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


# The timing metrics are given at the machine speed at which the reference
# kernel takes this long, about its median time on the 2-vCPU KVM guest
# the benchmark was tuned on (0.44-0.66 ms per run).
REF_MS = 0.6


def item_costs(rep):
    """Each item's time to verdict in units of the reference kernel, a
    fixed piece of the benchmark's own work timed before every item: on
    each pass, the item's time over the median kernel time of that pass,
    then the median over the passes. The machine's slow spells, which last
    from seconds to minutes and slow allocation-heavy code by up to a
    half, slow the kernel with the items, so the quotient holds where the
    item's own time does not."""
    passes = rep["passes"]
    ref = [statistics.median(r[i] for r in rep["ref_ms"].values()) for i in range(passes)]
    return {name: statistics.median(ms[i] / ref[i] for i in range(passes))
            for name, ms in rep["item_ms"].items()}


def print_rows(rep):
    print("%s seed=%d: %d pass(es), %d verdicts in %.3f s, %d failed"
          % (rep["workload"], rep["seed"], rep["passes"], rep["attempted"], rep["timed_s"], rep["failed"]))
    print("  pass times (s): %s" % " ".join("%.3f" % s for s in rep["pass_s"]))
    costs = item_costs(rep)
    for name, ms in sorted(rep["item_ms"].items()):
        print("  %-32s %10.3f ms median of %d, %10.3f ms fastest, %10.3f ms at reference speed"
              % (name, statistics.median(ms), len(ms), min(ms), costs[name] * REF_MS))
    for f in rep.get("failures", []):
        print("  FAILED %s" % f)


def setup_probes(common, n, deadline):
    return [spawn(common + ["-mode", "setup"], deadline)["setup_s"] for _ in range(n)]


def end_to_end(args, common, deadline):
    setups = setup_probes(common, SETUP_PROBES // 2, deadline)
    rep = spawn(common + ["-mode", "run", "-seconds", str(args.seconds)], deadline)
    setups += setup_probes(common, SETUP_PROBES - SETUP_PROBES // 2, deadline) + [rep["setup_s"]]
    print_rows(rep)
    n = rep["attempted"]
    costs = item_costs(rep).values()
    values = {
        "setup_s": statistics.median(setups),
        # The closed loop's rate over one pass, at reference speed.
        "verdicts_per_s": len(costs) / (sum(costs) * REF_MS / 1e3),
        "verdict_gmean_ms": gmean(costs) * REF_MS,
        "alloc_mb_per_verdict": rep["alloc_bytes"] / 1e6 / n,
        "peak_rss_mb": rep["peak_rss_kb"] * 1024 / 1e6,
        "verdict_ok_frac": (n - rep["failed"]) / n,
    }
    return n, rep["failed"], values, END_TO_END


def per_layer(args, common, deadline):
    half = args.seconds / 2
    base = spawn(common + ["-mode", "run", "-seconds", str(half)], deadline)
    os.makedirs(os.path.join(BUILD, "flight"), exist_ok=True)
    rec = os.path.join(BUILD, "flight", "%s-seed%d.fltr" % (args.workload, args.seed))
    rep = spawn(common + ["-mode", "trace", "-seconds", str(half), "-flight", rec], deadline)
    print_rows(rep)
    print("flight recording: %s" % os.path.relpath(rec, ROOT))
    values = dict(rep["layers"])
    traced = (rep["timed_s"] - rep["extra_s"]) / rep["passes"]
    untraced = base["timed_s"] / base["passes"]
    values["trace_overhead_frac"] = traced / untraced - 1
    n = rep["attempted"] + base["attempted"]
    failed = rep["failed"] + base["failed"]
    if values["flight.dropped"] != 0:
        failed += 1
        print("  FAILED flight recorder dropped %d event(s)" % values["flight.dropped"])
    return n, failed, values, PER_LAYER


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs (self-test)")
    ap.add_argument("--expected", default=os.path.join(HERE, "expected"),
                    help="directory of expected answers (self-test)")
    args = ap.parse_args()
    try:
        build()
        common = ["-workload", args.workload, "-seed", str(args.seed), "-expected", args.expected]
        if args.tiny:
            common.append("-tiny")
        measure = per_layer if args.trace else end_to_end
        attempted, failed, values, units = measure(args, common, time.monotonic() + RUN_DEADLINE_S)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
