#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload svc_stream --seeds 301-310 \
        [--seconds 50] [--warmup 1]

Runs perfbench/run.py once per seed (untraced), after `--warmup` unrecorded
runs, and prints each run's metrics, then for every end-to-end metric the
median and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. Exits 1 if a
run fails its checks or a spread exceeds the metric's BENCHMARK.json bound
(setup_s's spread is printed, not checked).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 301-310")
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--warmup", type=int, default=1)
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    for i in range(args.warmup):
        one_run(args.workload, last + 1 + i, args.seconds)
    values = {}
    ok = True
    for seed in range(first, last + 1):
        res = one_run(args.workload, seed, args.seconds)
        if res is None or not res["correct"]:
            print("seed %d: run failed" % seed)
            ok = False
            continue
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items())),
            flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med
        within = name == "setup_s" or spread <= bounds[name]
        ok = ok and within
        print("%-14s median %-12.6g spread %.3f  bound %.2f%s" % (
            name, med, spread, bounds[name], "" if within else "  EXCEEDED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
