#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload campaign|svc_stream|svc_fleet \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs only
re-check the build. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. The exit status is the driver's: 0
when every correctness check passed, nonzero otherwise (also when the
build fails, without printing a result).

--trace 1 also writes the run's spans as Chrome trace_event JSON to
.bench_run/trace-<workload>-<seed>.json (open it in Perfetto, or join it
with other traces through `netdiag trace-merge`).

For campaign runs on the seed pinned in perfbench/pins.json, the driver
also checks the campaign digest against the pin.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "nd_perfbench")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the driver; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode == 0


def pinned_digest(workload, seed):
    if workload != "campaign":
        return None
    with open(os.path.join(HERE, "pins.json")) as f:
        pin = json.load(f)["campaign"]
    return pin["digest"] if pin["seed"] == seed else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["campaign", "svc_stream", "svc_fleet"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            ".bench_run", "trace-%s-%d.json" % (args.workload, args.seed))]
    digest = pinned_digest(args.workload, args.seed)
    if digest:
        cmd += ["--expect-digest", digest]
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
