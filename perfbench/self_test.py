#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (a few episodes, one second).

    python3 perfbench/self_test.py

Builds the driver the way run.py does, then checks that:
  * every workload, untraced and traced, exits 0 with correct=true, and
    its last line holds exactly the metrics BENCHMARK.json lists
    (end_to_end untraced, per_layer traced), each with its unit;
  * the untraced human-readable table names every end-to-end metric of
    perfbench/layers.json that applies to the workload;
  * layers.json maps every per-layer metric of BENCHMARK.json;
  * a corrupted diagnosis, a dropped response and a wrong campaign digest
    are each flagged: exit status 1, correct=false, failed > 0.
Exits 0 when all checks pass.
"""

import json
import os
import subprocess
import sys

import run

WORKLOADS = ["campaign", "svc_stream", "svc_fleet"]


def invoke(workload, trace, extra=()):
    cmd = [run.BINARY, "--workload", workload, "--seed", "3", "--seconds",
           "1", "--trace", str(trace), "--tiny"] + list(extra)
    p = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                       timeout=300)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    report = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and line.startswith("  "):
            report[parts[0]] = parts[2]
    return p.returncode, result, report


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(run.HERE, "layers.json")) as f:
        layers = json.load(f)
    if not run.build():
        print("build failed")
        return 1
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    for m in bench["per_layer"]:
        expect(m["name"] in layers["per_layer"],
               "layers.json maps per-layer metric %s" % m["name"])

    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res, report = invoke(w, trace)
            tag = "%s --trace %d" % (w, trace)
            expect(rc == 0 and res is not None and res["correct"],
                   tag + " passes its checks")
            if res is None:
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, tag + " prints every %s metric with its unit"
                   % key)
            expect(res["attempted"] >= 1 and res["failed"] == 0,
                   tag + " counts attempted/failed")
            if trace == 0:
                for name, spec in layers["end_to_end"].items():
                    if w in spec["workloads"]:
                        expect(report.get(name) == spec["unit"],
                               "%s reports %s [%s]" % (tag, name,
                                                       spec["unit"]))

    faults = [
        ("svc_stream", ["--inject", "corrupt-diagnosis"],
         "a corrupted diagnosis"),
        ("svc_fleet", ["--inject", "corrupt-diagnosis"],
         "a corrupted diagnosis"),
        ("svc_stream", ["--inject", "drop-response"], "a dropped response"),
        ("campaign", ["--expect-digest", "0000000000000000"],
         "a wrong digest"),
    ]
    for w, extra, what in faults:
        rc, res, _ = invoke(w, 0, extra)
        expect(rc == 1 and res is not None and not res["correct"] and
               res["failed"] > 0, "%s: %s is flagged" % (w, what))

    print("\n%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
