#!/usr/bin/env python3
"""Checks how steady the served-path benchmark is.

Runs one workload once per seed, untraced, and prints for every end-to-end
metric its median, quartiles and the quartile spread as a share of the
median, the way statistics.quantiles(values, n=4) gives them. Rows marked
* are the ungated metrics, which are in the run records but not in the
result line. With
--repeat it runs the first seed again and checks that the work counts
recorded at the workload's checkpoint repeat exactly.

Run it from the repository root:

    python3 servebench/steady.py --workload fit-jobs --seeds 1-10 --seconds 30
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace=0):
    cmd = ["bash", "servebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s\n%s" % (proc.returncode, " ".join(cmd), proc.stderr))
    with open(".bench_build/runs/%s-seed%d-trace%d.json" % (workload, seed, trace)) as f:
        record = json.load(f)
    return json.loads(lines[-1]), record


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--repeat", action="store_true", help="rerun the first seed and compare work counts")
    args = ap.parse_args()

    values = {}
    checkpoints = {}
    for seed in seeds_of(args.seeds):
        result, record = run_once(args.workload, seed, args.seconds)
        checkpoints[seed] = record.get("work_checkpoint")
        summary = " ".join("%s=%.5g" % (k, v["value"]) for k, v in sorted(result["metrics"].items()))
        print("seed %d correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"], summary), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for e in record["metrics"]:
            if e.get("ungated"):
                values.setdefault(e["name"] + "*", []).append(e["value"])

    print("\n%-22s %5s %12s %12s %12s %8s" % ("metric", "n", "median", "q1", "q3", "spread"))
    for name in sorted(values):
        vs = values[name]
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        print("%-22s %5d %12.5g %12.5g %12.5g %7.2f%%" % (name, len(vs), med, q1, q3, 100 * (q3 - q1) / med))

    if args.repeat:
        first = seeds_of(args.seeds)[0]
        _, record = run_once(args.workload, first, args.seconds)
        again = record.get("work_checkpoint")
        same = again is not None and again == checkpoints[first]
        print("\nwork at checkpoint, seed %d: %s\n  first run:  %s\n  second run: %s" % (
            first, "repeats exactly" if same else "DIFFERS", checkpoints[first], again))
        if not same:
            sys.exit(1)


if __name__ == "__main__":
    main()
