#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and prints, for every
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median), as JSON on stdout.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Run it from the repository root. The command and run length come from
BENCHMARK.json; with no workload named, every workload runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    out = {"nproc": os.cpu_count(), "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, capture_output=True, text=True)
            if run.returncode != 0:
                sys.exit(f"{name} seed {seed} failed ({run.returncode}):\n{run.stderr[-2000:]}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        rows = {}
        for metric, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med if med else 0.0, "values": vs}
        out["workloads"][name] = rows
        print(f"{name}: " + ", ".join(f"{m} {r['median']:.6g} ({r['spread']:.3f})"
                                      for m, r in rows.items()), file=sys.stderr, flush=True)
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
