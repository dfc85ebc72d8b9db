#!/usr/bin/env python3
"""Steadiness mode: every workload N times, in alternating order.

    python3 bbsbench/steady.py --runs 10 [--seeds 1,2,...] \
        [--workloads cold_solve,...] [--seconds 10] [--trace 0|1]

Round k runs the workloads in order when k is even and in reverse when it
is odd; run k of a workload uses the k-th seed (cycling). Each run is one
`run.py` invocation, exactly as the benchmark is driven. Every run is
reported, none is dropped. For each workload and metric the output gives
the median, the quartiles and the relative spread (q3 - q1) / median, plus
the host's nproc and load average.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark's workloads (BENCHMARK.json).
WORKLOADS = ("cold_solve", "sweep_explore")


def one_run(workload, seed, seconds, trace):
    with tempfile.NamedTemporaryFile(suffix=".json") as details:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--details", details.name],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True)
        with open(details.name) as f:
            info = json.load(f)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, info


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run to this file")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")

    print("nproc %d, load average at start %s"
          % (os.cpu_count(), " ".join(open("/proc/loadavg").read().split()[:3])))
    runs = {w: [] for w in workloads}
    for k in range(args.runs):
        order = workloads if k % 2 == 0 else list(reversed(workloads))
        for workload in order:
            seed = seeds[k % len(seeds)]
            result, info = one_run(workload, seed, args.seconds, args.trace)
            load = open("/proc/loadavg").read().split()[0]
            runs[workload].append({"seed": seed, "load": float(load),
                                   "result": result, "info": info})
            print("run %2d %-16s seed %-5d correct %-5s failed %5d/%-6d "
                  "load %s" % (k, workload, seed, result["correct"],
                               result["failed"], result["attempted"], load),
                  flush=True)

    print("\n%-16s %-28s %12s %12s %12s %8s" %
          ("workload", "metric", "q1", "median", "q3", "spread"))
    for workload in workloads:
        names = runs[workload][0]["result"]["metrics"].keys()
        for name in names:
            values = [r["result"]["metrics"][name]["value"]
                      for r in runs[workload]]
            if len(values) >= 2:
                q1, med, q3, rel = benchlib.spread(values)
            else:
                q1 = med = q3 = values[0]
                rel = 0.0
            print("%-16s %-28s %12.6g %12.6g %12.6g %8.4f"
                  % (workload, name, q1, med, q3, rel))
    print("load average at end %s"
          % " ".join(open("/proc/loadavg").read().split()[:3]))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
