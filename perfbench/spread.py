#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end metric's
median and interquartile spread as a share of the median, next to the
metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --workloads campaign,daemon,fleet

A spread at or above a third of its bound is flagged; setup_s is exempt
from the spread rule (only its median is compared between commits).
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    failed = False
    for wl in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: incorrect result {res['failed']}/{res['attempted']}")
                failed = True
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"{wl} ({args.runs} runs)")
        for k in sorted(values):
            vs = values[k]
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(k)
            flag = ""
            if bound is not None and k != "setup_s" and not share < bound / 3:
                flag = "  <-- spread >= bound/3"
                failed = True
            print(f"  {k:36s} median {q2:14.4f}  spread {share:7.4f}  bound {bound}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in vs))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
