#!/usr/bin/env python3
"""Steadiness check the driver's way: run BENCHMARK.json's command N times per
workload, each time with another --seed, and print for every end-to-end metric
the distance between the first and third quartile of the N values as a share
of their median, next to the metric's bound. Run from the repository root:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]...

A spread should stay below a third of its bound (setup_s is exempt from the
driver's spread rule, but its median must not drift between two sets).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--values", action="store_true", help="also print each run's value, in seed order")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    metrics = bench[key]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for name in names:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for i in range(args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(args.first_seed + i),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            start = time.time()
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            walls.append(time.time() - start)
            if done.returncode != 0:
                sys.exit(f"{name}: seed {args.first_seed + i}: exit code {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name}: seed {args.first_seed + i}: {result['failed']} of {result['attempted']} failed")
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"{name}: {args.runs} runs, {max(walls):.1f} s the longest")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = abs(q[2] - q[0]) / abs(med) if med else 0.0
            line = f"  {m['name']:<32} median {med:<14.6g} {m['unit']:<6} spread {100 * spread:5.1f}%"
            if "bound" in m:
                flag = "" if spread < m["bound"] / 3 else ("  > bound/3" if spread <= m["bound"] else "  > BOUND")
                bad = bad or (spread > m["bound"] and m["name"] != "setup_s")
                line += f"  bound {100 * m['bound']:.0f}%{flag}"
            print(line)
            if args.values:
                print("    " + " ".join(f"{x:.5g}" for x in v))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
