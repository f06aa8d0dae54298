#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs BENCHMARK.json's command on --runs seeds per workload, one run at a
time, and reports for each end-to-end metric its median and its spread:
the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound. With --traced it also makes one traced run per workload
and prints trace.overhead_frac and trace.unaccounted_frac.

Run it from the checkout root:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads keyrecovery --first-seed 101

Every run's result line is appended to .bench_build/steadiness.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(".bench_build", "steadiness.jsonl"), "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, "result": res}) + "\n")
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    os.makedirs(".bench_build", exist_ok=True)

    ok = True
    for w in names:
        results = [run_once(bench, w, args.first_seed + i, 0) for i in range(args.runs)]
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"{w}: {len(results)} runs, {len(bad)} with failed ops")
        ok = ok and not bad
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            note = ""
            if spread > m["bound"]:
                note, ok = "  OVER BOUND", False
            elif spread > m["bound"] / 3:
                note = "  over a third of the bound"
            print(f"  {m['name']:<20} median {med:<12.6g} spread {spread:7.4f}  bound {m['bound']}{note}")
        if args.traced:
            r = run_once(bench, w, args.first_seed, 1)
            ok = ok and r["correct"]
            for name in ("trace.overhead_frac", "trace.unaccounted_frac"):
                print(f"  traced {name:<24} {r['metrics'][name]['value']:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
