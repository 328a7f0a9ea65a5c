#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and spread (interquartile range over median) against the
bound BENCHMARK.json gives it.

Run from the repository root:

    python3 perfbench/spread.py --workload ingest --runs 10
    python3 perfbench/spread.py --runs 5 --first-seed 100   # every workload

Exits 1 when a run fails its checks, or when a spread reaches its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--bench", default="BENCHMARK.json")
    opts = ap.parse_args()

    with open(opts.bench) as f:
        bench = json.load(f)
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    ok = True
    for w in workloads:
        runs = []
        for i in range(opts.runs):
            seed = opts.first_seed + i
            runs.append(run_once(bench["command"], w, seed, seconds))
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={runs[-1][k]:.6g}" for k in bounds), flush=True)
        print(f"\n{w}: {opts.runs} runs of {seconds} s")
        print(f"{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
            else:
                spread = 0.0
            flag = ""
            if spread >= bound:
                flag = "  OVER BOUND"
                ok = False
            elif spread >= bound / 3:
                flag = "  over a third of the bound"
            worst = max(worst, spread / bound)
            print(f"{name:<16} {med:>12.6g} {spread:>8.4f} {bound:>6}{flag}")
        print()
    print(f"worst spread / bound: {worst:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
