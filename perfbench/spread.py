#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0] [workload ...]

Runs perfbench/run.py once per seed for each workload (all of
BENCHMARK.json's workloads by default) and prints, per metric, the
median, the quartiles and the interquartile range as a share of the
median, next to the metric's bound. A benchmark is steady when every
spread is well below its bound. Host drift shows in host_ref_loop_ms,
which the run records carry.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    record = {}
    for line in lines[:-1]:
        try:
            record = json.loads(line).get("record", record)
        except ValueError:
            pass
    return proc.returncode, json.loads(lines[-1]) if lines else None, record


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    for workload in workloads:
        values = {name: [] for name in bounds}
        refs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            code, result, record = run_once(workload, seed, bench["run_seconds"], args.trace)
            if code != 0 or result is None or not result["correct"]:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, code))
                continue
            refs.append(record.get("host_ref_loop_ms", 0.0))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (n, result["metrics"][n]["value"]) for n in bounds)), flush=True)
        for name, vals in values.items():
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            print("%-12s %-24s median %-12.5g q1 %-12.5g q3 %-12.5g spread %.4f%s" % (
                workload, name, med, q1, q3, spread,
                "" if bound is None else "  bound %.2f (%.0f%% of bound)" % (
                    bound, 100.0 * spread / bound)))
        if refs:
            print("%-12s host_ref_loop_ms median %.1f range %.1f..%.1f" % (
                workload, statistics.median(refs), min(refs), max(refs)), flush=True)


if __name__ == "__main__":
    main()
