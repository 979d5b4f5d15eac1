#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/METRICS.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first call configures and builds
perfbench/ (the engine's layer libraries plus the benchmark program, in
Release) into the build directory: $CARGO_TARGET_DIR when set, else
.bench_build. Later calls only rebuild what changed. Build output goes
to stderr; the last stdout line is the program's JSON result. The exit
code is non-zero when the build fails, the program fails or times out,
an answer check fails, or a metric disagrees with BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire_point", "fraud_tuned", "seg_recs")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: engine sources (src/) not found next to perfbench/")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        # Concurrent runs in one checkout share the build: one builds,
        # the others wait for it.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", out_dir, "-j", jobs, "--target", "aplus_perfbench"],
                       stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "aplus_perfbench")


def complete_metrics(metrics, trace, workload):
    """Checks the program's metrics against BENCHMARK.json, the one list of
    metric names and units. A traced run reports only the per-layer
    metrics its workload exercises; the others are added here as 0.
    Returns an error message, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, entry in metrics.items():
        if name not in units:
            return "metric %s is not declared in BENCHMARK.json" % name
        if entry["unit"] != units[name]:
            return "metric %s has unit %s, BENCHMARK.json says %s" % (
                name, entry["unit"], units[name])
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        return "%s reported no %s" % (workload, ", ".join(missing))
    if missing:
        print("perfbench: not applicable to %s (reported as 0): %s"
              % (workload, ", ".join(missing)), file=sys.stderr)
    for name in missing:
        metrics[name] = {"value": 0, "unit": units[name]}
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    work_dir = os.path.join(out_dir, "run")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        sys.exit("perfbench: program exited %d without a result line" % proc.returncode)
    error = complete_metrics(result["metrics"], args.trace == "1", args.workload)
    if error and result["correct"]:
        sys.exit("perfbench: %s" % error)
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
