#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload churn_hnsw --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result. The build goes to
$CARGO_TARGET_DIR (default .bench_build) under the current directory.

Repeat mode runs a workload (or `all` benchmarked workloads) over
consecutive seeds and prints the median and quartiles of every metric:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0 --repeat 10
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["churn_hnsw", "repeat_stage0"]  # the workloads BENCHMARK.json lists
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def run_once(binary, build_root, workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout text)."""
    scratch = os.path.join(build_root, "run-%d-%s" % (os.getpid(), workload))
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace), "--scratch", scratch]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def repeat(binary, build_root, args):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        samples = {}
        units = {}
        failures = 0
        for seed in range(args.seed, args.seed + args.repeat):
            code, out = run_once(binary, build_root, workload, seed, args.seconds, args.trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                failures += 1
                continue
            print("seed %d: %s" % (seed, lines[-1]))
            print("  " + " ".join(l for l in lines[:-1] if l.startswith("workload=")))
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                failures += 1
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print("== %s: %d runs, seeds %d..%d, %d incorrect or failed" %
              (workload, args.repeat, args.seed, args.seed + args.repeat - 1, failures))
        print("%-44s %14s %14s %14s %8s  %s" % ("metric", "q1", "median", "q3", "iqr/med",
                                                 "unit"))
        for name, values in samples.items():
            if len(values) >= 2:
                q1, med, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = med = q3 = values[0]
            spread = (q3 - q1) / abs(med) if med else 0.0
            print("%-44s %14.6g %14.6g %14.6g %8.4f  %s" % (name, q1, med, q3, spread,
                                                             units[name]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many consecutive seeds and print quartiles")
    args = parser.parse_args()
    if args.seconds < 1 or (args.workload == "all" and args.repeat < 1):
        parser.error("--seconds must be >= 1; --workload all needs --repeat")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.repeat:
        return repeat(binary, build_root, args)
    code, out = run_once(binary, build_root, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
