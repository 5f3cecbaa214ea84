#!/usr/bin/env python3
"""Builds and runs the CAPSys repository benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <service_mix|deploy_tight|chaos_failover> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark and the CAPSys libraries from source into .bench_build/, runs one
timed window of the workload and relays its output. The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}. The result is also saved with
the environment it was taken in under .bench_results/ for perfbench/compare.py. Exits
non-zero, without a result, when the build fails, and non-zero when a correctness check
fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BINARY = os.path.join(BUILD_DIR, "capsys_perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def git_commit():
    """Commit of the checkout, read from .git without leaving it; 'unknown' outside git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "capsys_perfbench"],
    ]
    for cmd in steps:
        # Build output goes to stderr so the result stays the last line of stdout.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["service_mix", "deploy_tight", "chaos_failover"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        print("build failed", file=sys.stderr)
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    env = None
    for line in lines:
        if line.startswith("env: "):
            env = json.loads(line[len("env: "):])
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is not None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        name = "%s-seed%d-trace%s.json" % (args.workload, args.seed, args.trace)
        with open(os.path.join(RESULTS_DIR, name), "w") as f:
            json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": int(args.trace),
                       "result": result}, f, indent=1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
