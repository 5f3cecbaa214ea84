#!/usr/bin/env python3
"""Compares two sets of benchmark results saved by perfbench/run.py.

Usage (from the repository root):
    python3 perfbench/compare.py <baseline_results_dir> <candidate_results_dir>

Each directory holds the .json files run.py writes to .bench_results/ (copy that
directory aside between the two commits). For every workload and metric the script
prints each side's median and quartiles over its runs and the change of the medians,
signed so that a positive change is an improvement whichever way the metric points.
End-to-end metrics whose candidate median is worse than the baseline median by more than
the bound in BENCHMARK.json are flagged. The script warns when the two sets were taken
in different environments (core count, build type, CAPSYS_NATIVE or compiler).
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """Returns ({(workload, trace): {metric: [values]}}, [env dicts]) for one result set."""
    runs = {}
    envs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        envs.append({k: v for k, v in (rec.get("env") or {}).items() if k != "commit"})
        metrics = runs.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return runs, envs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base, base_envs = load(sys.argv[1])
    cand, cand_envs = load(sys.argv[2])

    distinct = {json.dumps(e, sort_keys=True) for e in base_envs + cand_envs}
    if len(distinct) > 1:
        print("WARNING: the result sets were taken in different environments:")
        for e in sorted(distinct):
            print("  " + e)

    regressions = 0
    for key in sorted(set(base) & set(cand)):
        workload, trace = key
        print("== %s (trace %d)" % (workload, trace))
        print("%-40s %32s %32s %9s" % ("metric", "baseline q1/median/q3",
                                        "candidate q1/median/q3", "change"))
        for name in sorted(set(base[key]) & set(cand[key])):
            b = quartiles(base[key][name])
            c = quartiles(cand[key][name])
            sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
            change = sign * (c[1] - b[1]) / abs(b[1]) if b[1] else 0.0
            flag = ""
            if name in bound and change < -bound[name]:
                flag = "  REGRESSION (bound %.0f%%)" % (bound[name] * 100)
                regressions += 1
            print("%-40s %10.4g/%10.4g/%10.4g %10.4g/%10.4g/%10.4g %+8.1f%%%s"
                  % (name, b[0], b[1], b[2], c[0], c[1], c[2], change * 100, flag))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
