#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same build.

    python3 perfbench/steady.py --workload paper_cold

Each of the two sets runs `run.py` untraced once per seed 1..10, with
BENCHMARK.json's run_seconds.  For every end-to-end metric it prints each
set's median and quartiles (statistics.quantiles, n=4) and the spread, the
quartile distance as a share of the median.  It then checks each metric,
setup_s included, against its bound: every spread within the bound (marked
"steady" below a third of it), and the second set's median not worse than
the first set's by more than the bound.  Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.exit("steady.py: seed %d failed (exit %d)\n%s%s" % (
            seed, completed.returncode, completed.stdout, completed.stderr))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("steady.py: seed %d answered wrongly\n%s" % (seed, completed.stdout))
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for index in range(SETS):
        values = {}
        for seed in SEEDS:
            result = run_once(args.workload, seed, bench["run_seconds"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("set %d seed %d: %s" % (index + 1, seed, json.dumps(
                {k: v["value"] for k, v in result["metrics"].items()})), flush=True)
        sets.append(values)

    ok = True
    print("\n%-32s %4s %14s %14s %14s %8s  %s" % (
        "metric", "set", "median", "q1", "q3", "spread", "verdict"))
    for name in sorted(bounds):
        bound = bounds[name]["bound"]
        first_median = None
        for index, values in enumerate(sets):
            median, q1, q3, spread = summary(values[name])
            if spread > bound:
                verdict, ok = "SPREAD ABOVE BOUND", False
            else:
                verdict = "steady" if spread < bound / 3 else "within bound"
            if first_median is None:
                first_median = median
            else:
                worse = (median - first_median) / first_median
                if bounds[name]["better"] == "higher":
                    worse = -worse
                if worse > bound:
                    verdict += " SETS DISAGREE (%+.3f)" % worse
                    ok = False
                else:
                    verdict += " sets agree (%+.3f)" % worse
            print("%-32s %4d %14.6g %14.6g %14.6g %8.4f  %s" % (
                name, index + 1, median, q1, q3, spread, verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
