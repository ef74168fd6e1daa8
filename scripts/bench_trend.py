#!/usr/bin/env python3
"""Regression gate over bench_micro_incremental JSON artifacts.

Compares the current nightly run's JSON against the previous run's and fails
(exit 1) when a tracked metric regresses beyond its tolerance:

  * commit_path.speedup_per_commit and commits_per_second   (higher better)
  * server_throughput.hot.requests_per_second               (higher better)
  * exhaustive_bb.largest_tractable_pos                     (higher better)
  * exhaustive_bb.runs[pos].nodes_expanded                  (lower better)
  * exhaustive_bb.runs[pos].prune_factor                    (higher better)
  * distributed_search.speedup_2w                           (higher better,
    plus an absolute floor on multi-core runners: two workers must beat one
    by --min-dist-speedup)
  * tracing_overhead.overhead_ratio                         (absolute cap
    --max-tracing-overhead: spans must stay within budget on the commit
    path; skipped when the bench reports compiled_out tracing)
  * journal_replay.records_per_second                       (higher better —
    the crash-recovery boot path must not creep)

Wall-clock metrics on shared CI runners are noisy, so their tolerances are
deliberately loose (a genuine asymptotic regression blows far past them).
The branch-and-bound work counters are exactly reproducible only
single-threaded — the nightly runs with one worker per core, where pruning
varies with incumbent-propagation timing — so their gate is loose too:
observed jitter is percent-level, a lost bound is orders of magnitude.
Metrics missing from the previous run (first nightly after a bench change)
are reported as "baseline established" and never fail the gate.

Usage:
  bench_trend.py PREVIOUS.json CURRENT.json
      [--max-time-regression 1.6] [--max-count-regression 2.0]
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def lookup(doc: dict, dotted: str):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def bb_runs_by_pos(doc: dict) -> dict:
    runs = lookup(doc, "exhaustive_bb.runs") or []
    return {run["pos"]: run for run in runs if isinstance(run, dict) and "pos" in run}


class Gate:
    def __init__(self) -> None:
        self.failures: list[str] = []
        self.lines: list[str] = []

    def check(self, name: str, previous, current, ratio_limit: float,
              higher_better: bool) -> None:
        """ratio_limit bounds the allowed regression factor (> 1)."""
        if current is None:
            self.failures.append(f"{name}: missing from current run")
            return
        if previous is None or previous == 0:
            self.lines.append(f"  {name}: baseline established at {current:g}")
            return
        if higher_better:
            regressed = current * ratio_limit < previous
            ratio = previous / current if current else float("inf")
        else:
            regressed = current > previous * ratio_limit
            ratio = current / previous
        verdict = "FAIL" if regressed else "ok"
        self.lines.append(
            f"  {name}: {previous:g} -> {current:g} "
            f"(x{ratio:.2f} vs limit x{ratio_limit:.2f}) {verdict}")
        if regressed:
            self.failures.append(
                f"{name} regressed: {previous:g} -> {current:g} "
                f"(allowed factor {ratio_limit:.2f})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("previous", help="previous run's micro_incremental JSON")
    parser.add_argument("current", help="current run's micro_incremental JSON")
    parser.add_argument("--max-time-regression", type=float, default=1.6,
                        help="allowed slowdown factor for wall-clock metrics")
    parser.add_argument("--max-count-regression", type=float, default=2.0,
                        help="allowed growth factor for pruning-work counts "
                             "(timing-jittery when multi-threaded)")
    parser.add_argument("--min-dist-speedup", type=float, default=1.5,
                        help="absolute floor on distributed_search.speedup_2w: "
                             "a calibrated (>= 0.3 s) job on two workers must "
                             "beat one worker by this factor")
    parser.add_argument("--max-tracing-overhead", type=float, default=1.02,
                        help="absolute cap on tracing_overhead.overhead_ratio "
                             "(traced vs untraced commit-path wall time); "
                             "skipped when tracing is compiled out")
    args = parser.parse_args()

    try:
        previous = load(args.previous)
        current = load(args.current)
    except (OSError, json.JSONDecodeError) as error:
        print(f"bench_trend: cannot read inputs: {error}", file=sys.stderr)
        return 2

    gate = Gate()

    for metric in ("commit_path.speedup_per_commit",
                   "commit_path.commits_per_second",
                   "server_throughput.hot.requests_per_second",
                   "distributed_search.speedup_2w",
                   "journal_replay.records_per_second"):
        gate.check(metric, lookup(previous, metric), lookup(current, metric),
                   args.max_time_regression, higher_better=True)

    # The fabric's scaling claim is absolute, not just trend-relative: the
    # bench calibrates the job to >= 0.3 s of real search, so two workers
    # falling under the floor means lease/merge overhead ate the parallelism.
    # The floor only makes sense where two workers can actually run in
    # parallel — on a single-core runner the bench still verifies the merge
    # bit-for-bit but the wall-clock ratio is pure scheduler noise.
    speedup_2w = lookup(current, "distributed_search.speedup_2w")
    cores = lookup(current, "distributed_search.hardware_threads")
    if speedup_2w is None:
        gate.failures.append(
            "distributed_search.speedup_2w: missing from current run")
    elif cores is not None and cores < 2:
        gate.lines.append(
            f"  distributed_search.speedup_2w: {speedup_2w:g} "
            f"(floor skipped: single-core runner)")
    else:
        verdict = "FAIL" if speedup_2w < args.min_dist_speedup else "ok"
        gate.lines.append(
            f"  distributed_search.speedup_2w: {speedup_2w:g} "
            f"(absolute floor {args.min_dist_speedup:g}) {verdict}")
        if speedup_2w < args.min_dist_speedup:
            gate.failures.append(
                f"distributed_search.speedup_2w below floor: {speedup_2w:g} "
                f"< {args.min_dist_speedup:g}")

    # Tracing must stay within its absolute overhead budget.  The bench
    # already interleaves the arms and takes best-of-3, so the ratio is far
    # less noisy than a raw wall-clock metric; compiled-out builds report a
    # trivially ~1.0 ratio and are only checked for presence.
    overhead = lookup(current, "tracing_overhead.overhead_ratio")
    compiled_out = lookup(current, "tracing_overhead.compiled_out")
    if overhead is None:
        gate.failures.append(
            "tracing_overhead.overhead_ratio: missing from current run")
    elif compiled_out:
        gate.lines.append(
            f"  tracing_overhead.overhead_ratio: {overhead:g} "
            f"(cap skipped: tracing compiled out)")
    else:
        verdict = "FAIL" if overhead > args.max_tracing_overhead else "ok"
        gate.lines.append(
            f"  tracing_overhead.overhead_ratio: {overhead:g} "
            f"(absolute cap {args.max_tracing_overhead:g}) {verdict}")
        if overhead > args.max_tracing_overhead:
            gate.failures.append(
                f"tracing_overhead.overhead_ratio above cap: {overhead:g} "
                f"> {args.max_tracing_overhead:g}")

    # The climb is time-budgeted and its levels step by two outputs: tolerate
    # one level (2 POs) of machine jitter anywhere on the ladder, fail on
    # more.  An absolute comparison — ratios would tolerate different drops
    # at different rungs.
    previous_pos = lookup(previous, "exhaustive_bb.largest_tractable_pos")
    current_pos = lookup(current, "exhaustive_bb.largest_tractable_pos")
    if current_pos is None:
        gate.failures.append(
            "exhaustive_bb.largest_tractable_pos: missing from current run")
    elif previous_pos is None:
        gate.lines.append("  exhaustive_bb.largest_tractable_pos: "
                          f"baseline established at {current_pos}")
    else:
        dropped = previous_pos - current_pos
        verdict = "FAIL" if dropped > 2 else "ok"
        gate.lines.append(
            f"  exhaustive_bb.largest_tractable_pos: {previous_pos} -> "
            f"{current_pos} (allowed drop 2) {verdict}")
        if dropped > 2:
            gate.failures.append(
                "exhaustive_bb.largest_tractable_pos regressed: "
                f"{previous_pos} -> {current_pos}")

    previous_runs = bb_runs_by_pos(previous)
    current_runs = bb_runs_by_pos(current)
    for pos in sorted(set(previous_runs) & set(current_runs)):
        gate.check(f"exhaustive_bb.runs[pos={pos}].nodes_expanded",
                   previous_runs[pos].get("nodes_expanded"),
                   current_runs[pos].get("nodes_expanded"),
                   args.max_count_regression, higher_better=False)
        gate.check(f"exhaustive_bb.runs[pos={pos}].prune_factor",
                   previous_runs[pos].get("prune_factor"),
                   current_runs[pos].get("prune_factor"),
                   args.max_count_regression, higher_better=True)
    for pos in sorted(set(current_runs) - set(previous_runs)):
        gate.lines.append(
            f"  exhaustive_bb.runs[pos={pos}]: new level, baseline established")

    print("bench_trend: comparing", args.previous, "->", args.current)
    for line in gate.lines:
        print(line)
    if gate.failures:
        print(f"bench_trend: {len(gate.failures)} regression(s):",
              file=sys.stderr)
        for failure in gate.failures:
            print("  " + failure, file=sys.stderr)
        return 1
    print("bench_trend: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
