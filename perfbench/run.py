#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The first call configures and compiles
`perfbench/` (the dominosyn library from `src/` plus the benchmark program)
into the build directory -- `$CARGO_TARGET_DIR` when set, else `.bench_build`
-- and later calls only re-check it.  Build output goes to stderr; stdout
carries the benchmark's lines, the last of which is the JSON result.  A traced run
(`--trace 1`) also writes its spans to `<build dir>/spans/`.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "core.hpp")):
        sys.exit("run.py: no dominosyn sources under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_cold", "serve_whatif", "exact_fabric"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("run.py: build failed: %s" % error)

    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        span_dir = os.path.join(build_dir, "spans")
        os.makedirs(span_dir, exist_ok=True)
        command += ["--span-file", os.path.join(
            span_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        completed = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
