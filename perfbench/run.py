#!/usr/bin/env python3
"""Build (if needed) and run the repository benchmark.

    python3 perfbench/run.py --workload <cold_start|hot_loop|serve_zipf> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr; stdout carries the benchmark's report, whose last line is
the JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cold_start", "hot_loop", "serve_zipf")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ beside perfbench/; run from a checkout "
                 "of the repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target", "perfbench",
                    "perfbench_test"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    sys.stdout.flush()
    proc = subprocess.run([exe, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace)], cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
