#!/usr/bin/env python3
"""Steadiness report: repeat every workload and summarise each metric.

    python3 perfbench/steadiness.py --runs 10 [--seconds S] [--trace 0]
        [--workloads cold_start,hot_loop] [--seed-base 1000] [--raw out.json]

Without --workloads it repeats the workloads BENCHMARK.json lists, and
without --seconds each run lasts its run_seconds.

Runs are interleaved (w1 s1, w2 s1, w3 s1, w1 s2, ...) so a slow stretch
of the host spreads over every workload instead of landing on one. Each
run gets its own seed. For every metric the report prints the median, the
quartiles (statistics.quantiles, n=4), the interquartile range and the
full range (max-min) as shares of the median, and, where BENCHMARK.json
gives the metric a bound, whether the interquartile share stays below a
third of it. The bounds in BENCHMARK.json were set from this report.
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
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  note: {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def load_spec():
    """(bounds by end-to-end metric, workload names, run_seconds) of
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["bound"] for m in spec["end_to_end"]},
            [w["name"] for w in spec["workloads"]], spec["run_seconds"])


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(med) if med else 1.0
    return med, q1, q3, (q3 - q1) / scale, (max(values) - min(values)) / scale


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=int,
                    help="per run; default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads",
                    help="comma-separated; default: BENCHMARK.json's")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--raw", help="also write every run's metrics here")
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")
    bounds, listed, run_seconds = load_spec()
    workloads = args.workloads.split(",") if args.workloads else listed
    if args.seconds is None:
        args.seconds = run_seconds

    samples = {w: [] for w in workloads}
    for r in range(args.runs):
        for w in workloads:
            seed = args.seed_base + r
            samples[w].append(run_once(w, seed, args.seconds, args.trace))
            print(f"run {r + 1}/{args.runs} {w} seed {seed} done", flush=True)

    worst = 0.0
    for w in workloads:
        print(f"\n{w} ({args.runs} runs, {args.seconds} s each)")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'rng/med':>8}  bound")
        for name in samples[w][0]:
            vals = [s[name] for s in samples[w]]
            med, q1, q3, iqr, rng = summarise(vals)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                ok = iqr < bound / 3
                verdict = f"{bound:<5} {'ok' if ok else 'WIDE'}"
                if name != "setup_s":
                    worst = max(worst, iqr / bound)
            print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{iqr:8.4f} {rng:8.4f}  {verdict}")
    if bounds:
        print(f"\nlargest iqr/bound (setup_s excluded): {worst:.3f}")
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(samples, f, indent=1)


if __name__ == "__main__":
    main()
