#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selfcheck.py [--seconds 2]

1. Generators: runs perfbench_test (key set, pass order, placement draw,
   Zipf draw and arrival schedule are pure functions of the seed).
2. Smoke: a short run of every workload, untraced and traced, must exit 0
   and print every metric of BENCHMARK.json by name with its unit and
   sample count; the JSON line must carry exactly those metrics.
3. Exact counts: two runs of cold_start and hot_loop with one seed give
   bit-identical modeled_cycles_geomean, bytecode_bytes,
   jit.compiles_per_op, target.vm_ops_dispatched_per_op,
   jit.checks_elided_per_op and vectorizer.vectorized_loop_ratio. A run
   with another seed walks the keys in another order but reproduces the
   per-key counts of every key whose placement the seed does not draw.

Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build step)

EXACT_E2E = ("modeled_cycles_geomean", "bytecode_bytes")
EXACT_LAYER = ("jit.compiles_per_op", "target.vm_ops_dispatched_per_op",
               "jit.checks_elided_per_op", "vectorizer.vectorized_loop_ratio")
METRIC_LINE = re.compile(r"^metric (\S+)\s+(\S+) (\S+)\s+samples=(\d+)$")


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def bench(exe, workload, seed, seconds, trace):
    proc = subprocess.run([exe, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}:\n"
             f"{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    notes = {}
    for line in lines[:-1]:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = (m.group(2), m.group(3), int(m.group(4)))
        elif line.split()[0].endswith("-digest"):
            notes[line.split()[0]] = line.split()[-1]
    return json.loads(lines[-1]), printed, notes


def smoke(exe, spec, seconds):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            result, printed, _ = bench(exe, w["name"], 5, seconds, trace)
            if set(result["metrics"]) != set(want):
                fail(f"{w['name']} trace {trace}: JSON metrics differ from "
                     f"BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{w['name']} trace {trace}: {result}")
            for name, unit in want.items():
                if name not in printed or printed[name][1] != unit:
                    fail(f"{w['name']} trace {trace}: metric {name} not "
                         f"printed with unit {unit}")
                if result["metrics"][name]["unit"] != unit:
                    fail(f"{w['name']}: JSON unit of {name}")
            if trace == 0 and "fail_ratio" not in printed:
                fail(f"{w['name']}: fail_ratio not printed")
            print(f"smoke ok: {w['name']} trace {trace} "
                  f"({result['attempted']} ops)")


def exact(exe, seconds):
    for w in ("cold_start", "hot_loop"):
        a0, _, _ = bench(exe, w, 11, seconds, 0)
        b0, _, _ = bench(exe, w, 11, seconds, 0)
        for name in EXACT_E2E:
            if a0["metrics"][name]["value"] != b0["metrics"][name]["value"]:
                fail(f"{w}: {name} differs between two runs of one seed")
        _, a1, an = bench(exe, w, 11, seconds, 1)
        _, b1, bn = bench(exe, w, 11, seconds, 1)
        _, c1, cn = bench(exe, w, 12, seconds, 1)
        for name in EXACT_LAYER:
            if a1[name][0] != b1[name][0]:
                fail(f"{w}: {name} {a1[name][0]} vs {b1[name][0]} for one seed")
        if an != bn:
            fail(f"{w}: digests differ between two runs of one seed")
        if an["per-key-digest"] != cn["per-key-digest"]:
            fail(f"{w}: per-key counts depend on the seed")
        if an["order-digest"] == cn["order-digest"]:
            fail(f"{w}: another seed did not change the key order")
        print(f"exact ok: {w}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    exe = run.build()
    test = subprocess.run([os.path.join(os.path.dirname(exe),
                                        "perfbench_test")])
    if test.returncode != 0:
        fail("generator tests")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    smoke(exe, spec, args.seconds)
    exact(exe, args.seconds)
    print("selfcheck ok")


if __name__ == "__main__":
    main()
