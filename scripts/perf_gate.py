#!/usr/bin/env python3
"""CI perf gate for the VM dispatch-throughput baseline.

Compares a freshly measured ``vm_throughput --json`` report against the
committed baseline (BENCH_vm.json) and fails when the headline
``ns_per_dispatched_op`` regressed by more than MAX_REGRESS (15%).
Improvements always pass; the committed baseline is only refreshed
deliberately, by re-running the bench and checking the JSON in.

Three modes:

  absolute (default)   current.ns_per_dispatched_op must be at most
                       baseline.ns_per_dispatched_op * (1 + MAX_REGRESS).
                       Meaningful on runners comparable to the one that
                       produced the baseline.

  --relative           ignores the baseline's absolute nanoseconds and
                       instead checks an internal invariant of the current
                       report: the fused headline cell must not be slower
                       than its own unfused measurement by more than
                       MAX_REGRESS. This is stable under uniform slowdown
                       (sanitizer instrumentation, emulation), which is why
                       the sanitize CI job uses it.

                       Both modes also gate fusion on every cell of the
                       current report, which must hold the full matrix:
                       the 36 registry kernels x sse, altivec, neon, avx
                       and scalar. A cell's fused_speedup is the median
                       of its interleaved per-rep unfused/fused time
                       ratios. No cell may fall below FUSION_CELL_MIN
                       and the geomean not below FUSION_GEOMEAN_MIN, so
                       a superop that loses on some kernels cannot hide
                       behind the headline. The slowest cells are named
                       in the verdict.

  --obs-overhead       gates the observability layer's ON-but-idle cost:
                       the report's ns_per_op_obs_idle (obs compiled in,
                       no sink installed — the default configuration every
                       run pays) must be at most ns_per_op_obs_off (master
                       switch dark) * (1 + MAX_OBS_OVERHEAD, 2%).
                       Both numbers come from one interleaved measurement
                       inside the current report, so this mode needs only
                       one report and no baseline:
                       perf_gate.py --obs-overhead vm_current.json

  --native-floor       gates the native tier's payoff from one
                       ``native_throughput --json`` report: the headline
                       cell's native_ns_per_op must be at most
                       vm_ns_per_op * NATIVE_FLOOR_RATIO (0.5, i.e.
                       native must at least halve the VM's fused dispatch
                       cost), and over the full 36 kernel x 5 target
                       matrix (a missing cell exits 2) the geomean of
                       vm_ns_per_op / native_ns_per_op must be at least
                       1 / NATIVE_FLOOR_RATIO; the minimum and the five
                       slowest cells are printed. It also holds the
                       saturating-kernel lowering floor: every cell whose
                       kernel carries the "saturating" feature (the
                       striped-DP SSV/Viterbi family) must report
                       packed_ops >= 1 on SIMD targets -- the narrow
                       packed encodings (paddsb/paddsw/paddusb/psubusb/
                       pmaxub/pmaxsw ...) must stay inline, never regress
                       to VM handler calls. Reports written on hosts without
                       the native tier carry "native_supported": false;
                       with --allow-missing those pass with a notice --
                       the executor demotes cleanly there, so there is
                       nothing to gate. Without --allow-missing (and
                       always when the key is absent, i.e. the report is
                       corrupt or from the wrong bench) that is a hard
                       failure: a gate that silently stops measuring is
                       worse than no gate:
                       perf_gate.py --native-floor --allow-missing \
                           native_current.json

  --server-floor       gates the execution service's replay report
                       (BENCH_server.json from vapor-replay --json): the
                       load run must be contract-clean (0 failures, 0
                       golden mismatches, 0 unexpected Statuses, 0
                       protocol violations, 0 server aborts), must have
                       completed work (completed > 0, throughput > 0),
                       and the bounded code cache must be earning its
                       keep (cache_hit_rate at least
                       SERVER_MIN_HIT_RATE, 0.10):
                       perf_gate.py --server-floor BENCH_server.json

  --tiering-floor      gates tiered execution's payoff from one
                       ``tiering_latency --json`` report
                       (BENCH_tiering.json, schema v3) over EVERY
                       kernel x target cell: the geomean cold
                       time-to-first-result speedup must be at least
                       TIERING_COLD_FLOOR (2.0) and the worst cell at
                       least TIERING_COLD_CELL_MIN (0.5); no
                       cell's cold runs may have executed the
                       interpreter (the one cold tier is the
                       forced-scalar JIT); every cell must have
                       converged to the eager tier; and steady-state
                       tiered throughput must stay within 5% of eager:
                       steady_ratio_geomean at least
                       TIERING_STEADY_FLOOR (0.95) with no single cell
                       below TIERING_STEADY_CELL_MIN (0.85); a cell's
                       steady ratio is the median of its interleaved
                       per-rep eager/tiered ratios. The slowest cells
                       are named in the verdict. Every ratio compares
                       two numbers from the same report on the same
                       host, so the gate holds under uniform slowdown
                       (sanitizers). A
                       report of any other schema is bad input:
                       perf_gate.py --tiering-floor BENCH_tiering.json

  --elision-floor      gates proof-carrying check elision from one
                       native_throughput report: the report's
                       geomean_elide_speedup (elision ON vs OFF, native,
                       geomean over every kernel x target cell) must be
                       at least ELISION_FLOOR_GEOMEAN (1.0: elision
                       must never cost throughput on average; a
                       single cell is too noisy to gate, the geomean over
                       the full matrix is stable). Both sides of every
                       ratio come from the same report, so the gate holds
                       under uniform slowdown. With --audit-json the
                       matching ``vapor-crashtest --audit --json`` report
                       must additionally show zero would-have-fired
                       elidable checks and zero failures -- the soundness
                       half of the same contract:
                       perf_gate.py --elision-floor native_current.json \
                           --audit-json audit.json

  --verify-linear      gates the static verifier's proportionality from one
                       ``jit_compile_time --verify-json`` report
                       (schema vapor-bench-verify-v1): the verifier's
                       cost per KB of bytecode is measured for every
                       registry kernel on every SIMD target, and no
                       kernel may exceed 2.0x the median kernel. Verify
                       time must grow with module size, not with a
                       kernel's shape. The worst kernels are named in
                       the verdict. Both sides of the ratio come from the
                       same report, so the gate holds on any host. A
                       report that is not exactly the 36 registry kernels
                       (each named once) x the 4 SIMD targets is bad
                       input:
                       perf_gate.py --verify-linear verify_current.json

  --lower-linear       the same gate on the online compiler's lowering,
                       from one ``jit_compile_time --lower-json`` report
                       (schema vapor-bench-lower-v1): jit::compile at the
                       strong tier with unknown placement, one SIMD target
                       per call, for every registry kernel. No kernel may
                       exceed 2.0x the median kernel's us/KB; the same
                       matrix shape is required, or the report is bad
                       input:
                       perf_gate.py --lower-linear lower_current.json

Exit status: 0 pass, 1 regression, 2 bad input.
"""

import argparse
import json
import math
import sys

# Headline regression allowed by the vm_throughput modes (absolute
# against the baseline, or fused against unfused with --relative).
MAX_REGRESS = 0.15
# --obs-overhead: ON-but-idle tracing may cost at most this fraction.
MAX_OBS_OVERHEAD = 0.02
# --native-floor: the native headline ns/op at most this share of the VM's.
NATIVE_FLOOR_RATIO = 0.5
# --elision-floor: geomean elision-ON-vs-OFF native speedup at least this.
ELISION_FLOOR_GEOMEAN = 1.0
# --server-floor: the replay's code-cache hit rate at least this.
SERVER_MIN_HIT_RATE = 0.10

# --tiering-floor: geomean cold time-to-first-result speedup over every
# cell, and the worst cell: no kernel x target cell may answer its first
# request more than 2x slower tiered than eager. Steady-state tiered
# throughput over eager: geomean, and the worst cell.
TIERING_COLD_FLOOR = 2.0
TIERING_COLD_CELL_MIN = 0.5
TIERING_STEADY_FLOOR = 0.95
TIERING_STEADY_CELL_MIN = 0.85

# Fusion floors of the vm_throughput modes, over the full kernel x target
# matrix (fused_speedup = unfused time / fused time, median of interleaved
# reps). Set from full-matrix runs on a 4-vCPU Cooper Lake host: over ten
# default runs the slowest cell read 0.96-1.01 and the geomean 1.09-1.16,
# over eight ASan+UBSan runs 1.00-1.01 and 1.09-1.10. The build before
# the ScalarOps helpers were forced inline reads a slowest cell of
# 0.53-0.54 (ASan 0.88) and a geomean of 1.03-1.06 (ASan 1.07), with 24
# (ASan 15) cells below 0.95. Not yet measured on CI's runners or on
# another CPU family: a cell's ratio depends on handler placement, and
# on Skylake-family cores on the decoded-uop cache (ROADMAP item 4).
FUSION_CELL_MIN = 0.93
FUSION_GEOMEAN_MIN = 1.05
VM_MATRIX_KERNELS = 36
VM_MATRIX_TARGETS = ("sse", "altivec", "neon", "avx", "scalar")

VERIFY_SCHEMA = "vapor-bench-verify-v1"
LOWER_SCHEMA = "vapor-bench-lower-v1"
# --verify-linear and --lower-linear: no kernel's us/KB above this many
# times the median kernel, over exactly this kernel x target matrix (the
# registry's kernels::ExpectedKernelCount and every target with SIMD).
LINEAR_MAX = 2.0
LINEAR_KERNELS = 36
LINEAR_TARGETS = ("sse", "altivec", "neon", "avx")
TIERING_SCHEMA = "vapor-bench-tiering-v3"


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def native_gate_applies(report, path, allow_missing):
    """Whether a native_throughput gate should run on *report*.

    Returns True when the native tier was measured. Exits instead of
    returning when the report cannot be trusted: an absent
    "native_supported" key means a corrupt or wrong-bench report (hard
    exit 2), and an unsupported host is only waved through when the
    caller explicitly opted in with --allow-missing -- otherwise a runner
    misconfiguration would silently disable the gate forever (exit 1).
    """
    if "native_supported" not in report:
        print(f"perf_gate: {path} has no \"native_supported\" key; the "
              "report is corrupt or not from this bench. Refusing to "
              "treat a broken report as a pass.", file=sys.stderr)
        sys.exit(2)
    if report["native_supported"] is not False:
        return True
    if not allow_missing:
        print("perf_gate: FAIL: the report says the native tier is "
              "unsupported on the measuring host, but --allow-missing "
              "was not given. If this runner is genuinely meant to gate "
              "without the native tier, pass --allow-missing explicitly.",
              file=sys.stderr)
        sys.exit(1)
    print("perf_gate: PASS (notice): native tier unsupported on the "
          f"measuring host (features: {report.get('cpu_features', '?')}); "
          "nothing to gate (--allow-missing)")
    return False


def cell_matrix(report, path, what, value):
    """{(kernel, target): value(cell)} over the full matrix.

    Exits 2 unless *report*'s cells are exactly VM_MATRIX_KERNELS
    kernels x VM_MATRIX_TARGETS, each once, with a positive value.
    """
    cells = report.get("cells")
    matrix = {}
    for c in cells if isinstance(cells, list) else []:
        v = value(c) if isinstance(c, dict) else None
        key = (c.get("kernel"), c.get("target")) if v else None
        if not isinstance(v, (int, float)) or v <= 0 or key in matrix:
            matrix = None
            break
        matrix[key] = v
    kernels = {k for k, _ in matrix or {}}
    if not matrix or len(kernels) != VM_MATRIX_KERNELS \
            or len(matrix) != VM_MATRIX_KERNELS * len(VM_MATRIX_TARGETS) \
            or {t for _, t in matrix} != set(VM_MATRIX_TARGETS):
        print(f"perf_gate: {path} does not hold a {what} for each of the "
              f"{VM_MATRIX_KERNELS} kernels x {list(VM_MATRIX_TARGETS)}; "
              f"regenerate it with the current bench", file=sys.stderr)
        sys.exit(2)
    return matrix


def geomean_of(matrix):
    return math.exp(sum(math.log(v) for v in matrix.values()) / len(matrix))


def fusion_gate(report, path):
    """Per-cell and geomean fusion floors over the full matrix.

    Exits 2 when *report* is not the full matrix (cell_matrix); returns
    True when every floor holds.
    """
    speedup = cell_matrix(report, path, "fused_speedup",
                          lambda c: c.get("fused_speedup"))
    geomean = geomean_of(speedup)
    ranked = sorted(speedup.items(), key=lambda kv: kv[1])
    below = [kv for kv in ranked if kv[1] < FUSION_CELL_MIN]
    ok = not below and geomean >= FUSION_GEOMEAN_MIN
    print(f"perf_gate: {'PASS' if ok else 'FAIL'}: fused speedup over "
          f"{len(speedup)} cells: geomean {geomean:.3f} (floor "
          f"{FUSION_GEOMEAN_MIN:.2f}), {len(below)} cells below "
          f"{FUSION_CELL_MIN:.2f}; slowest: "
          + ", ".join(f"{k}/{t} {v:.3f}" for (k, t), v in ranked[:3]))
    if below:
        print("perf_gate: fusion loses on: "
              + ", ".join(f"{k}/{t} {v:.3f}" for (k, t), v in below),
              file=sys.stderr)
    return ok


def headline_cell(report):
    """The cell the headline metric is measured on (kernel+target keys)."""
    kernel, target = report.get("kernel"), report.get("target")
    for cell in report.get("cells", []):
        if cell.get("kernel") == kernel and cell.get("target") == target:
            return cell
    return None


def linear_gate(path, schema, stage, flag):
    """The --verify-linear / --lower-linear gate on one jit_compile_time
    per-KB report: exits 0 when no kernel's us/KB is above LINEAR_MAX
    times the median kernel, 1 when one is, 2 on a report that is not
    exactly the LINEAR_KERNELS kernels (each named once) x LINEAR_TARGETS
    of the given schema."""
    report = load(path)
    if not isinstance(report, dict) or report.get("schema") != schema:
        got = report.get("schema") if isinstance(report, dict) else None
        print(f"perf_gate: {path} has schema {got!r}, not {schema!r}; "
              f"regenerate it with jit_compile_time {flag}",
              file=sys.stderr)
        sys.exit(2)
    kernels = report.get("kernels")
    targets = report.get("targets")
    if not isinstance(kernels, list) or not isinstance(targets, list) \
            or sorted(targets) != sorted(LINEAR_TARGETS) \
            or len(kernels) != LINEAR_KERNELS \
            or len({k.get("kernel") for k in kernels
                    if isinstance(k, dict)}) != LINEAR_KERNELS:
        print(f"perf_gate: {path} is not {LINEAR_KERNELS} distinct "
              f"kernels x the SIMD targets {list(LINEAR_TARGETS)}",
              file=sys.stderr)
        sys.exit(2)
    for k in kernels:
        per_call = k.get("us_per_call")
        if not isinstance(k.get("us_per_kb"), (int, float)) \
                or k["us_per_kb"] <= 0 \
                or not isinstance(per_call, dict) \
                or sorted(per_call) != sorted(LINEAR_TARGETS) \
                or not all(isinstance(u, (int, float)) and u > 0
                           for u in per_call.values()):
            print(f"perf_gate: {path} has an incomplete row for "
                  f"{k.get('kernel', '?')}", file=sys.stderr)
            sys.exit(2)
    per_kb = sorted(k["us_per_kb"] for k in kernels)
    median = per_kb[len(per_kb) // 2]
    worst = sorted(kernels, key=lambda k: -k["us_per_kb"])[:3]
    ratio = worst[0]["us_per_kb"] / median
    over = [k for k in kernels if k["us_per_kb"] > LINEAR_MAX * median]
    verdict = "FAIL" if over else "PASS"
    print(f"perf_gate: {verdict}: {stage} cost over {len(kernels)} "
          f"kernels x {len(targets)} SIMD targets: median "
          f"{median:.1f} us/KB, worst {ratio:.2f}x the median "
          f"(limit {LINEAR_MAX:.2f}x); slowest: "
          + ", ".join(f"{k['kernel']} {k['us_per_kb']:.1f}"
                      for k in worst))
    if over:
        print(f"perf_gate: {stage} time is no longer proportional to "
              "module size on: "
              + ", ".join(f"{k['kernel']} "
                          f"{k['us_per_kb'] / median:.2f}x"
                          for k in over), file=sys.stderr)
        sys.exit(1)
    sys.exit(0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed BENCH_vm.json (or, with "
                                     "--obs-overhead, the only report)")
    ap.add_argument("current", nargs="?", default=None,
                    help="freshly measured vm_throughput --json (unused "
                         "with --obs-overhead)")
    ap.add_argument("--relative", action="store_true",
                    help="gate fused-vs-unfused within the current report "
                         "instead of against the baseline's nanoseconds")
    ap.add_argument("--obs-overhead", action="store_true",
                    help="gate ON-but-idle tracing cost against the dark "
                         "measurement inside one report")
    ap.add_argument("--native-floor", action="store_true",
                    help="gate the native tier's headline ns/op against "
                         "the VM's fused ns/op inside one "
                         "native_throughput report")
    ap.add_argument("--elision-floor", action="store_true",
                    help="gate elided vs unelided native ns/op inside one "
                         "native_throughput report")
    ap.add_argument("--audit-json", default=None,
                    help="with --elision-floor: a vapor-crashtest --audit "
                         "--json report that must show zero would-have-"
                         "fired checks and zero failures")
    ap.add_argument("--allow-missing", action="store_true",
                    help="with the native gates: accept a report whose "
                         "\"native_supported\" is exactly false (host "
                         "without the native tier) as a pass-with-notice "
                         "instead of a failure")
    ap.add_argument("--server-floor", action="store_true",
                    help="gate a vapor-replay BENCH_server.json report: "
                         "contract-clean load run, work completed, cache "
                         "hit rate above the floor")
    ap.add_argument("--tiering-floor", action="store_true",
                    help="gate a tiering_latency BENCH_tiering.json "
                         "report: all-cell and worst-cell cold TTFR "
                         "speedup, no interpreter cold runs, and "
                         "steady-state parity with eager")
    ap.add_argument("--verify-linear", action="store_true",
                    help="gate a jit_compile_time --verify-json report: "
                         "no kernel's verify us/KB above 2.0x the median "
                         "kernel")
    ap.add_argument("--lower-linear", action="store_true",
                    help="gate a jit_compile_time --lower-json report: "
                         "no kernel's lowering us/KB above 2.0x the "
                         "median kernel")
    args = ap.parse_args()

    if args.verify_linear:
        linear_gate(args.current or args.baseline, VERIFY_SCHEMA, "verify",
                    "--verify-json")
    if args.lower_linear:
        linear_gate(args.current or args.baseline, LOWER_SCHEMA, "lowering",
                    "--lower-json")

    if args.tiering_floor:
        path = args.current or args.baseline
        report = load(path)
        schema = report.get("schema")
        if schema != TIERING_SCHEMA:
            print(f"perf_gate: {path} has schema {schema!r}, not "
                  f"{TIERING_SCHEMA!r}; regenerate it with the current "
                  "tiering_latency", file=sys.stderr)
            sys.exit(2)
        cold = report.get("cold_speedup_geomean")
        steady = report.get("steady_ratio_geomean")
        steady_min = report.get("steady_ratio_min")
        for name, v in (("cold_speedup_geomean", cold),
                        ("steady_ratio_geomean", steady),
                        ("steady_ratio_min", steady_min)):
            if not isinstance(v, (int, float)) or v <= 0:
                print(f"perf_gate: {path} has no usable {name}",
                      file=sys.stderr)
                sys.exit(2)
        cells = report.get("cells")
        if not isinstance(cells, list) or not cells:
            print(f"perf_gate: {path} has no cells", file=sys.stderr)
            sys.exit(2)
        for c in cells:
            if not all(isinstance(c.get(k), list)
                       for k in ("cold_entry_tiers", "cold_exec_tiers")) \
                    or not isinstance(c.get("cold_speedup"), (int, float)):
                print(f"perf_gate: {path} has a cell without cold "
                      "speedup or cold tiers", file=sys.stderr)
                sys.exit(2)

        def name(c):
            return c.get("kernel", "?") + "/" + c.get("target", "?")

        slowest = sorted(cells, key=lambda c: c["cold_speedup"])[:5]
        cold_min = slowest[0]["cold_speedup"]
        bad = []
        if cold < TIERING_COLD_FLOOR:
            bad.append(f"cold speedup geomean {cold:.2f}x"
                       f"<{TIERING_COLD_FLOOR:.2f}x")
        if cold_min < TIERING_COLD_CELL_MIN:
            bad.append(f"worst cold cell {cold_min:.3f}x"
                       f"<{TIERING_COLD_CELL_MIN:.2f}x")
        if steady < TIERING_STEADY_FLOOR:
            bad.append(f"steady ratio geomean {steady:.3f}"
                       f"<{TIERING_STEADY_FLOOR:.2f}")
        if steady_min < TIERING_STEADY_CELL_MIN:
            bad.append(f"steady ratio min {steady_min:.3f}"
                       f"<{TIERING_STEADY_CELL_MIN:.2f}")
        # The interpreter is the degradation chain's last resort, never a
        # cold entry: a cold run that executed it is a tiering regression.
        interp = [name(c) for c in cells
                  if "interpreter" in c["cold_entry_tiers"]
                  or "interpreter" in c["cold_exec_tiers"]]
        if interp:
            bad.append("cold runs executed the interpreter on: "
                       + ", ".join(interp[:5]))
        # A cell that never converged to the eager tier means promotion
        # itself is broken -- its "steady" numbers measure the wrong tier.
        unconverged = [name(c) for c in cells
                       if c.get("promote_runs", -1) < 0]
        if unconverged:
            bad.append("promotion never converged on: "
                       + ", ".join(unconverged[:5]))
        verdict = "FAIL" if bad else "PASS"
        print(f"perf_gate: {verdict}: tiered cold-TTFR geomean {cold:.2f}x "
              f"over {len(cells)} cells (floor "
              f"{TIERING_COLD_FLOOR:.1f}x), worst {cold_min:.3f}x "
              f"(floor {TIERING_COLD_CELL_MIN:.2f}x); slowest: "
              + ", ".join(f"{name(c)} {c['cold_speedup']:.3f}x"
                          for c in slowest)
              + f"; steady ratio geomean {steady:.3f} min "
              f"{steady_min:.3f} (floors {TIERING_STEADY_FLOOR:.2f}/"
              f"{TIERING_STEADY_CELL_MIN:.2f})")
        if bad:
            print("perf_gate: tiered execution broke its latency "
                  "contract: " + ", ".join(bad), file=sys.stderr)
            sys.exit(1)
        sys.exit(0)

    if args.server_floor:
        path = args.current or args.baseline
        report = load(path)
        if report.get("schema") != "vapor-bench-server-v1":
            print(f"perf_gate: {path} is not a vapor-replay server report",
                  file=sys.stderr)
            sys.exit(2)
        # Contract counters: every one must be present AND zero. A
        # missing counter is a corrupt report, not a clean run.
        zeros = ("failures", "golden_mismatches", "unexpected_status",
                 "protocol_failures", "server_aborts")
        bad = []
        for key in zeros:
            v = report.get(key)
            if not isinstance(v, int) or v < 0:
                print(f"perf_gate: {path} is missing counter \"{key}\"",
                      file=sys.stderr)
                sys.exit(2)
            if v != 0:
                bad.append(f"{key}={v}")
        completed = report.get("completed")
        rps = report.get("throughput_rps")
        hit = report.get("cache_hit_rate")
        for name, v in (("completed", completed),
                        ("throughput_rps", rps),
                        ("cache_hit_rate", hit)):
            if not isinstance(v, (int, float)):
                print(f"perf_gate: {path} has no usable {name}",
                      file=sys.stderr)
                sys.exit(2)
        if completed <= 0 or rps <= 0:
            bad.append(f"completed={completed} throughput={rps}")
        if hit < SERVER_MIN_HIT_RATE:
            bad.append(f"cache_hit_rate={hit:.3f}"
                       f"<{SERVER_MIN_HIT_RATE:.2f}")
        verdict = "FAIL" if bad else "PASS"
        print(f"perf_gate: {verdict}: server replay "
              f"completed={completed} p50={report.get('p50_ms', 0):.2f}ms "
              f"p99={report.get('p99_ms', 0):.2f}ms "
              f"throughput={rps:.1f} req/s hit_rate={hit:.3f} "
              f"evictions={report.get('cache_evictions', '?')}")
        if bad:
            print("perf_gate: the execution service broke its robustness "
                  "contract under load: " + ", ".join(bad), file=sys.stderr)
            sys.exit(1)
        sys.exit(0)

    if args.elision_floor:
        path = args.current or args.baseline
        report = load(path)
        if report.get("bench") != "native_throughput":
            print(f"perf_gate: {path} is not a native_throughput report",
                  file=sys.stderr)
            sys.exit(2)
        if not native_gate_applies(report, path, args.allow_missing):
            sys.exit(0)
        geo = report.get("geomean_elide_speedup")
        if not isinstance(geo, (int, float)) or geo <= 0:
            print(f"perf_gate: {path} has no usable geomean_elide_speedup",
                  file=sys.stderr)
            sys.exit(2)
        verdict = "PASS" if geo >= ELISION_FLOOR_GEOMEAN else "FAIL"
        print(f"perf_gate: {verdict}: geomean elision-ON-vs-OFF native "
              f"speedup {geo:.2f}x "
              f"(floor {ELISION_FLOOR_GEOMEAN:.2f}x); headline "
              f"elided {report.get('native_ns_per_op_elide', 0):.4f} vs "
              f"unelided {report.get('native_ns_per_op', 0):.4f} ns/op")
        if geo < ELISION_FLOOR_GEOMEAN:
            print("perf_gate: certificate-driven check elision no longer "
                  "pays for itself across the matrix; check whether the "
                  "verifier stopped certifying accesses or the native "
                  "emitter stopped honoring the plan's grants",
                  file=sys.stderr)
            sys.exit(1)
        if args.audit_json:
            audit = load(args.audit_json)
            if not audit.get("audit_mode", False):
                print(f"perf_gate: {args.audit_json} was not produced by a "
                      "--audit crashtest sweep", file=sys.stderr)
                sys.exit(2)
            fired = (audit.get("audit_align_fired", -1),
                     audit.get("audit_bounds_fired", -1))
            failures = audit.get("failures", -1)
            if any(not isinstance(v, int) or v < 0
                   for v in (*fired, failures)):
                print(f"perf_gate: {args.audit_json} is missing audit "
                      "counters", file=sys.stderr)
                sys.exit(2)
            if fired != (0, 0) or failures != 0:
                print(f"perf_gate: FAIL: audit sweep saw "
                      f"{fired[0]} align + {fired[1]} bounds "
                      f"would-have-fired elidable checks and "
                      f"{failures} failures (all must be 0); an elided "
                      "check masked a genuine fault", file=sys.stderr)
                sys.exit(1)
            print(f"perf_gate: audit sweep clean: 0 would-have-fired "
                  f"elidable checks across {audit.get('cases', '?')} "
                  f"fault-injected cases")
        sys.exit(0)

    if args.native_floor:
        path = args.current or args.baseline
        report = load(path)
        if report.get("bench") != "native_throughput":
            print(f"perf_gate: {path} is not a native_throughput report",
                  file=sys.stderr)
            sys.exit(2)
        if not native_gate_applies(report, path, args.allow_missing):
            sys.exit(0)
        native = report.get("native_ns_per_op")
        vm = report.get("vm_ns_per_op")
        for name, v in (("native_ns_per_op", native), ("vm_ns_per_op", vm)):
            if not isinstance(v, (int, float)) or v <= 0:
                print(f"perf_gate: {path} has no usable {name}",
                      file=sys.stderr)
                sys.exit(2)
        limit = vm * NATIVE_FLOOR_RATIO
        ratio = native / vm
        verdict = "PASS" if native <= limit else "FAIL"
        print(f"perf_gate: {verdict}: native {native:.4f} vs VM fused "
              f"{vm:.3f} ns/op, ratio {ratio:.2f} "
              f"(limit {NATIVE_FLOOR_RATIO:.2f})")
        if native > limit:
            print("perf_gate: the native tier no longer clears its payoff "
                  "floor against the VM; check the emitter for lost inline "
                  "coverage (ops falling back to VM handler calls)",
                  file=sys.stderr)
            sys.exit(1)

        # The same floor over every cell: the geomean native speedup of
        # the full kernel x target matrix must clear 1 / the ratio.
        def cell_speedup(c):
            n, v = c.get("native_ns_per_op"), c.get("vm_ns_per_op")
            if all(isinstance(x, (int, float)) and x > 0 for x in (n, v)):
                return v / n
            return None

        speedup = cell_matrix(report, path, "native and VM ns/op",
                              cell_speedup)
        geomean = geomean_of(speedup)
        ranked = sorted(speedup.items(), key=lambda kv: kv[1])
        below = sum(1 for _, v in ranked if v < 1.0)
        floor = 1.0 / NATIVE_FLOOR_RATIO
        verdict = "PASS" if geomean >= floor else "FAIL"
        print(f"perf_gate: {verdict}: native speedup over {len(speedup)} "
              f"cells: geomean {geomean:.2f}x (floor {floor:.2f}x), min "
              f"{ranked[0][1]:.2f}x, {below} cells below 1.0x; slowest: "
              + ", ".join(f"{k}/{t} {v:.2f}x" for (k, t), v in ranked[:5]))
        if geomean < floor:
            print("perf_gate: the native tier no longer pays for itself "
                  "across the matrix", file=sys.stderr)
            sys.exit(1)
        # Saturating-kernel lowering floor: every cell whose kernel
        # carries the "saturating" feature must keep packed SSE lowering
        # (paddsb/psubusw family) on SIMD targets. A report with no such
        # cells came from a bench binary that lost the DP kernels -- that
        # is corrupt input, not a pass.
        sat_cells = [c for c in report.get("cells", [])
                     if c.get("saturating") is True]
        sat_simd = [c for c in sat_cells if c.get("target") != "scalar"]
        if not sat_simd:
            print(f"perf_gate: {path} has no saturating-kernel SIMD cells "
                  f"(bench binary predates the striped-DP kernels, or the "
                  f"kernel registry lost them)", file=sys.stderr)
            sys.exit(2)
        bad = []
        for c in sat_simd:
            packed = c.get("packed_ops")
            if not isinstance(packed, int) or packed < 1:
                bad.append(c)
        if bad:
            names = ", ".join(f"{c.get('kernel')}x{c.get('target')}"
                              for c in bad)
            print(f"perf_gate: FAIL: saturating-kernel cells lost their "
                  f"packed lowering (packed_ops = 0): {names}; the narrow "
                  f"packed encodings (paddsb/paddsw/paddusb/psubusb ...) "
                  f"must stay inline", file=sys.stderr)
            sys.exit(1)
        print(f"perf_gate: PASS: {len(sat_simd)} saturating-kernel SIMD "
              f"cells keep packed inline lowering (min packed_ops "
              f"{min(c['packed_ops'] for c in sat_simd)})")
        sys.exit(0)

    if args.obs_overhead:
        path = args.current or args.baseline
        report = load(path)
        if report.get("bench") != "vm_throughput":
            print(f"perf_gate: {path} is not a vm_throughput report",
                  file=sys.stderr)
            sys.exit(2)
        idle = report.get("ns_per_op_obs_idle")
        off = report.get("ns_per_op_obs_off")
        for name, v in (("ns_per_op_obs_idle", idle),
                        ("ns_per_op_obs_off", off)):
            if not isinstance(v, (int, float)) or v <= 0:
                print(f"perf_gate: {path} has no usable {name}",
                      file=sys.stderr)
                sys.exit(2)
        limit = off * (1.0 + MAX_OBS_OVERHEAD)
        delta = (idle - off) / off
        verdict = "PASS" if idle <= limit else "FAIL"
        print(f"perf_gate: {verdict}: obs idle {idle:.3f} vs dark "
              f"{off:.3f} ns/op, overhead {delta:+.2%} "
              f"(limit +{MAX_OBS_OVERHEAD:.0%})")
        if idle > limit:
            print("perf_gate: ON-but-idle tracing overhead exceeds the "
                  "budget; a recording site is probably doing work before "
                  "checking obs::tracingActive()/enabled()",
                  file=sys.stderr)
            sys.exit(1)
        sys.exit(0)

    if args.current is None:
        print("perf_gate: baseline and current reports are both required "
              "outside --obs-overhead mode", file=sys.stderr)
        sys.exit(2)

    base = load(args.baseline)
    cur = load(args.current)

    for report, path in ((base, args.baseline), (cur, args.current)):
        if report.get("bench") != "vm_throughput":
            print(f"perf_gate: {path} is not a vm_throughput report",
                  file=sys.stderr)
            sys.exit(2)

    cur_ns = cur.get("ns_per_dispatched_op")
    if not isinstance(cur_ns, (int, float)) or cur_ns <= 0:
        print("perf_gate: current report has no ns_per_dispatched_op",
              file=sys.stderr)
        sys.exit(2)

    if args.relative:
        cell = headline_cell(cur)
        if cell is None:
            print("perf_gate: current report has no headline cell",
                  file=sys.stderr)
            sys.exit(2)
        ref_ns = cell["ns_per_op_unfused"]
        what = (f"fused {cell['ns_per_op_fused']:.3f} vs unfused "
                f"{ref_ns:.3f} ns/op (relative mode)")
        measured = cell["ns_per_op_fused"]
    else:
        ref_ns = base.get("ns_per_dispatched_op")
        if not isinstance(ref_ns, (int, float)) or ref_ns <= 0:
            print("perf_gate: baseline has no ns_per_dispatched_op",
                  file=sys.stderr)
            sys.exit(2)
        what = (f"current {cur_ns:.3f} vs baseline {ref_ns:.3f} "
                f"ns/dispatched-op")
        measured = cur_ns

    limit = ref_ns * (1.0 + MAX_REGRESS)
    delta = (measured - ref_ns) / ref_ns
    verdict = "PASS" if measured <= limit else "FAIL"
    print(f"perf_gate: {verdict}: {what}, delta {delta:+.1%} "
          f"(limit +{MAX_REGRESS:.0%})")
    fusion_ok = fusion_gate(cur, args.current)
    if measured > limit:
        print("perf_gate: dispatch throughput regressed past the gate; "
              "either fix the regression or deliberately refresh "
              "BENCH_vm.json with the bench's --json output",
              file=sys.stderr)
    sys.exit(0 if measured <= limit and fusion_ok else 1)


if __name__ == "__main__":
    main()
