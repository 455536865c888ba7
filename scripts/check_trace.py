#!/usr/bin/env python3
"""CI validator for vapor-obs Chrome-trace JSON files.

Run a traced binary (VAPOR_TRACE=trace.json ./build/tools/vapor-crashtest
--all-kernels, or vapor-explain --trace), then point this script at the
file. It checks:

  schema       the file is valid JSON with a "traceEvents" list, and every
               event has the fields Chrome/Perfetto require for its phase:
               name, cat, ph in {X, i, C}, pid, tid, numeric ts; "X" also
               needs a numeric non-negative dur, "C" an args object with
               at least one numeric series value.

  timestamps   within each thread (tid), completion timestamps (ts + dur
               for spans, ts otherwise) are non-decreasing in file order.
               vapor-obs appends events at span *destruction* under one
               lock, so per-thread completion order is exactly file order;
               a violation means a recorder bypassed the sink's append
               path or the clock went backwards. A tolerance of one
               microsecond-grid step (0.001 us) absorbs the %.3f rendering
               of nanosecond timestamps.

  events       at least one: a traced run that recorded nothing shows
               nothing.

  drops        reported, and fatal with --no-drops: a trace that silently
               hit the sink's MaxEvents bound is incomplete evidence.

Exit status: 0 pass, 1 validation failure, 2 bad input/usage.
"""

import argparse
import json
import sys

VALID_PHASES = {"X", "i", "C"}
# One step of the emitted %.3f microsecond grid: ts values are rendered
# from integer nanoseconds, so equal-ns neighbors can differ by one
# rounding step after the float round-trip.
TS_TOLERANCE_US = 0.001


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_event(i, ev):
    if not isinstance(ev, dict):
        fail(f"event {i}: not an object")
    for key in ("name", "cat", "ph", "pid", "tid", "ts"):
        if key not in ev:
            fail(f"event {i} ({ev.get('name', '?')}): missing '{key}'")
    ph = ev["ph"]
    if ph not in VALID_PHASES:
        fail(f"event {i} ({ev['name']}): unexpected phase '{ph}'")
    if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
        fail(f"event {i} ({ev['name']}): non-numeric or negative ts")
    if not isinstance(ev["tid"], int) or ev["tid"] < 0:
        fail(f"event {i} ({ev['name']}): bad tid")
    if ph == "X":
        dur = ev.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            fail(f"event {i} ({ev['name']}): 'X' without numeric dur")
    if ph == "C":
        args = ev.get("args")
        if not isinstance(args, dict) or not any(
                isinstance(v, (int, float)) for v in args.values()):
            fail(f"event {i} ({ev['name']}): 'C' without a numeric series")
    args = ev.get("args")
    if args is not None and not isinstance(args, dict):
        fail(f"event {i} ({ev['name']}): args is not an object")


def completion_ts(ev):
    return ev["ts"] + (ev.get("dur", 0) if ev["ph"] == "X" else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome-trace JSON written by a vapor-obs "
                                  "TraceSink")
    ap.add_argument("--no-drops", action="store_true",
                    help="fail if the sink reported dropped events")
    args = ap.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as f:
            trace = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_trace: cannot read {args.trace}: {e}", file=sys.stderr)
        sys.exit(2)

    if not isinstance(trace, dict) or "traceEvents" not in trace:
        fail("no 'traceEvents' key — not a Chrome trace object")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        fail("'traceEvents' is not a list")

    for i, ev in enumerate(events):
        check_event(i, ev)

    # Per-thread monotonicity of completion timestamps, in file order.
    last_by_tid = {}
    for i, ev in enumerate(events):
        tid, done = ev["tid"], completion_ts(ev)
        prev = last_by_tid.get(tid)
        if prev is not None and done < prev - TS_TOLERANCE_US:
            fail(f"event {i} ({ev['name']}): completion ts {done:.3f}us "
                 f"goes back past {prev:.3f}us on tid {tid}")
        last_by_tid[tid] = max(done, prev) if prev is not None else done

    if not events:
        fail("no events recorded")

    dropped = trace.get("otherData", {}).get("dropped", 0)
    if dropped and args.no_drops:
        fail(f"{dropped} events dropped at the sink's MaxEvents bound")

    tids = sorted(last_by_tid)
    print(f"check_trace: PASS: {len(events)} events across "
          f"{len(tids)} thread(s) {tids}, {dropped} dropped, per-thread "
          f"timestamps monotonic")
    sys.exit(0)


if __name__ == "__main__":
    main()
