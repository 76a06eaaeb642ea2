#!/usr/bin/env python3
"""Validates an XK_TRACE Chrome trace-event JSON file.

Checks, in order:
  * the file is well-formed JSON in object format with a "traceEvents"
    array (the format chrome://tracing and Perfetto load);
  * every event has a known phase ("X" complete, "i" instant, "M"
    metadata), numeric ts, and (for "X") a non-negative dur;
  * per (pid, tid), "X" spans nest properly: sorted by (ts, -dur), each
    span either contains or is disjoint from every other — a span that
    straddles an enclosing span's end means the writer emitted garbage
    timestamps (a small --epsilon in microseconds absorbs clock
    granularity at span edges);
  * per (pid, tid), record timestamps — ts for instants, ts + dur for
    spans, which are recorded at completion — are monotonically
    non-decreasing in drain order (owner-written rings drain oldest-first,
    so any inversion means the drain or the re-basing epoch is wrong);
  * --require-cats: each named category appears at least once among the
    events (CI passes task,steal,ready for the micro_steal smoke — park
    is real but not guaranteed at tiny sizes);
  * the optional top-level "metrics" array: each entry names a pid and
    carries a "snapshot" object with "nworkers", "counters" (a
    name->integer object), and "domains" (list of rank/occupied
    gauges) — the machine-readable side of the drain.

Exit codes: 0 ok, 1 validation failure, 2 missing/unreadable input.

Examples:
  scripts/check_trace.py trace.json
  scripts/check_trace.py trace.json --require-cats task,steal,ready \
      --require-metrics
"""

import argparse
import json
import sys

KNOWN_PHASES = {"X", "i", "M"}


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 1


def check_events(events, epsilon):
    """Phase/field sanity plus per-(pid,tid) ordering and span nesting."""
    cats = set()
    lanes = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return None, fail(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            return None, fail(f"traceEvents[{i}]: unknown phase {ph!r}")
        if ph == "M":
            continue  # metadata carries no timestamp worth checking
        for field in ("ts", "pid", "tid", "name"):
            if field not in ev:
                return None, fail(f"traceEvents[{i}] lacks {field!r}")
        if not isinstance(ev["ts"], (int, float)):
            return None, fail(f"traceEvents[{i}]: non-numeric ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                return None, fail(
                    f"traceEvents[{i}] ({ev['name']}): bad dur {dur!r}")
        if "cat" in ev:
            cats.add(ev["cat"])
        lanes.setdefault((ev["pid"], ev["tid"]), []).append(ev)

    for (pid, tid), lane in lanes.items():
        prev_ts = None
        for ev in lane:  # writer order == drain order == oldest first
            # Spans are recorded when they *close*, so the ring-order
            # invariant is on completion time, not start time (a parent
            # span starts before but ends after its children).
            rec = ev["ts"] + ev.get("dur", 0)
            if prev_ts is not None and rec + epsilon < prev_ts:
                return None, fail(
                    f"pid {pid} tid {tid}: record-time inversion at "
                    f"{ev['name']!r} ({rec} after {prev_ts})")
            prev_ts = rec
        # Span containment: with spans sorted by (start, -dur), a stack of
        # currently-open spans must always enclose the next span entirely.
        spans = sorted((e for e in lane if e["ph"] == "X"),
                       key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for ev in spans:
            t0, t1 = ev["ts"], ev["ts"] + ev["dur"]
            while stack and t0 >= stack[-1][1] - epsilon:
                stack.pop()
            if stack and t1 > stack[-1][1] + epsilon:
                return None, fail(
                    f"pid {pid} tid {tid}: span {ev['name']!r} "
                    f"[{t0}, {t1}] straddles enclosing "
                    f"{stack[-1][2]!r} ending at {stack[-1][1]}")
            stack.append((t0, t1, ev["name"]))
    return cats, 0


def check_metrics(doc, required):
    metrics = doc.get("metrics")
    if metrics is None:
        if required:
            return fail("no top-level 'metrics' array")
        return 0
    if not isinstance(metrics, list):
        return fail("'metrics' is not an array")
    for i, m in enumerate(metrics):
        if "pid" not in m:
            return fail(f"metrics[{i}] lacks 'pid'")
        snap = m.get("snapshot")
        if snap is None:
            continue  # a run can end before any section closed
        for field in ("nworkers", "counters", "domains"):
            if field not in snap:
                return fail(f"metrics[{i}].snapshot lacks {field!r}")
        if not isinstance(snap["counters"], dict):
            return fail(f"metrics[{i}].snapshot.counters is not an object")
        for name, val in snap["counters"].items():
            if not isinstance(val, int):
                return fail(f"metrics[{i}] counter {name!r} is not an "
                            "integer")
        for j, d in enumerate(snap["domains"]):
            for field in ("rank", "occupied"):
                if field not in d:
                    return fail(f"metrics[{i}].snapshot.domains[{j}] "
                                f"lacks {field!r}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace_file", help="XK_TRACE output to validate")
    ap.add_argument("--require-cats", default=None,
                    help="comma list of categories that must each appear "
                         "at least once (e.g. task,steal,ready)")
    ap.add_argument("--require-metrics", action="store_true",
                    help="fail when the top-level 'metrics' array is "
                         "absent (it is always validated when present)")
    ap.add_argument("--epsilon", type=float, default=0.002,
                    help="slack in microseconds for span-edge comparisons "
                         "(default 0.002 = 2ns, the writer's precision)")
    args = ap.parse_args()

    try:
        with open(args.trace_file) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.trace_file}: {exc}",
              file=sys.stderr)
        return 2
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return fail("not a Chrome trace object (no 'traceEvents' key)")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return fail("'traceEvents' is not an array")

    cats, rc = check_events(events, args.epsilon)
    if rc:
        return rc
    if args.require_cats:
        missing = [c for c in args.require_cats.split(",")
                   if c and c not in cats]
        if missing:
            return fail(f"required categories missing: {missing} "
                        f"(present: {sorted(cats)})")
    rc = check_metrics(doc, args.require_metrics)
    if rc:
        return rc

    n_spans = sum(1 for e in events if e.get("ph") == "X")
    n_inst = sum(1 for e in events if e.get("ph") == "i")
    print(f"{args.trace_file}: ok — {n_spans} spans, {n_inst} instants, "
          f"categories {sorted(cats)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
