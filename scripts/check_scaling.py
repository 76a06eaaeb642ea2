#!/usr/bin/env python3
"""Scaling-smoke gate: fail when the multi-worker median is not faster.

Reads a schema-v1 BENCH_*.json (see bench/common.hpp) and asserts that one
series' median at `--fast` workers is below its median at `--slow` workers
(optionally scaled by --max-ratio). Used by CI to guard against the fib
scaling curve flattening again (the steal/idle path regressing to the point
where extra workers stop paying for themselves).

A second mode gates one series against another at the *same* worker count:
with --baseline-series the check becomes

    median(--series @ --fast) / median(--baseline-series @ --fast)
        <= --max-ratio

(<=, not <: a tie passes — "must not lose", not "must win"), e.g. an
ablation variant against the full configuration in the same report.

A third mode gates across *files*: --baseline-file reads the baseline
series from a second schema-v1 report instead of the same one. Combined
with the default --baseline-series (the series itself), this compares the
same series between two builds — CI's trace-off overhead gate runs
micro_spawn from an instrumented build against an XK_OBS=OFF build and
requires the ratio to stay under 1.05.

A fourth mode gates an *absolute* value: --max-seconds fails when the
gated metric at --fast workers exceeds the bound, with no baseline at
all. CI uses this with --metric p95_s for the service-mode tail-latency
smoke, where a ratio against the 1-worker series would be meaningless on
a noisy single-core runner but "p95 under a generous absolute ceiling"
still catches a dispatcher that stops overlapping submission with
execution.

--metric selects which schema-v1 field every mode reads (default
median_s; p95_s and p99_s are the tail-latency fields micro_service
emits per-job samples for).

Exit codes: 0 ok, 1 scaling regression, 2 malformed/missing input.

Examples:
  scripts/check_scaling.py BENCH_fig1_fib.json --series XKaapi \
      --slow 1 --fast 8 --max-ratio 1.0
  scripts/check_scaling.py BENCH_ablation_steal.json \
      --series "dataflow-grid/full (agg+RL)" \
      --baseline-series "dataflow-grid/neither" --fast 8 --max-ratio 1.0
  scripts/check_scaling.py BENCH_spawn_obs.json --series "BM_spawn/8" \
      --baseline-file BENCH_spawn_noobs.json --fast 8 --max-ratio 1.05
  scripts/check_scaling.py BENCH_micro_service.json --series open-loop \
      --metric p95_s --fast 2 --max-seconds 0.5
"""

import argparse
import json
import sys


def series_values(doc, series, metric):
    values = {}
    for r in doc.get("results", []):
        if r.get("name") == series:
            if metric not in r:
                print(f"error: series '{series}' @{r.get('nworkers')}w "
                      f"lacks metric '{metric}'", file=sys.stderr)
                raise SystemExit(2)
            values[int(r["nworkers"])] = float(r[metric])
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("json_file", help="schema-v1 BENCH_*.json to check")
    ap.add_argument("--series", default="XKaapi", help="series name")
    ap.add_argument("--baseline-series", default=None,
                    help="compare --series against this series at --fast "
                         "workers instead of scaling --series across worker "
                         "counts (ablation mode; passes on a tie)")
    ap.add_argument("--baseline-file", default=None,
                    help="read the baseline series from this schema-v1 file "
                         "instead of json_file (cross-build mode; implies "
                         "ablation mode with --baseline-series defaulting "
                         "to --series)")
    ap.add_argument("--slow", type=int, default=1,
                    help="baseline worker count (default 1; ignored in "
                         "ablation mode)")
    ap.add_argument("--fast", type=int, default=8,
                    help="scaled worker count (default 8)")
    ap.add_argument("--metric", default="median_s",
                    help="schema-v1 result field every mode gates on "
                         "(default median_s; e.g. p95_s, p99_s, mean_s)")
    ap.add_argument("--max-seconds", type=float, default=None,
                    help="absolute mode: fail when --metric of --series at "
                         "--fast workers exceeds this many seconds")
    ap.add_argument("--max-ratio", type=float, default=1.0,
                    help="scaling mode: fail when median(fast)/median(slow) "
                         ">= this (default 1.0: fast must be strictly "
                         "faster). Ablation mode: fail when "
                         "median(series)/median(baseline) > this")
    args = ap.parse_args()

    try:
        with open(args.json_file) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.json_file}: {exc}", file=sys.stderr)
        return 2
    if doc.get("schema_version") != 1:
        print("error: unexpected schema_version", file=sys.stderr)
        return 2

    medians = series_values(doc, args.series, args.metric)

    if args.max_seconds is not None:
        if args.fast not in medians:
            print(f"error: series '{args.series}' lacks worker count "
                  f"{args.fast} (have {sorted(medians)})", file=sys.stderr)
            return 2
        value = medians[args.fast]
        ok = value <= args.max_seconds
        verdict = "ok" if ok else "REGRESSION"
        print(f"{args.series} @{args.fast}w: {args.metric}="
              f"{value * 1e3:.3f}ms (limit {args.max_seconds * 1e3:.3f}ms) "
              f"-> {verdict}")
        if not ok:
            print(f"error: {args.metric} of '{args.series}' at {args.fast} "
                  f"workers exceeds the {args.max_seconds}s ceiling",
                  file=sys.stderr)
            return 1
        return 0

    if args.baseline_series is not None or args.baseline_file is not None:
        base_doc = doc
        if args.baseline_file is not None:
            try:
                with open(args.baseline_file) as fh:
                    base_doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"error: cannot read {args.baseline_file}: {exc}",
                      file=sys.stderr)
                return 2
            if base_doc.get("schema_version") != 1:
                print("error: unexpected schema_version in baseline file",
                      file=sys.stderr)
                return 2
        base_name = args.baseline_series or args.series
        base_label = base_name if base_doc is doc else \
            f"{base_name} ({args.baseline_file})"
        base = series_values(base_doc, base_name, args.metric)
        if args.fast not in medians or args.fast not in base:
            print(f"error: need worker count {args.fast} in both "
                  f"'{args.series}' (have {sorted(medians)}) and "
                  f"'{base_label}' (have {sorted(base)})",
                  file=sys.stderr)
            return 2
        base_s, new_s = base[args.fast], medians[args.fast]
        ratio = new_s / base_s if base_s > 0 else float("inf")
        ok = ratio <= args.max_ratio
        verdict = "ok" if ok else "REGRESSION"
        print(f"{args.series} vs {base_label} @{args.fast}w "
              f"[{args.metric}]: "
              f"{new_s * 1e3:.3f}ms vs {base_s * 1e3:.3f}ms "
              f"ratio={ratio:.3f} (limit {args.max_ratio}) -> {verdict}")
        if not ok:
            print(f"error: '{args.series}' must not lose to "
                  f"'{base_label}' by more than "
                  f"{args.max_ratio}x at {args.fast} workers",
                  file=sys.stderr)
            return 1
        return 0

    missing = [n for n in (args.slow, args.fast) if n not in medians]
    if missing:
        print(f"error: series '{args.series}' lacks worker counts {missing} "
              f"(have {sorted(medians)})", file=sys.stderr)
        return 2

    slow_s, fast_s = medians[args.slow], medians[args.fast]
    ratio = fast_s / slow_s if slow_s > 0 else float("inf")
    verdict = "ok" if ratio < args.max_ratio else "REGRESSION"
    print(f"{args.series}: {args.metric}@{args.slow}w={slow_s * 1e3:.3f}ms "
          f"{args.metric}@{args.fast}w={fast_s * 1e3:.3f}ms ratio={ratio:.3f} "
          f"(limit {args.max_ratio}) -> {verdict}")
    if ratio >= args.max_ratio:
        print(f"error: {args.fast}-worker {args.metric} must stay below "
              f"{args.max_ratio} x the {args.slow}-worker median — the "
              "scaling curve re-flattened", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
