#!/usr/bin/env python3
"""Compare two sets of benchmark-suite result files.

    compare.py PARENT_DIR CHANGE_DIR     # verdict per (workload, metric)
    compare.py --spread DIR              # run-to-run spread of one set
    compare.py --self-test               # checks the rules on synthetic data

A set is a directory of result.<workload>.<untraced|traced>.seed<N>.json
files written by `run.py --out`. Runs with the same seed on both sides
form a pair; run the two sides alternately so host drift hits both.

For each end-to-end metric of BENCHMARK.json on each workload:
  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's spread (IQR / median) exceeds the bound, so
              a regression of that size could not be told from noise;
  unchanged   otherwise.
Per-layer medians of traced runs are listed for information. Files whose
build fields (compiler, flags, build type, XK_OBS, XK_CHECK) or run
settings differ are refused. Exit code 1 when anything regressed.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
BUILD_FIELDS = ["compiler", "flags", "build_type", "xk_obs", "xk_check",
                "seconds", "smoke"]
HOST_FIELDS = ["nproc", "P", "cpu_model"]


def load_set(directory):
    runs = []
    for path in sorted(Path(directory).glob("result.*.json")):
        with open(path) as f:
            runs.append(json.load(f))
    if not runs:
        raise SystemExit(f"compare.py: no result.*.json in {directory}")
    return runs


def check_meta(parent, change):
    """Raises ValueError when build fields differ; returns host warnings."""
    def fields(runs, keys):
        return {k: {json.dumps(r["meta"].get(k)) for r in runs} for k in keys}
    p, c = fields(parent, BUILD_FIELDS), fields(change, BUILD_FIELDS)
    for k in BUILD_FIELDS:
        if len(p[k] | c[k]) > 1:
            raise ValueError(f"meta field '{k}' differs: parent {sorted(p[k])}"
                             f" vs change {sorted(c[k])}")
    ph, ch = fields(parent, HOST_FIELDS), fields(change, HOST_FIELDS)
    return [f"host field '{k}' differs: {sorted(ph[k])} vs {sorted(ch[k])}"
            for k in HOST_FIELDS if len(ph[k] | ch[k]) > 1]


def series(runs, workload, metric, traced):
    """{seed: value} of one metric over the runs of one workload."""
    return {r["meta"]["seed"]: r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["traced"] == traced
            and metric in r["metrics"]}


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(parent, change, better, bound):
    """parent/change: {seed: value}. Returns (verdict, detail dict)."""
    p, c = list(parent.values()), list(change.values())
    pq1, pmed, pq3 = quartiles(p)
    cmed = statistics.median(c)
    sign = 1.0 if better == "lower" else -1.0
    seeds = sorted(set(parent) & set(change))
    if len(seeds) < len(parent) or len(seeds) < len(change):
        # Unmatched seeds: pair the runs in order instead.
        pairs = list(zip(p, c))
    else:
        pairs = [(parent[s], change[s]) for s in seeds]
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    worse = sign * (cmed - pmed) / pmed if pmed else 0.0
    sp, sc = spread(p), spread(c)
    detail = {"parent_median": pmed, "change_median": cmed,
              "parent_iqr": pq3 - pq1, "worse_by": worse, "wins": wins,
              "pairs": len(pairs), "parent_spread": sp, "change_spread": sc}
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - pmed) > pq3 - pq1:
        return "improved", detail
    if max(sp, sc) > bound:
        return "unresolved", detail
    if worse > bound:
        return "regressed", detail
    return "unchanged", detail


def compare(parent_runs, change_runs, spec):
    """Rows of (workload, metric, verdict, detail)."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for m in spec["end_to_end"]:
            p = series(parent_runs, w, m["name"], False)
            c = series(change_runs, w, m["name"], False)
            if p and c:
                v, d = verdict(p, c, m["better"], m["bound"])
                rows.append((w, m["name"], v, d))
        for m in spec["per_layer"]:
            p = series(parent_runs, w, m["name"], True)
            c = series(change_runs, w, m["name"], True)
            if p and c:
                rows.append((w, m["name"], "info", {
                    "parent_median": statistics.median(p.values()),
                    "change_median": statistics.median(c.values())}))
    return rows


def print_rows(rows):
    """Verdicts first, then the per-layer medians."""
    for w, m, v, d in rows:
        if v != "info":
            print(f"{w:14s} {m:38s} {v:10s} {d['parent_median']:>12.6g} -> "
                  f"{d['change_median']:<12.6g} worse_by {d['worse_by']:+.3f}"
                  f" wins {d['wins']}/{d['pairs']} spread "
                  f"{d['parent_spread']:.3f}/{d['change_spread']:.3f}")
    for w, m, v, d in rows:
        if v == "info":
            print(f"{w:14s} {m:38s} {'(layer)':10s} "
                  f"{d['parent_median']:>12.6g} -> {d['change_median']:.6g}")


def print_spread(runs, spec):
    for w in [w["name"] for w in spec["workloads"]]:
        for kind, traced in (("end_to_end", False), ("per_layer", True)):
            for m in spec[kind]:
                vals = list(series(runs, w, m["name"], traced).values())
                if len(vals) >= 2:
                    print(f"{w:14s} {m['name']:38s} n={len(vals):<3d} median "
                          f"{statistics.median(vals):>14.6g} spread "
                          f"{spread(vals):.4f}")


def self_test():
    import random
    rng = random.Random(7)
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "t", "unit": "us", "better": "lower",
                            "bound": 0.1}],
            "per_layer": []}
    meta = {k: "x" for k in BUILD_FIELDS + HOST_FIELDS}

    def runs(scale, noise, n=10):
        return [{"workload": "w", "traced": False,
                 "meta": dict(meta, seed=s),
                 "metrics": {"t": {"value": scale * (1 + rng.gauss(0, noise)),
                                   "unit": "us"}}} for s in range(n)]

    def one(parent, change):
        return compare(parent, change, spec)[0][2]

    base = runs(100.0, 0.01)
    assert one(base, runs(100.0, 0.01)) == "unchanged"
    assert one(base, runs(80.0, 0.01)) == "improved"
    assert one(base, runs(130.0, 0.01)) == "regressed"
    assert one(runs(100.0, 0.3), runs(130.0, 0.3)) == "unresolved"
    assert one(base, runs(105.0, 0.01)) != "regressed"  # within the bound
    other = runs(100.0, 0.01)
    other[0]["meta"]["flags"] = "-O0"
    try:
        check_meta(base, other)
    except ValueError:
        pass
    else:
        raise AssertionError("a build-field mismatch was not refused")
    host = runs(100.0, 0.01)
    host[0]["meta"]["cpu_model"] = "other"
    assert check_meta(base, host)  # warned, not refused
    print("compare.py self-test ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="*", type=Path)
    ap.add_argument("--spread", action="store_true",
                    help="print the run-to-run spread of one set")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    if args.spread and len(args.sets) == 1:
        print_spread(load_set(args.sets[0]), spec)
        return 0
    if len(args.sets) != 2:
        ap.error("give PARENT_DIR CHANGE_DIR, or --spread DIR")
    parent, change = load_set(args.sets[0]), load_set(args.sets[1])
    try:
        warnings = check_meta(parent, change)
    except ValueError as e:
        print(f"compare.py: refusing to compare: {e}", file=sys.stderr)
        return 2
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    rows = compare(parent, change, spec)
    print_rows(rows)
    return 1 if any(v == "regressed" for _, _, v, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
