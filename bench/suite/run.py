#!/usr/bin/env python3
"""Build and run the xk benchmark suite.

Every workload:    python3 bench/suite/run.py [--seed N] [--smoke] [--out DIR]
One workload:      python3 bench/suite/run.py --workload W --seed N \
                       --seconds S --trace 0|1

Builds bench/suite (its own CMake project) into build-suite/, then runs
each workload in its own process with every XK_* / XKREPRO_* variable
removed from the environment. The untraced run (--trace 0) reports the
end-to-end metrics of BENCHMARK.json, the traced run (--trace 1) the
per-layer ones and writes a Chrome trace. Every output is checked; any
wrong output, missing metric or wrong unit makes the exit code non-zero.

With --workload, the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Without it, every metric is
printed as `workload  metric  value  unit` and each result file lands in
--out (default build-suite/results).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / "build-suite"
WORKLOADS = ["fib", "cholesky", "epx_loops", "service_light", "service_heavy"]
SMOKE_SECONDS = 0.3
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def scrubbed_env():
    """The caller's environment minus every runtime or bench knob."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("XK_", "XKREPRO_"))}


def build():
    """Configures (once) and builds xk_suite; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(f"run.py: no repository sources around {SUITE} "
                         "(bench/suite must sit in a full checkout)")
    if shutil.which("cmake") is None:
        raise SystemExit("run.py: cmake not found")
    env = scrubbed_env()
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(SUITE), "-B", str(BUILD)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, env=env, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "xk_suite",
                    "-j", jobs], check=True, env=env, stdout=sys.stderr)
    return BUILD / "xk_suite"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_one(binary, workload, seed, seconds, traced, smoke, trace_out):
    """Runs one workload process; returns its parsed result object."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--traced", "--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, env=scrubbed_env(), stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"run.py: {workload} printed no result "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["meta"]["git_sha"] = git_sha()
    result["exit_code"] = proc.returncode
    return result


def trace_problem(path):
    """None when `path` is a Chrome trace holding at least one span."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return f"trace {path} unreadable: {e}"
    if not any(e.get("ph") == "X" for e in events):
        return f"trace {path} holds no spans"
    return None


def problems(result, spec, trace_path=None):
    """Every reason this result is not acceptable, in words."""
    out = [f"{result['workload']}: {e}" for e in result["errors"]]
    if result["exit_code"] != 0 and not out:
        out.append(f"{result['workload']}: exit code {result['exit_code']}")
    if result["traced"] and trace_path is not None:
        bad = trace_problem(trace_path)
        if bad:
            out.append(f"{result['workload']}: {bad}")
    kind = "per_layer" if result["traced"] else "end_to_end"
    for m in spec[kind]:
        got = result["metrics"].get(m["name"])
        if got is None:
            out.append(f"{result['workload']}: metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            out.append(f"{result['workload']}: metric {m['name']} has unit "
                       f"{got['unit']}, BENCHMARK.json says {m['unit']}")
    return out


def contract_line(result, spec):
    kind = "per_layer" if result["traced"] else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    return json.dumps({
        "correct": bool(result["correct"]) and result["exit_code"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: result["metrics"][n] for n in names
                    if n in result["metrics"]},
    })


def save(result, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = "traced" if result["traced"] else "untraced"
    seed = result["meta"]["seed"]
    path = out_dir / f"result.{result['workload']}.{kind}.seed{seed}.json"
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and runs (every path, seconds total)")
    ap.add_argument("--out", type=Path, help="directory for result files")
    ap.add_argument("--bin", type=Path, help="prebuilt xk_suite (skip build)")
    args = ap.parse_args()

    spec = load_spec()
    binary = args.bin if args.bin else build()
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                               else spec["run_seconds"])
    out_dir = args.out or BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.workload:
        traced = args.trace == 1
        trace_path = out_dir / f"trace.{args.workload}.json"
        result = run_one(binary, args.workload, args.seed, seconds, traced,
                         args.smoke, trace_path)
        if args.out:
            save(result, out_dir)
        bad = problems(result, spec, trace_path)
        for p in bad:
            log(f"FAIL {p}")
        print(contract_line(result, spec), flush=True)
        return 1 if bad else 0

    bad = []
    passes = [False, True] if args.trace is None else [args.trace == 1]
    for workload in WORKLOADS:
        for traced in passes:
            log(f"-- {workload} ({'traced' if traced else 'untraced'})")
            trace_path = out_dir / f"trace.{workload}.json"
            result = run_one(binary, workload, args.seed, seconds, traced,
                             args.smoke, trace_path)
            save(result, out_dir)
            for name, m in result["metrics"].items():
                print(f"{workload:14s} {name:38s} {m['value']:>16.6g} "
                      f"{m['unit']}", flush=True)
            if result["failed"] != 0:
                bad.append(f"{workload}: {result['failed']} failed of "
                           f"{result['attempted']} attempted")
            bad += problems(result, spec, trace_path)
    for p in bad:
        log(f"FAIL {p}")
    log(f"results in {out_dir}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
