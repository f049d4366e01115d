#!/usr/bin/env python3
"""Build and run the mobilenet benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py                      # every workload, one fresh process each
    python3 perfbench/run.py --workload <name> --steady <N> [--seed <n>]

Builds the `perfbench` crate (its own Cargo workspace, target directory
`$CARGO_TARGET_DIR`, default `.bench_build`), runs each workload in a fresh
process, adds that process's peak resident memory (`peak_rss_mb`) to the
end-to-end metrics, and prints the result as the last line of stdout.
Exits non-zero when the build fails, a run fails, or a correctness check
fails. `--steady N` runs one workload N times with seeds n, n+1, ... and
prints each end-to-end metric's median, quartiles and spread (the
interquartile range over the median) next to its bound in
BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Builds the harness; returns the binary's path or exits 2."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        sys.exit(2)
    if done.returncode != 0:
        log(f"perfbench: build failed with exit code {done.returncode}")
        sys.exit(2)
    return os.path.join(target_dir(), "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload in a fresh process.

    Returns (exit code, parsed result or None). The result gains
    `peak_rss_mb`, the process's resident high-water mark, when untraced.
    """
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, lambda: child.send_signal(signal.SIGKILL))
    timer.start()
    try:
        out = child.stdout.read().decode()
        # wait4, not wait: it also returns the child's resource usage.
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = code = os.waitstatus_to_exitcode(status)
    lines = [line for line in out.splitlines() if line.strip()]
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None:
        log(f"perfbench: {workload} seed {seed} printed no result (exit code {code})")
        return (code or 1), None
    if not trace:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    return code, result


def steady(binary, workload, first_seed, runs, seconds):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    values, failed_shares = {}, []
    for seed in range(first_seed, first_seed + runs):
        code, result = run_once(binary, workload, seed, seconds, False)
        if code != 0 or result is None:
            log(f"perfbench: steadiness run with seed {seed} failed")
            return 1
        failed_shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log(f"perfbench: seed {seed}: " + json.dumps(result))
    print(f"{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, "
          f"failed share {sorted(set(failed_shares))}")
    print(f"{'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    worst = 0
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = bounds.get(name)
        mark = ""
        if bound is not None and spread > bound:
            mark, worst = "  OVER BOUND", 1
        print(f"{name:<22} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{bound if bound is not None else '-':>6}{mark}")
    return worst


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [w["name"] for w in spec.get("workloads", [])]
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.get("run_seconds", 30))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="N",
                        help="run the workload N times and report each metric's spread")
    args = parser.parse_args()

    binary = build()
    if args.steady:
        if not args.workload:
            parser.error("--steady needs --workload")
        return steady(binary, args.workload, args.seed, args.steady, args.seconds)
    if args.workload:
        code, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code
    worst = 0
    for workload in workloads:
        code, result = run_once(binary, workload, args.seed, args.seconds, args.trace)
        worst = worst or code or (1 if result is None else 0)
        if result is None:
            continue
        print(f"{workload}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
        print(json.dumps({"workload": workload, **result}))
    return worst


if __name__ == "__main__":
    sys.exit(main())
