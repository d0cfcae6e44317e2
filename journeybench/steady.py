#!/usr/bin/env python3
"""Steadiness self-check for journeybench.

Runs every workload N times, each with another seed, and reports for
each end-to-end metric its median, quartiles and quartile spread
(Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json.
A spread above a third of the bound is flagged, one above the bound
fails; the bounds in BENCHMARK.json are derived from these figures (see
README.md). With --sets 2 the whole set of runs is made twice, and a
metric whose second median is worse than the first by more than its
bound fails too.

    python3 journeybench/steady.py                 # 10 seeds per workload
    python3 journeybench/steady.py --runs 5 --workloads served_mix
    python3 journeybench/steady.py --sets 2        # two sets must agree

Run it from the repository root. It builds once, then runs the built
binary; exit status 1 means a run failed or answered wrongly, a spread
exceeded its bound, or two sets disagreed by more than a bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "journeybench/Cargo.toml"],
        cwd=ROOT, env=env, check=True)
    return os.path.join(target, "release", "journeybench")


def run(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def one_set(binary, args, bounds, label):
    """Runs every workload over the seeds; returns ({(workload, metric):
    median}, ok)."""
    ok = True
    medians = {}
    for workload in args.workloads.split(","):
        values = {}
        for k in range(args.runs):
            seed = args.seed0 + k
            result = run(binary, workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{label}{workload}: {args.runs} runs x {args.seconds} s, seeds "
              f"{args.seed0}..{args.seed0 + args.runs - 1}")
        print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            medians[(workload, name)] = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag, ok = "  OVER BOUND", False
                elif spread > bound / 3:
                    flag = "  above bound/3"
            print(f"  {name:<18} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{spread:>8.4f} {bound if bound is not None else '-':>6}{flag}", flush=True)
    return medians, ok


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    binary = build()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    first, ok = one_set(binary, args, bounds, "set 1: " if args.sets == 2 else "")
    if args.sets == 2:
        second, ok2 = one_set(binary, args, bounds, "set 2: ")
        ok = ok and ok2
        print("\nset 2 median / set 1 median (worse by more than the bound fails)")
        for (workload, name), a in first.items():
            b = second.get((workload, name))
            if b is None or name not in bounds:
                continue
            worse = (b - a) / a if lower[name] else (a - b) / a
            flag = ""
            if worse > bounds[name]:
                flag, ok = "  WORSE THAN BOUND", False
            print(f"  {workload:<13} {name:<18} {b / a:>8.4f} {bounds[name]:>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
