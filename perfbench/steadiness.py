#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload at least ten times, alternating workloads and giving
each run its own seed, then prints for every end-to-end metric the median,
the quartiles (Python's statistics.quantiles(values, n=4)), the
interquartile spread and the max/min spread as shares of the median. A
metric whose interquartile spread is wider than its bound is flagged WIDE;
one wider than a third of its bound is flagged NOISY. setup_s is judged
like every other metric.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--seconds S] [--seed-base 1]
                                    [--workloads sweep-sync,mcd-long]
                                    [--trace 0|1] [--out FILE]

Raw per-run results are written to --out (default
.perfbench/steadiness.json). Exit status 1 when a run fails, a check
fails, the share of failed operations differs between runs of a workload,
or a metric is flagged WIDE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    wall = time.monotonic() - t
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": wall, "result": result,
            "stderr_tail": proc.stderr.strip().splitlines()[-5:]}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("inf"),
            "range_share": (max(values) - min(values)) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", default=os.path.join(".perfbench", "steadiness.json"))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    runs = []
    for i in range(args.runs):
        for w in workloads:
            seed = args.seed_base + i
            r = run_once(bench["command"], w, seed, seconds, args.trace)
            runs.append(r)
            res = r["result"] or {}
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: exit {r['exit']}, "
                  f"{r['wall_s']:.1f} s, correct {res.get('correct')}, "
                  f"attempted {res.get('attempted')}, failed {res.get('failed')}",
                  file=sys.stderr, flush=True)

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"seconds": seconds, "trace": args.trace, "runs": runs}, f, indent=1)

    bad = False
    print(f"{'workload':<12} {'metric':<30} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr%':>7} {'range%':>7} {'bound%':>7}  flag")
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        ok = [r for r in mine if r["exit"] == 0 and r["result"] and r["result"]["correct"]]
        if len(ok) != len(mine):
            bad = True
            for r in mine:
                if r not in ok:
                    print(f"{w} seed {r['seed']}: FAILED run (exit {r['exit']}): "
                          f"{r['stderr_tail']}")
        if not ok:
            continue
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in ok}
        if len(shares) != 1:
            bad = True
            print(f"{w}: failed-operation share differs between runs: {sorted(shares)}")
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in ok]
            if len(values) < 2:
                continue
            s = spread(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                if s["iqr_share"] > bound:
                    flag, bad = "WIDE", True
                elif s["iqr_share"] > bound / 3:
                    flag = "NOISY"
            bound_txt = f"{bound * 100:7.1f}" if bound is not None else f"{'-':>7}"
            print(f"{w:<12} {m['name']:<30} {len(values):>3} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['iqr_share'] * 100:7.2f} "
                  f"{s['range_share'] * 100:7.2f} {bound_txt}  {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
