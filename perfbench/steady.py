#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the benchmark command from BENCHMARK.json once per seed for each
workload and prints, for every metric, the median, the quartiles and the
spread (third minus first quartile, as a share of the median) against
the metric's bound. Run it from the root of a munin checkout:

    python3 perfbench/steady.py --sets 10
    python3 perfbench/steady.py --sets 5 --workloads handoff --first-seed 100

Each run lasts run_seconds and reports the end-to-end metrics, the
ones the bounds apply to. Quartiles are statistics.quantiles(values, n=4). An end-to-end metric
is marked "ok" when its spread is below a third of its bound, "wide"
when it is within the bound but not below a third, and "OVER" beyond.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1]), wall


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=10, help="runs per workload, one seed each")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    opts = ap.parse_args()

    for workload in opts.workloads.split(","):
        runs = []
        for i in range(opts.sets):
            seed = opts.first_seed + i
            res, wall = run_once(spec["command"], workload, seed, spec["run_seconds"])
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} wall={wall:.1f}s", file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n== {workload}: {opts.sets} runs, all correct={all(r['correct'] for r in runs)}, "
              f"failed shares={shares}")
        print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            verdict = "ok" if spread < bound / 3 else ("wide" if spread <= bound else "OVER")
            print(f"{m['name']:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:>6} {verdict}")


if __name__ == "__main__":
    main()
