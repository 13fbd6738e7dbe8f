#!/usr/bin/env python3
"""Noise self-check: two interleaved sets of runs of the same build.

For every workload and end-to-end metric of BENCHMARK.json it prints each
set's median and quartiles, the spread (interquartile distance over the
median) of each set and of both together, and whether the two medians
agree within the metric's bound. Use it to set the bounds: a bound must
sit well above the spread this command shows on the host that measures.

Run from the repository root:

    python3 gossipbench/noise_check.py [--runs 5] [--workloads paper_mc,...]
        [--first-seed 1000]

Each set makes --runs runs per workload of BENCHMARK.json's run_seconds,
each with its own seed; runs of the two sets alternate (A, B, B, A, ...). The exit code is 0 when every
median pair agrees within its bound and both sets fail the same share of
operations, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark(path="BENCHMARK.json"):
    with open(path) as f:
        return json.load(f)


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set per workload")
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--first-seed", type=int, default=1000)
    opts = parser.parse_args()

    bench = load_benchmark()
    command = bench["command"]
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = [n for n in opts.workloads.split(",") if n]
    metrics = bench["end_to_end"]

    ok = True
    for workload in names:
        sets = {"A": [], "B": []}
        for i in range(opts.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for label in order:
                seed = opts.first_seed + 2 * i + (0 if label == "A" else 1)
                sets[label].append(run_once(command, workload, seed, seconds))
        shares = {k: {r["failed"] / r["attempted"] for r in v} for k, v in sets.items()}
        same_share = len(shares["A"] | shares["B"]) == 1
        ok &= same_share
        print(f"== {workload}: {opts.runs} runs per set, {seconds} s each; "
              f"failed share {sorted(shares['A'] | shares['B'])} "
              f"{'same' if same_share else 'DIFFERS'}")
        print(f"{'metric':<20}{'A q1':>12}{'A median':>12}{'A q3':>12}{'B q1':>12}"
              f"{'B median':>12}{'B q3':>12}{'spreadA':>9}{'spreadB':>9}{'spread':>9}"
              f"{'shift':>9}{'bound':>7}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            qa, qb = quartiles(a), quartiles(b)
            shift = abs(qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            agree = shift <= bound
            ok &= agree
            steady = spread(a + b) < bound / 3
            verdict = ("agree" if agree else "DISAGREE") + ("" if steady else ", spread >= bound/3")
            print(f"{name:<20}{qa[0]:>12.5g}{qa[1]:>12.5g}{qa[2]:>12.5g}{qb[0]:>12.5g}"
                  f"{qb[1]:>12.5g}{qb[2]:>12.5g}{spread(a):>9.4f}{spread(b):>9.4f}"
                  f"{spread(a + b):>9.4f}{shift:>9.4f}{bound:>7.3f}  {verdict}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
