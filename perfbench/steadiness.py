#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py --runs 10 --sets 2 --out perfbench/steadiness.json

Makes `--sets` sets of `--runs` runs of every workload (each run on its
own seed, sets on disjoint seeds, workloads alternating run by run) and
records, per metric and set, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread: the interquartile
distance as a share of the median.  It also records the
host reference loop of every run, and compares each spread and the drift
between the sets' medians with the metric's bound from BENCHMARK.json.
Run from the root of a checkout; runs are sequential.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as bench


def run_once(workload, seed, seconds):
    command = [sys.executable, str(bench.HERE / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    result = subprocess.run(command, capture_output=True, text=True,
                            check=False)
    wall = time.time() - start
    if result.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{result.stdout[-2000:]}{result.stderr[-2000:]}")
    out = json.loads(result.stdout.strip().splitlines()[-1])
    record = json.loads((bench.BUILD_ROOT / "results" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    return ({k: v["value"] for k, v in out["metrics"].items()},
            statistics.mean(record["ref_loop_ms"]), wall)


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",")
    # Workloads alternate run by run, so each set of runs spans the whole
    # time the set takes and slow phases of the host hit every workload.
    raw = {w: [] for w in workloads}
    for s in range(args.sets):
        seeds = [args.first_seed + 100 * s + i for i in range(args.runs)]
        runs = {w: [] for w in workloads}
        for seed in seeds:
            for workload in workloads:
                metrics, ref, wall = run_once(workload, seed, seconds)
                runs[workload].append((metrics, ref, wall))
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in metrics.items()),
                    file=sys.stderr, flush=True)
        for workload in workloads:
            per_metric = {}
            for metrics, _, _ in runs[workload]:
                for name, value in metrics.items():
                    per_metric.setdefault(name, []).append(value)
            raw[workload].append({
                "seeds": seeds,
                "host.ref_loop_ms": summarise([r for _, r, _ in
                                               runs[workload]]),
                "run_wall_s": summarise([w for _, _, w in runs[workload]]),
                "metrics": {name: summarise(values)
                            for name, values in per_metric.items()}})
    report = {"run_seconds": seconds, "runs_per_set": args.runs,
              "workloads": {}}
    for workload, sets in raw.items():
        verdict = {}
        for name, bound in bounds.items():
            spreads = [st["metrics"][name]["spread"] for st in sets]
            medians = [st["metrics"][name]["median"] for st in sets]
            worse = 0.0
            if medians[0]:
                change = (medians[-1] - medians[0]) / medians[0]
                worse = change if better[name] == "lower" else -change
            verdict[name] = {
                "bound": bound, "max_spread": max(spreads),
                "spread_within_third": max(spreads) < bound / 3,
                "median_drift": worse, "drift_within_bound": worse <= bound}
        report["workloads"][workload] = {"sets": sets, "verdict": verdict}
        for name, v in verdict.items():
            print(f"{workload:10s} {name:22s} spread {v['max_spread']:.4f} "
                  f"(bound/3 {v['bound'] / 3:.4f}) drift "
                  f"{v['median_drift']:+.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
