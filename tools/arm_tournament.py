#!/usr/bin/env python3
"""Paired arm tournament over a --cell-csv written by a grid bench.

Every arm of one (cores, scenario) point ran on the same task sets and the
same workload realisations (core::EvaluateMethods), so arms compare paired.
The unit is the task set: a set's cells (sigma divisors, workload seeds)
are summed per arm first, because cells of one set are not independent.

For each point the best arm is the one with the lowest mean energy ratio
to the first arm listed.  Every arm then gets its paired relative energy
to that best arm, mean(E_arm / E_best - 1) over the task sets, with a 95 %
Student-t confidence interval.  An arm is "best beyond its CI" at a point
when it is the best arm there and every other arm's interval lies above 0.

  bench_scenario_planning --threads 4 --tasksets 24 \\
      --methods acs,acs-scenario,acs-mixture,acs-online,acs-online-drift \\
      --baseline acs --cell-csv cells.csv
  tools/arm_tournament.py cells.csv
"""
import csv
import math
import sys
from collections import defaultdict

# Two-sided 95 % Student-t quantiles by degrees of freedom; the normal
# quantile beyond the table.
T975 = [12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048, 2.045, 2.042]


def mean_ci(values):
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, mean, mean
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    t = T975[n - 2] if n - 2 < len(T975) else 1.960
    half = t * math.sqrt(var / n)
    return mean, mean - half, mean + half


def main(path):
    arms = []
    energy = defaultdict(lambda: defaultdict(float))  # (point, set) -> arm
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            if row["error"]:
                continue
            if row["method"] not in arms:
                arms.append(row["method"])
            point = (int(row["cores"]), row.get("scenario", "iid-normal"))
            unit = (point, row["source"], row["replicate"])
            energy[unit][row["method"]] += float(row["measured_energy"])

    by_point = defaultdict(list)
    for (point, *_), per_arm in energy.items():
        if len(per_arm) == len(arms):
            by_point[point].append(per_arm)

    print("| m | scenario | sets | best | "
          + " | ".join(arms) + " |")
    print("|---|---|---|---|" + "---|" * len(arms))
    for point in sorted(by_point):
        sets = by_point[point]
        ref = arms[0]
        best = min(arms, key=lambda a: sum(s[a] / s[ref] for s in sets))
        cells = []
        clear = True
        for arm in arms:
            mean, lo, hi = mean_ci([s[arm] / s[best] - 1.0 for s in sets])
            if arm == best:
                cells.append("**best**")
                continue
            clear = clear and lo > 0.0
            tie = " (tie)" if lo <= 0.0 else ""
            cells.append(f"{100 * mean:+.1f} % [{100 * lo:+.1f}, "
                         f"{100 * hi:+.1f}]{tie}")
        label = best + (" (beyond CI)" if clear else "")
        print(f"| {point[0]} | {point[1]} | {len(sets)} | {label} | "
              + " | ".join(cells) + " |")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: arm_tournament.py CELLS.csv")
    main(sys.argv[1])
