"""Compare two result sets of the benchmark, one (workload, metric) pair at a time.

A result set is a JSON-lines file that `run.py --record` appends to.  Only
untraced runs (--trace 0) enter, and runs of the two sets pair up by seed.
The verdicts follow the choosing-metrics guide, section 8:

- improved: the change wins at least 9 of 10 seed pairs (ties count for
  neither side, at least 10 pairs), and the medians differ by more than
  the parent's interquartile range, in the metric's better direction;
- regressed: the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json;
- unresolved: the parent's interquartile range is wider than the bound,
  and not every change run reads better than every parent run;
- no worse: otherwise.
"""

from __future__ import annotations

import json
import statistics


def load(path: str) -> dict:
    """{(workload, metric): {seed: value}} over the untraced runs of one set."""
    values: dict = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, metric in record["result"]["metrics"].items():
                values.setdefault((record["workload"], name), {})[record["seed"]] = metric["value"]
    return values


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple[str, int, int]:
    """Verdict, pairs won by the change, and pairs compared."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(parent.keys() & change.keys())
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    p_q1, _, p_q3 = quartiles(list(parent.values()))
    p_median = statistics.median(parent.values())
    gain = sign * (statistics.median(change.values()) - p_median)
    if len(seeds) >= 10 and wins >= 0.9 * len(seeds) and gain > p_q3 - p_q1:
        return "improved", wins, len(seeds)
    if -gain > bound * abs(p_median):
        return "regressed", wins, len(seeds)
    all_better = min(sign * v for v in change.values()) > max(sign * v for v in parent.values())
    if p_q3 - p_q1 > bound * abs(p_median) and not all_better:
        return "unresolved", wins, len(seeds)
    return "no worse", wins, len(seeds)


def main(spec: dict, parent_path: str, change_path: str) -> int:
    parent, change = load(parent_path), load(change_path)
    rules = {m["name"]: m for m in spec["end_to_end"]}
    print(f"parent {parent_path}  change {change_path}")
    print(f"{'workload':<14} {'metric':<15} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'ratio':>7} {'wins':>6}  verdict")
    regressed = False
    for workload, name in sorted(parent.keys() & change.keys()):
        if name not in rules:
            continue
        p, c = parent[(workload, name)], change[(workload, name)]
        outcome, wins, pairs = verdict(p, c, rules[name]["better"], rules[name]["bound"])
        regressed = regressed or outcome == "regressed"
        sides = []
        for side in (p, c):
            q1, _, q3 = quartiles(list(side.values()))
            sides.append(f"{statistics.median(side.values()):.6g} [{q1:.6g}, {q3:.6g}] n={len(side)}")
        ratio = statistics.median(c.values()) / statistics.median(p.values())
        print(f"{workload:<14} {name:<15} {sides[0]:<36} {sides[1]:<36} {ratio:>7.3f} "
              f"{wins:>3}/{pairs:<2}  {outcome}")
    return 1 if regressed else 0
