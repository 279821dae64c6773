#!/usr/bin/env python3
"""Calibrate the comparison constant on one problem family and tabulate
violation rates of the two-sided excess-risk comparison across x levels.
Exits 2 when the ERM implication fails on any non-violating dataset, as
`cvxagg isomorphism` does."""

import argparse
import math
import sys

from cvxagg.experiments import make_problem
from cvxagg.localization import calibrate_c0, isomorphism_check, random_net_segments


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--reps", type=int, default=2000)
    parser.add_argument("--num-functions", type=int, default=10)
    parser.add_argument("--num-segments", type=int, default=10)
    parser.add_argument("--atoms", type=int, default=6)
    parser.add_argument("--dict-size", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--x", type=float, nargs="+", default=[1.0, 2.0, 3.0, 4.0])
    args = parser.parse_args()

    problem, dictionary = make_problem(
        "outside-hull", K=args.atoms, M=args.dict_size, b=1.0, seed=args.seed
    )
    segments = random_net_segments(
        dictionary, 2, args.num_functions, args.num_segments, args.seed + 1
    )

    c0 = calibrate_c0(
        segments,
        problem,
        args.n,
        x_levels=args.x,
        reps=args.reps,
        seed=args.seed + 2,
        num_net_functions=args.num_functions,
        target_scale=0.9,
    )
    print(f"calibrated c0 = {c0:.4f} on {args.reps} calibration datasets")
    print("  x    gamma     rate     bound    erm_failures")
    failures = 0
    for x in args.x:
        report = isomorphism_check(
            segments,
            problem,
            args.n,
            x,
            c0,
            reps=args.reps,
            seed=args.seed + 3,
            num_net_functions=args.num_functions,
        )
        print(
            f"{x:4.1f}  {report.gamma_or_rho:.5f}  {report.violation_rate:.4f}  "
            f"{min(1.0, 4 * math.exp(-x)):.4f}   {report.erm_implication_failures}"
        )
        failures += report.erm_implication_failures
    if failures:
        print(f"ERM implication failed on {failures} non-violating datasets", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
