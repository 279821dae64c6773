"""Command-line entry point: solve, sparsify, rates, isomorphism, experiment.

Exit codes: 0 success, 1 usage error, 2 numerical failure (non-convergence, an
incomplete experiment, or a failed ERM implication in an isomorphism check).
All randomness flows from explicit seed flags, so identical invocations produce
identical bytes; experiment's --jobs never changes output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

# Only what `solve` runs is imported here; each other command imports its
# modules in its handler, so a `solve` child does not pay for them.
from . import csvio
from .solver import SolverConfig, erm_convex_hull


def _comma_list(text: str, flag: str, parse, what: str) -> list:
    """The flag's comma-separated values, each read by parse.  An empty list
    or an empty entry ('64,,256', '2,') is refused, naming the flag."""
    parts = text.split(",")
    if "" in parts:
        raise ValueError(f"{flag} must name at least one {what}, with no empty entry: {text!r}")
    try:
        return [parse(part) for part in parts]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of {what}s, found {text!r}") from None


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvxagg",
        description="Convex aggregation by empirical risk minimization: solvers and verification tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="hull ERM on a dictionary and sample, JSON solution out")
    solve.add_argument("--dict", dest="dict_path", required=True)
    solve.add_argument("--samples", dest="samples_path", required=True)
    solve.add_argument("--tol", type=float, default=1e-8)
    solve.add_argument("--max-iter", type=int, default=100_000)
    solve.add_argument("--out", default=None)

    sp = sub.add_parser("sparsify", help="draw a sparsifying multiset and compare risks, CSV out")
    sp.add_argument("--dict", dest="dict_path", required=True)
    sp.add_argument("--problem", dest="problem_path", required=True)
    sp.add_argument("--weights", dest="weights_path", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)

    rates = sub.add_parser("rates", help="rate table over an (n, M) grid, CSV out")
    rates.add_argument("--n-grid", required=True)
    rates.add_argument("--m-grid", required=True)
    rates.add_argument("--out", default=None)

    iso = sub.add_parser("isomorphism", help="violation rates for the segment comparison, CSV out")
    iso.add_argument("--problem", dest="problem_path", required=True)
    iso.add_argument("--dict", dest="dict_path", required=True)
    iso.add_argument("--n", type=int, required=True)
    iso.add_argument("--x", default="1,2")
    iso.add_argument("--c0", type=float, default=None, help="comparison constant; calibrated when omitted")
    iso.add_argument("--m", type=int, default=2, help="multiset size for the net functions")
    iso.add_argument("--num-functions", type=int, default=10)
    iso.add_argument("--num-segments", type=int, default=10)
    iso.add_argument("--reps", type=int, default=500)
    iso.add_argument("--seed", type=int, default=0)
    iso.add_argument("--out", default=None)

    exp = sub.add_parser("experiment", help="run a rate experiment grid from a JSON config")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--jobs", type=int, default=1)

    return parser


def _cmd_solve(args) -> int:
    dictionary = csvio.read_dictionary(args.dict_path)
    samples = csvio.read_samples(args.samples_path)
    cfg = SolverConfig(max_iterations=args.max_iter, tolerance=args.tol)
    solution = erm_convex_hull(dictionary, samples, cfg)
    payload = {
        "weights": [float(w) for w in solution.weights.weights],
        "empirical_risk": solution.empirical_risk,
        "duality_gap": solution.duality_gap,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "stop_reason": solution.stop_reason,
        "kkt_solves": solution.kkt_solves,
        "drop_steps": solution.drop_steps,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if not solution.converged:
        print("solver did not reach its duality-gap tolerance", file=sys.stderr)
        return 2
    return 0


def _read_problem_and_dictionary(args):
    """The --problem and --dict files, checked to share one design."""
    problem = csvio.read_problem(args.problem_path)
    dictionary = csvio.read_dictionary(args.dict_path)
    if problem.num_design_points != dictionary.num_design_points:
        raise ValueError(
            f"problem has {problem.num_design_points} design points, "
            f"dictionary has {dictionary.num_design_points}"
        )
    return problem, dictionary


def _cmd_sparsify(args) -> int:
    from . import sparsify
    from .model import combine
    from .risk import population_risk, variance_term

    problem, dictionary = _read_problem_and_dictionary(args)
    weights = csvio.read_weights(args.weights_path)
    counts = sparsify.sparsify_random(weights, args.m, args.seed)
    combined_risk = population_risk(combine(dictionary, weights), problem)
    average_risk = population_risk(combine(dictionary, counts / args.m), problem)
    expected = sparsify.expected_sparsified_risk(weights, args.m, dictionary, problem)
    lines = ["kind,value"]
    lines += [f"multiset_index,{i}" for i in np.repeat(np.arange(counts.size), counts)]
    lines.append(f"risk_combined,{combined_risk!r}")
    lines.append(f"risk_multiset_average,{average_risk!r}")
    lines.append(f"risk_expected_sparsified,{expected!r}")
    lines.append(f"variance_term,{variance_term(weights, dictionary, problem)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_rates(args) -> int:
    from .rates import rate_table

    n_grid = _comma_list(args.n_grid, "--n-grid", int, "value")
    m_grid = _comma_list(args.m_grid, "--m-grid", int, "value")
    lines = ["n,M,psi,phi,regime"]
    for point in rate_table(n_grid, m_grid):
        lines.append(f"{point.n},{point.M},{point.psi!r},{point.phi!r},{point.regime}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_isomorphism(args) -> int:
    from . import localization

    levels = _comma_list(args.x, "--x", float, "level")
    problem, dictionary = _read_problem_and_dictionary(args)
    segments = localization.random_net_segments(
        dictionary, args.m, args.num_functions, args.num_segments, args.seed
    )
    c0 = args.c0
    if c0 is None:
        c0 = localization.calibrate_c0(
            segments,
            problem,
            args.n,
            levels,
            reps=args.reps,
            seed=args.seed + 1,
            num_net_functions=args.num_functions,
        )
    lines = [
        "x,c0,violations,trials,violation_rate,bound,gamma,"
        "erm_checked,erm_implication_failures,resolution_limited"
    ]
    failures = 0
    notes = []
    for x in levels:
        report = localization.isomorphism_check(
            segments, problem, args.n, x, c0, reps=args.reps, seed=args.seed, num_net_functions=args.num_functions
        )
        failures += report.erm_implication_failures
        if report.bound >= 1.0:
            notes.append(
                f"note: x={x!r}: the bound 4 exp(-x) = {report.bound!r} is at least 1, so its rate check cannot fail"
            )
        lines.append(
            f"{x!r},{c0!r},{report.violations},{report.trials},{report.violation_rate!r},{report.bound!r},"
            f"{report.gamma_or_rho!r},{report.erm_checked},{report.erm_implication_failures},"
            f"{int(report.resolution_limited)}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    for note in notes:
        print(note, file=sys.stderr)
    if failures:
        print(f"ERM implication failed on {failures} non-violating datasets", file=sys.stderr)
        return 2
    return 0


def _cmd_experiment(args) -> int:
    from .experiments import load_config, run_grid

    cfg = load_config(args.config)
    report = run_grid(cfg, out_dir=args.out, jobs=args.jobs)
    lines = [
        f"c_hat={report.c_hat!r} c_hat_phi={report.c_hat_phi!r} "
        f"points={len(report.points)} incomplete={report.incomplete}",
        "n,M,psi,mean_excess,ratio,role",
    ]
    # one row per grid cell; ratio is the quantity c_hat maximises over the fit cells
    b2 = report.bound_b**2
    for i, p in enumerate(report.points):
        role = "fit" if i in report.fit_indices else "val"
        lines.append(f"{p.n},{p.M},{p.psi!r},{p.mean_excess!r},{p.mean_excess / (b2 * p.psi)!r},{role}")
    sys.stdout.write("\n".join(lines) + "\n")
    # a deviation row's frequency is at most 1, so it cannot fail a bound of 1 or more
    for x, bound in {row.x: row.bound for row in report.deviation}.items():
        if bound >= 1.0:
            print(
                f"note: x={x!r}: the bound 4 exp(-x) = {bound!r} is at least 1, so its deviation rows cannot fail",
                file=sys.stderr,
            )
    if report.incomplete:
        print("experiment incomplete: some trials did not converge", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handlers = {
        "solve": _cmd_solve,
        "sparsify": _cmd_sparsify,
        "rates": _cmd_rates,
        "isomorphism": _cmd_isomorphism,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ValueError, OSError)) else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
