import collections
import concurrent.futures
import dataclasses
import hashlib
import json
import math
import statistics

import numpy as np
import pytest

from cvxagg import experiments, model, solver
from cvxagg.experiments import (
    DEFAULT_GRID,
    ORACLE_TOLERANCE,
    Cell,
    DeviationRow,
    ExperimentConfig,
    PointSummary,
    TrialRecord,
    Trials,
    derive_seed,
    load_config,
    make_cell,
    make_problem,
    population_oracle,
    run_grid,
    run_trials,
    save_config,
)
from cvxagg.model import Dictionary, SampleSet, combine, sample
from cvxagg.rates import phi_n, psi_c
from cvxagg.risk import bayes_risk, population_risk
from cvxagg.solver import SolverConfig, erm_convex_hull


def _trial_sample(cell, rep):
    """Trial rep of a cell as a SampleSet: replication rep of the cell's seed."""
    counts = model.draw_count_matrix(cell.problem, cell.n, cell.seed, range(rep, rep + 1))[0]
    return SampleSet(cell.problem.x_indices, cell.problem.y_values, counts, cell.seed)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(0, 64, 2, 0) == derive_seed(0, 64, 2, 0)
    assert derive_seed(0, 64, 2, 0) != derive_seed(0, 64, 2, 1)
    assert 0 <= derive_seed("x") < 2**63


def test_make_problem_bounds_and_determinism():
    for kind in experiments.PROBLEM_KINDS:
        p1, d1 = make_problem(kind, K=5, M=4, b=0.7, seed=9)
        p2, d2 = make_problem(kind, K=5, M=4, b=0.7, seed=9)
        assert np.array_equal(p1.y_values, p2.y_values)
        assert np.array_equal(d1.values, d2.values)
        assert np.abs(p1.y_values).max() <= 0.7
        assert np.abs(d1.values).max() <= 0.7
        assert p1.num_design_points == 5


def test_make_problem_noiseless_inside_hull_is_realizable():
    p, d = make_problem("inside-hull", K=4, M=3, b=1.0, seed=3, noise=0.0)
    oracle = population_oracle(d, p)
    assert oracle.empirical_risk == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("K", [4, 16, 64])
@pytest.mark.parametrize("noise", [0.0, 0.5, 1.0])
def test_bayes_risk_is_the_inside_hull_minimum(K, noise):
    # the regression function of an inside-hull problem is a hull point, so
    # the certified hull minimum is the Bayes risk; outside the hull it is not
    inside, d = make_problem("inside-hull", K=K, M=2 * K, b=1.0, seed=K, noise=noise)
    assert abs(bayes_risk(inside) - population_oracle(d, inside).empirical_risk) <= ORACLE_TOLERANCE
    outside, d = make_problem("outside-hull", K=K, M=2 * K, b=1.0, seed=K, noise=noise)
    assert bayes_risk(outside) < population_oracle(d, outside).empirical_risk - ORACLE_TOLERANCE


@pytest.mark.parametrize(
    "arguments, message",
    [
        ({"noise": 2.0}, r"noise must lie in \[0, 1\]"),
        ({"noise": -1e-9}, r"noise must lie in \[0, 1\]"),
        ({"noise": math.nan}, r"noise must lie in \[0, 1\]"),
        ({"K": 2.5}, "K must be whole"),
        ({"M": 4.5}, "M must be whole"),
    ],
)
def test_make_problem_refuses_noise_outside_the_unit_interval_and_non_whole_sizes(arguments, message):
    # at noise 2.0 clipping moves E[Y|X] out of the hull, so the Bayes risk
    # would fall below the hull minimum make_cell takes it to be
    with pytest.raises(ValueError, match=message):
        make_problem(**{"kind": "inside-hull", "K": 3, "M": 4, "b": 1.0, "seed": 0, **arguments})


def test_make_problem_takes_a_key_words_seed_and_keeps_its_stream():
    # the range every draw key's seed word takes: numpy's default_rng would
    # refuse -1 without naming it and take 2**64 and above; a seed inside it
    # moves no problem, whose design masses are still the first draw of
    # default_rng(seed)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), found {seed}"):
            make_problem("outside-hull", K=3, M=4, b=1.0, seed=seed)
    for seed in (0, 2**64 - 1):
        p, _ = make_problem("outside-hull", K=3, M=4, b=1.0, seed=seed)
        px = np.random.default_rng(seed).dirichlet(np.ones(3))
        assert p.marginal_x.tobytes() == (px / px.sum()).tobytes()


@pytest.mark.parametrize("kind", experiments.PROBLEM_KINDS)
def test_make_cell_follows_the_hand_recipe_bit_for_bit(kind):
    # the reference: a cell of a run is make_problem at the seed hashed out of
    # (master_seed, n, M, "problem"), with the Bayes risk as the hull minimum
    # of an inside-hull problem and a population_oracle solve for the other
    # kinds, and its trials' seed is hashed out of (master_seed, n, M)
    cfg = ExperimentConfig(problem_kind=kind, atoms_K=5, master_seed=7, bound_b=0.8, noise=0.3)
    for n, M in ((16, 1), (64, 3), (256, 9)):
        seed = derive_seed(cfg.master_seed, n, M, "problem")
        p, d = make_problem(kind, cfg.atoms_K, M, cfg.bound_b, seed, cfg.noise)
        oracle = bayes_risk(p) if kind == "inside-hull" else population_oracle(d, p).empirical_risk
        cell = make_cell(cfg, n, M)
        assert (cell.n, cell.problem.bound_b, float(cell.oracle_risk).hex()) == (n, 0.8, float(oracle).hex())
        assert cell.seed == derive_seed(cfg.master_seed, n, M)
        assert cell.dictionary.values.tobytes() == d.values.tobytes()
        for name in ("x_indices", "y_values", "probabilities"):
            assert getattr(cell.problem, name).tobytes() == getattr(p, name).tobytes()


@pytest.mark.parametrize("kind", experiments.PROBLEM_KINDS)
@pytest.mark.parametrize("n, M", [(8, 1), (8, 3), (32, 6), (2, 11)])
def test_a_cell_oracle_risk_lies_between_the_bayes_risk_and_the_best_dictionary_row(kind, n, M):
    # the hull minimum is at least the Bayes risk and at most the risk of
    # any hull point, each vertex included
    cell = make_cell(ExperimentConfig(problem_kind=kind, atoms_K=4, master_seed=n + M), n, M)
    best_row = min(population_risk(f, cell.problem) for f in cell.dictionary.values)
    assert bayes_risk(cell.problem) - ORACLE_TOLERANCE <= cell.oracle_risk <= best_row + ORACLE_TOLERANCE


def test_run_grid_reports_solver_statistics_per_cell():
    cfg = ExperimentConfig(grid=((48, 2), (48, 16), (96, 8)), replications=5, master_seed=4)
    report = run_grid(cfg)
    for i, point in enumerate(report.points):
        cell = make_cell(cfg, point.n, point.M)
        solves = [erm_convex_hull(cell.dictionary, _trial_sample(cell, rep)) for rep in range(cfg.replications)]
        iterations = sorted(sol.iterations for sol in solves)
        assert point.solver == {
            "iterations_median": iterations[len(iterations) // 2],
            "iterations_max": iterations[-1],
            "kkt_solves": sum(sol.kkt_solves for sol in solves),
            "drop_steps": sum(sol.drop_steps for sol in solves),
            "stop_reasons": {"gap": cfg.replications},
            "max_duality_gap": max(sol.duality_gap for sol in solves),
        }
        # inside-hull cells take the Bayes risk as their hull minimum
        oracle_risks = {r.oracle_risk for r in report.records if (r.n, r.M) == (point.n, point.M)}
        assert oracle_risks == {cell.oracle_risk} == {bayes_risk(cell.problem)}


def test_make_problem_pure_noise_regression_is_zero():
    p, _ = make_problem("pure-noise", K=3, M=2, b=1.0, seed=5)
    ymass = np.bincount(p.x_indices, weights=p.probabilities * p.y_values, minlength=3)
    assert ymass / p.marginal_x == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


def test_run_trial_single_function_has_zero_excess():
    p, d = make_problem("inside-hull", K=3, M=1, b=1.0, seed=7)
    oracle_risk = population_oracle(d, p).empirical_risk
    trials = run_trials([(Cell(p, d, 32, oracle_risk, derive_seed(11, 32, 1, 0)), 0, 1)], SolverConfig())
    assert trials.excess_risk.tolist() == pytest.approx([0.0], abs=1e-10)
    assert trials.converged.tolist() == [True]


def test_run_trial_exhaustive_sample_has_tiny_excess():
    # frequencies matching the atom law make the empirical and population
    # objectives identical, so the trial excess is solver noise only
    p, d = make_problem("inside-hull", K=3, M=4, b=1.0, seed=13)
    oracle = population_oracle(d, p)
    counts = np.round(p.probabilities * 10_000_000).astype(int)
    s = SampleSet(p.x_indices, p.y_values, counts, seed=0)
    from cvxagg.solver import erm_convex_hull

    sol = erm_convex_hull(d, s, SolverConfig(tolerance=1e-12))
    excess = population_risk(combine(d, sol.weights), p) - oracle.empirical_risk
    assert abs(excess) <= 1e-5  # frequency rounding at 1e-7 resolution


def test_run_trial_pure_noise_two_constants_closed_form():
    # dictionary {0, c}: hull ERM is the clamped scaled sample mean, and the
    # population excess is exactly (clip(mean(y)/c, 0, 1) * c)^2
    c = 0.8
    p, _ = make_problem("pure-noise", K=3, M=2, b=1.0, seed=17)
    d = Dictionary(np.vstack([np.zeros(3), np.full(3, c)]))
    seed = derive_seed(12345, 40, 2, 0)
    oracle_risk = population_oracle(d, p).empirical_risk
    trials = run_trials([(Cell(p, d, 40, oracle_risk, seed), 0, 1)], SolverConfig(tolerance=1e-12))
    draws = sample(p, 40, seed)
    w_hat = min(1.0, max(0.0, float(draws.probabilities @ draws.y_values) / c))
    expected_excess = (w_hat * c) ** 2
    assert [r.oracle_risk for r in trials] == pytest.approx([population_risk(np.zeros(3), p)], abs=1e-10)
    assert trials.excess_risk.tolist() == pytest.approx([expected_excess], abs=1e-8)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(grid=((64, 2), (64, 2)))
    with pytest.raises(ValueError):
        ExperimentConfig(problem_kind="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(replications=0)
    assert len(DEFAULT_GRID) == 20


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"grid": ((64.9, 2.5),)}, "grid entries"),
        ({"grid": ((64, math.nan),)}, "grid entries"),
        ({"grid": ((math.inf, 2),)}, "grid entries"),
        ({"atoms_K": 2.5}, "atoms_K"),
        ({"replications": 2.5}, "replications"),
        ({"master_seed": 0.5}, "master_seed"),
        ({"master_seed": "7"}, "master_seed"),
    ],
)
def test_experiment_config_refuses_non_whole_counts(kwargs, name):
    # 2.5 is refused, not truncated; a whole float is taken as its int
    with pytest.raises(ValueError, match=f"{name} must be whole"):
        ExperimentConfig(**{"grid": ((64, 2),), "replications": 2, **kwargs})
    cfg = ExperimentConfig(grid=((64.0, 2.0),), atoms_K=4.0, replications=2.0, master_seed=7.0)
    assert (cfg.grid, cfg.atoms_K, cfg.replications, cfg.master_seed) == (((64, 2),), 4, 2, 7)
    assert all(type(v) is int for v in (*cfg.grid[0], cfg.atoms_K, cfg.replications, cfg.master_seed))


@pytest.mark.parametrize("x_levels", [[-5.0, math.nan], [-1e-300], [math.nan], [1.0, math.inf], [-math.inf]])
def test_experiment_config_rejects_x_levels_not_finite_and_nonnegative(x_levels):
    with pytest.raises(ValueError, match="x_levels must be finite and nonnegative"):
        ExperimentConfig(grid=[(8, 2)], replications=2, x_levels=x_levels)
    assert ExperimentConfig(grid=[(8, 2)], replications=2, x_levels=[0.0, 3.5]).x_levels == (0.0, 3.5)


@pytest.mark.parametrize("bound_b", [math.inf, math.nan, 0.0])
def test_bound_b_must_be_positive_and_finite(bound_b):
    with pytest.raises(ValueError, match="bound_b must be positive and finite"):
        ExperimentConfig(bound_b=bound_b)
    with pytest.raises(ValueError, match="^b must be positive and finite"):
        make_problem("inside-hull", K=3, M=2, b=bound_b, seed=0)


@pytest.mark.parametrize("bound_b", [1e-200, 1e200])
def test_a_bound_b_whose_square_is_not_a_positive_float_is_refused(bound_b):
    # the summary divides by b^2 to fit c_hat: at 1e-200 it underflows to 0,
    # at 1e200 it overflows, as does the scale of every solve on such a problem
    with pytest.raises(ValueError, match="bound_b squared must be positive and finite"):
        ExperimentConfig(bound_b=bound_b)
    with pytest.raises(ValueError, match="^b squared must be positive and finite"):
        make_problem("inside-hull", K=2, M=2, b=bound_b, seed=0)


def test_an_unknown_problem_kind_gets_one_message():
    # the config and the generator share one family check
    message = f"problem_kind must be one of {experiments.PROBLEM_KINDS}, found 'inside'"
    for call in (lambda: ExperimentConfig(problem_kind="inside"), lambda: make_problem("inside", 2, 2, 1.0, 0)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def _key(r, excess):
    """A trial's excess and the counters of its solve r (an ErmSolution),
    floats as hex, so == compares every bit."""
    return (excess.hex(), r.iterations, r.stop_reason, r.kkt_solves, r.drop_steps, r.duality_gap.hex(), r.converged)


def _keys(trials):
    """`_key` of every trial of a `Trials`, read off its columns, the stop
    codes named by the solver's table."""
    columns = (trials.iterations, trials.stop_reason, trials.kkt_solves, trials.drop_steps)
    iterations, codes, kkt_solves, drop_steps = (column.tolist() for column in columns)
    return list(
        zip(
            map(float.hex, trials.excess_risk.tolist()),
            iterations,
            [solver._STOP_REASONS[code] for code in codes],
            kkt_solves,
            drop_steps,
            map(float.hex, trials.duality_gap.tolist()),
            trials.converged.tolist(),
        )
    )


@pytest.mark.parametrize(
    "kind, K, sizes, widths, reps",
    [pytest.param(kind, 3, (1, 7, 49, 64), (1, 2, 3, 4, 12), 3, id=kind) for kind in experiments.PROBLEM_KINDS]
    + [pytest.param(kind, 16, (256,), (2, 17), 200, id=f"K16-{kind}") for kind in experiments.PROBLEM_KINDS],
)
def test_run_trials_match_the_measure_path_bit_for_bit(kind, K, sizes, widths, reps):
    # a trial drawn as a row of its cell's counts matrix and solved in a
    # block gets the bits of its sample drawn alone as a SampleSet and solved
    # as an ErmSolution, at M = 1, 2, K, K + 1 and 4K and at n = 1, 7, 49 and
    # 64, and at K = 16 at 200 replications of M = 2 and 17, with the trials
    # in grid order (a block per cell) and interleaved across cells (blocks
    # of one or two).  At n = 49, counts / n and counts * (1 / n) differ for
    # 22 of the 50 counts.  A block's trials share one squared-residual
    # table, whose rows must be C-contiguous for their stacked dot with the
    # probabilities to give population_risk's bits; strided rows move about
    # a third of the K = 16 excesses
    cfg = SolverConfig()
    run = ExperimentConfig(problem_kind=kind, atoms_K=K, master_seed=5)
    trials = []
    for n in sizes:
        for M in widths:
            cell = make_cell(run, n, M)
            trials += [(cell, rep) for rep in range(reps)]
    expected = []
    for cell, rep in trials:
        solution = erm_convex_hull(cell.dictionary, _trial_sample(cell, rep), cfg)
        excess = population_risk(combine(cell.dictionary, solution.weights), cell.problem) - cell.oracle_risk
        expected.append(_key(solution, excess))
    shuffled = np.random.default_rng(0).permutation(len(trials))
    # in grid order, one span per cell; shuffled, one span per trial
    by_cell = [(cell, 0, reps) for cell, rep in trials if rep == 0]
    by_trial = [(trials[i][0], trials[i][1], trials[i][1] + 1) for i in shuffled]
    for order, spans in ((np.arange(len(trials)), by_cell), (shuffled, by_trial)):
        batch = run_trials(spans, cfg)
        assert _keys(batch) == [expected[i] for i in order]
        records = list(batch)
        assert [(r.replication, r.seed) for r in records] == [(trials[i][1], trials[i][0].seed) for i in order]
        cells = [trials[i][0] for i in order]
        assert [r.n for r in records] == [cell.n for cell in cells]
        assert [r.M for r in records] == [cell.dictionary.size_M for cell in cells]
        assert [r.oracle_risk for r in records] == [cell.oracle_risk for cell in cells]


@pytest.mark.parametrize(
    "cfg",
    [SolverConfig(), SolverConfig(max_iterations=1, tolerance=1e-16), SolverConfig(max_iterations=1, tolerance=0.06)],
    ids=["default", "one-iteration", "one-iteration-wide-tolerance"],
)
def test_converged_flags_are_the_solvers_own(cfg):
    # run_trials and erm_convex_hull copy each dataset's converged flag from
    # erm_convex_hull_blocks and do not compare the gap with the tolerance
    # themselves.  One iteration stops every solve on the iteration cap,
    # with some gaps at the tolerance and some above it: at 1e-16 five
    # solves meet it and four do not, and 0.06 lies between gaps of 0.035
    # and 0.11 times their scale, so a rule off by a factor of 10 either way
    # flips a flag
    run = ExperimentConfig(problem_kind="outside-hull", atoms_K=4, master_seed=1)
    cells = [make_cell(run, 64, M) for M in (2, 5, 16)]
    blocks = [(c.dictionary, c.problem, model.draw_count_matrix(c.problem, c.n, c.seed, range(3)) / c.n) for c in cells]
    flags = np.concatenate([statistics["converged"] for _, statistics in solver.erm_convex_hull_blocks(blocks, cfg)])
    trials = run_trials([(cell, 0, 3) for cell in cells], cfg)
    solutions = [erm_convex_hull(c.dictionary, _trial_sample(c, rep), cfg) for c in cells for rep in range(3)]
    assert trials.converged.tolist() == [s.converged for s in solutions] == flags.tolist()
    if cfg.max_iterations == 1:
        assert {s.stop_reason for s in solutions} == {"max_iterations"}
        assert flags.any() and not flags.all()
    else:
        assert flags.all()

def _draw_with(change):
    """model._draw with change applied to the counts of the second replication."""
    draw = model._draw

    def drawn(problem, n, seed, replications):
        rows = draw(problem, n, seed, replications)
        change(rows[1])
        return rows

    return drawn


def _solve_with(support, u):
    """solver._minimize_fw with the second solve's row of the weight matrix
    replaced by u on support."""
    minimize = solver._minimize_fw

    def solved(*args):
        weights, *counters = minimize(*args)
        weights[1] = 0.0
        weights[1, support] = u
        return (weights, *counters)

    return solved


def _negative(counts):
    counts[1] += counts[0] + 1
    counts[0] = -1


def _short(counts):
    counts[counts.argmax()] -= 1


@pytest.mark.parametrize(
    "module, name, replacement, message",
    [
        (model, "_draw", _draw_with(_negative), "counts must be nonnegative"),
        (model, "_draw", _draw_with(_short), "every row of counts must sum to the sample size 16"),
        (solver, "_minimize_fw", _solve_with([0, 1], [1.0 + 1e-9, -1e-9]), "weights must be nonnegative"),
        (solver, "_minimize_fw", _solve_with([0, 1], [0.5, 0.5 + 1e-9]), "weights must sum to 1"),
        (solver, "_minimize_fw", _solve_with([0], [np.nan]), "weights must be finite"),
    ],
    ids=["negative-count", "row-sums-to-n-minus-1", "negative-weight", "weights-off-the-simplex", "nan-weight"],
)
def test_run_trials_checks_its_counts_matrix_and_weight_matrix(monkeypatch, module, name, replacement, message):
    # the per-trial SampleSet and SimplexWeights checks run once per matrix;
    # one bad row of counts or of weights fails the whole call
    p, d = make_problem("outside-hull", K=3, M=4, b=1.0, seed=8)
    cell = Cell(p, d, 16, 0.0, 0)
    monkeypatch.setattr(module, name, replacement)
    with pytest.raises(ValueError, match=message):
        run_trials([(cell, 0, 3)], SolverConfig())


def test_a_cell_hashes_two_seeds_and_a_trial_none(monkeypatch):
    # a trial is replication rep of its cell's seed, so derive_seed's sha256
    # runs twice per cell, for its problem and for its trials, never per trial
    calls = []
    derive = experiments.derive_seed

    def counted(*parts):
        calls.append(parts)
        return derive(*parts)

    monkeypatch.setattr(experiments, "derive_seed", counted)
    cfg = ExperimentConfig(grid=((32, 2), (64, 3)), replications=9, master_seed=4)
    run_grid(cfg)
    assert sorted(calls) == sorted([(4, n, M, "problem") for n, M in cfg.grid] + [(4, n, M) for n, M in cfg.grid])


def test_run_grid_single_cell_report_shape():
    cfg = ExperimentConfig(grid=((64, 2),), replications=1, master_seed=3)
    report = run_grid(cfg)
    assert len(report.points) == 1
    assert report.points[0].replications == 1
    assert len(report.records) == 1
    assert not report.incomplete
    assert report.c_hat > 0
    assert len(report.deviation) == len(cfg.x_levels)


def test_run_grid_records_recompute_exactly():
    cfg = ExperimentConfig(grid=((64, 2), (64, 4)), replications=5, master_seed=1)
    report = run_grid(cfg)
    cells = {(n, M): make_cell(cfg, n, M) for n, M in cfg.grid}
    # a trial's dataset is row rep of its cell seed's draws, keyed (cell seed, rep)
    counts = {key: model.draw_count_matrix(c.problem, c.n, c.seed, range(cfg.replications)) for key, c in cells.items()}
    for r in report.records:
        cell = cells[r.n, r.M]
        redone = run_trials([(cell, r.replication, r.replication + 1)], cfg.solver)
        assert redone.excess_risk.tolist() == [r.excess_risk]
        assert r.seed == cell.seed == derive_seed(cfg.master_seed, r.n, r.M)
        row = SampleSet(cell.problem.x_indices, cell.problem.y_values, counts[r.n, r.M][r.replication], r.seed)
        solution = erm_convex_hull(cell.dictionary, row, cfg.solver)
        excess = population_risk(combine(cell.dictionary, solution.weights), cell.problem) - cell.oracle_risk
        assert excess == r.excess_risk
        assert r.excess_risk >= -1e-10


def test_run_grid_median_trend_in_n():
    cfg = ExperimentConfig(grid=((32, 4), (256, 4)), replications=40, master_seed=5)
    report = run_grid(cfg, jobs=2)
    medians = {(p.n): p.median_excess for p in report.points}
    iqr = report.points[0].q75 - report.points[0].q25
    assert medians[256] <= medians[32] + iqr


# sha256 of trials.csv and report.json of the run of test_run_grid_outputs_are_pinned,
# per problem kind, with trial rep keyed (cell seed, rep); they hold for numpy
# 2.4's Philox and multinomial streams, which tests/test_draws.py pins
PINNED_OUTPUTS = {
    "inside-hull": (
        "c8d52a85d9b69d14bb0a5d73c136096b0a8384b4f2a3597199871c2b6f42f593",
        "a5470ebef43b89f4c6102693ddfe245e30142225c23ab77195aec1d99f0faf61",
    ),
    "outside-hull": (
        "729523ea64be3c0f44cd2235ea07fcd3a9e42c4f37165d58cd23365a256ada80",
        "81e556640bc491ad5849fb2e52b8bad45076791a0f30d6d40cf50fcf2c77e54a",
    ),
    "pure-noise": (
        "12b5a9015a29b3dd1dfa62427042e1baad5862f5eb9e2f5cb30e8a48c1b7b5ef",
        "7b13eb7574d2e1098ea41670770e8ab5ba16c78a4843381446099bcd3e59fff0",
    ),
}


@pytest.mark.parametrize("kind", experiments.PROBLEM_KINDS)
def test_run_grid_outputs_are_pinned(tmp_path, kind):
    # a change to how trials are cut, stored, tallied or written that moves
    # a byte of either file fails here
    cfg = ExperimentConfig(grid=((64, 2), (256, 16)), problem_kind=kind, replications=10, master_seed=0)
    run_grid(cfg, out_dir=tmp_path, jobs=1)
    files = ("trials.csv", "report.json")
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in files)
    assert digests == PINNED_OUTPUTS[kind]


def test_records_store_at_most_42_bytes_per_trial():
    # n, M, replication, oracle_risk and seed are per-cell values, kept once
    # per cell, and a stop reason is the solver's int8 code, not a string:
    # the per-trial columns are excess, gap and three counters of 8 B, the
    # converged flag and the stop code of 1 B
    cfg = ExperimentConfig(grid=((64, 2), (64, 4), (128, 2)), replications=7)
    t = run_grid(cfg).records
    stored = {f.name: getattr(t, f.name) for f in dataclasses.fields(t)}
    columns = [x for x in stored.values() if isinstance(x, np.ndarray)]
    assert sum(column.nbytes for column in columns) / len(t) <= 42
    assert not [column.dtype for column in columns if column.dtype.kind in "SU"]
    assert all(column.shape == (len(t),) for column in columns)
    # what is not a column is the spans, one per grid cell
    assert [name for name, x in stored.items() if not isinstance(x, np.ndarray)] == ["spans"]
    assert len(t.spans) == len(cfg.grid)


def test_run_grid_outputs_byte_identical(tmp_path):
    cfg = ExperimentConfig(grid=((48, 2), (48, 3)), replications=6, master_seed=9)
    run_grid(cfg, out_dir=tmp_path / "a", jobs=1)
    run_grid(cfg, out_dir=tmp_path / "b", jobs=3)
    a_csv = (tmp_path / "a" / "trials.csv").read_bytes()
    b_csv = (tmp_path / "b" / "trials.csv").read_bytes()
    assert a_csv == b_csv
    a_json = (tmp_path / "a" / "report.json").read_bytes()
    b_json = (tmp_path / "b" / "report.json").read_bytes()
    assert a_json == b_json
    header = a_csv.decode().splitlines()[0]
    assert header == "n,M,replication,excess_risk,oracle_risk,seed,converged"


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace run_grid's process pool by a stand-in that maps the batches in
    this process, and record every batch run_grid solves, at any jobs.  The
    process may use 8 CPUs, on any machine, unless a test says otherwise.

    Returns (pools, batches): the max_workers each pool was made with, and
    per batch the (n, M) cells of its trials, in order.
    """
    pools, batches = [], []
    solve = experiments.run_trials

    def recorded(spans, solver_config):
        batches.append([(cell.n, cell.dictionary.size_M) for cell, lo, hi in spans for _ in range(lo, hi)])
        return solve(spans, solver_config)

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables):
            return [fn(*args) for args in zip(*iterables)]

    monkeypatch.setattr(experiments, "run_trials", recorded)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return pools, batches


def _rows(path):
    """trials.csv's (n, M, replication) per row, in file order."""
    return [tuple(map(int, line.split(",")[:3])) for line in path.read_text().splitlines()[1:]]


def test_run_grid_rows_come_in_grid_then_replication_order(tmp_path, in_process_pool):
    # at jobs=3 the 28 trials, in grid order, go in batches of
    # ceil(28 / 3 / 4) = 3, so the third holds replication 6 of the first
    # cell and replications 0 and 1 of the second
    pools, batches = in_process_pool
    grid = ((48, 2), (96, 3), (48, 3), (96, 2))
    cfg = ExperimentConfig(grid=grid, replications=7, master_seed=3)
    expected = [(n, M, rep) for n, M in grid for rep in range(7)]
    run_grid(cfg, out_dir=tmp_path / "one", jobs=1)
    assert batches == [[(n, M) for n, M, _ in expected]]
    batches.clear()
    run_grid(cfg, out_dir=tmp_path / "three", jobs=3)
    assert pools == [3] and [len(batch) for batch in batches] == [3] * 9 + [1]
    assert batches[2] == [(48, 2), (96, 3), (96, 3)]
    for name in ("trials.csv", "report.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "three" / name).read_bytes()
    assert _rows(tmp_path / "one" / "trials.csv") == expected


def test_run_grid_starts_no_more_workers_than_batches(tmp_path, in_process_pool):
    # two cells of two replications make four batches of one at any jobs > 1,
    # so four workers serve jobs=5000; the stand-in pool starts no process
    pools, batches = in_process_pool
    cfg = ExperimentConfig(grid=((32, 2), (32, 3)), replications=2, master_seed=4)
    run_grid(cfg, out_dir=tmp_path / "one", jobs=1)
    batches.clear()
    run_grid(cfg, out_dir=tmp_path / "many", jobs=5000)
    assert pools == [4] and len(batches) == 4
    for name in ("trials.csv", "report.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "many" / name).read_bytes()


def test_run_grid_starts_no_more_workers_than_cpus(tmp_path, in_process_pool, monkeypatch):
    # jobs is capped at the 2 CPUs before the batches are cut: the 32
    # trials go in batches of ceil(32 / 2 / 4) = 4, not the 32 batches of
    # one that jobs=1000 would make
    pools, batches = in_process_pool
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    cfg = ExperimentConfig(grid=((32, 2), (32, 3)), replications=16, master_seed=4)
    run_grid(cfg, out_dir=tmp_path / "one", jobs=1)
    batches.clear()
    run_grid(cfg, out_dir=tmp_path / "many", jobs=1000)
    assert pools == [2] and [len(batch) for batch in batches] == [4] * 8
    for name in ("trials.csv", "report.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "many" / name).read_bytes()


def test_run_grid_checks_jobs_before_it_builds_a_cell(tmp_path, in_process_pool, monkeypatch):
    # jobs must be a whole number of at least 1: 0 and 2.5 are refused before
    # any cell is built, and 3.0 runs as 3 workers, with the bytes of jobs=1
    pools, batches = in_process_pool
    built = []
    make_cell = experiments.make_cell
    monkeypatch.setattr(experiments, "make_cell", lambda *args: built.append(args) or make_cell(*args))
    cfg = ExperimentConfig(grid=((32, 2), (32, 3)), replications=4, master_seed=4)
    for jobs, message in ((0, "jobs must be at least 1"), (2.5, "jobs must be whole, found 2.5")):
        with pytest.raises(ValueError, match=message):
            run_grid(cfg, jobs=jobs)
        assert not built and not batches and not pools
    run_grid(cfg, out_dir=tmp_path / "one", jobs=1)
    run_grid(cfg, out_dir=tmp_path / "three", jobs=3.0)
    assert pools == [3] and len(built) == 4
    for name in ("trials.csv", "report.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "three" / name).read_bytes()


def test_run_grid_solves_every_trial_in_one_batch_at_one_worker(tmp_path, in_process_pool):
    # at jobs=1 the 12 trials of four cells of different M form one batch;
    # at jobs=2 they go in batches of ceil(12 / 2 / 4) = 2, the second of
    # which holds an M = 5 and an M = 2 trial, and the bytes are the same
    pools, batches = in_process_pool
    grid = ((32, 5), (32, 2), (64, 9), (64, 3))
    cfg = ExperimentConfig(grid=grid, atoms_K=2, replications=3, master_seed=6)
    run_grid(cfg, out_dir=tmp_path / "one", jobs=1)
    assert batches == [[cell for cell in grid for _ in range(3)]]
    batches.clear()
    run_grid(cfg, out_dir=tmp_path / "two", jobs=2)
    assert pools == [2] and len(batches) == 6 and batches[1] == [(32, 5), (32, 2)]
    for name in ("trials.csv", "report.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_run_grid_batches_hold_at_most_max_batch_trials(tmp_path, in_process_pool, monkeypatch):
    # with the cap at 7, the 60 trials of three cells go in batches of 7 at
    # jobs=1 and at jobs=2 (where a quarter share, ceil(60 / 2 / 4) = 8,
    # would be larger); the batches straddle cells, and the files have the
    # bytes of the run that solves all 60 as one batch
    pools, batches = in_process_pool
    grid = ((48, 2), (96, 5), (48, 3))
    cfg = ExperimentConfig(grid=grid, replications=20, master_seed=2)
    run_grid(cfg, out_dir=tmp_path / "whole", jobs=1)
    assert [len(batch) for batch in batches] == [60]
    monkeypatch.setattr(experiments, "MAX_BATCH", 7)
    for jobs in (1, 2):
        batches.clear()
        run_grid(cfg, out_dir=tmp_path / f"jobs{jobs}", jobs=jobs)
        assert [len(batch) for batch in batches] == [7] * 8 + [4]
        assert batches[2] == [(48, 2)] * 6 + [(96, 5)]
        for name in ("trials.csv", "report.json"):
            assert (tmp_path / "whole" / name).read_bytes() == (tmp_path / f"jobs{jobs}" / name).read_bytes()
    assert pools == [2]


def _scalar_summary(cfg, records):
    """The rate summary one cell at a time, in scalar formulas: per-cell
    mean, median, quantiles and max, the fit of c_hat and c_hat_phi on the
    even cells, the validation ratios on the odd cells, and the tail
    table's exceedances counted one record at a time."""
    b2 = cfg.bound_b**2
    points = []
    for n, M in cfg.grid:
        cell_records = [r for r in records if (r.n, r.M) == (n, M)]
        cell = [r.excess_risk for r in cell_records]
        iterations = [r.iterations for r in cell_records]
        solver_statistics = {
            "iterations_median": statistics.median(iterations),
            "iterations_max": max(iterations),
            "kkt_solves": sum(r.kkt_solves for r in cell_records),
            "drop_steps": sum(r.drop_steps for r in cell_records),
            "stop_reasons": dict(collections.Counter(solver._STOP_REASONS[r.stop_reason] for r in cell_records)),
            "max_duality_gap": max(r.duality_gap for r in cell_records),
        }
        q10, q25, q75, q90 = np.quantile(cell, (0.10, 0.25, 0.75, 0.90)).tolist()
        points.append(
            PointSummary(
                n, M, psi_c(n, M), phi_n(n, M), len(cell), float(np.mean(cell)), statistics.median(cell),
                q10, q25, q75, q90, max(cell), solver_statistics,
            )
        )
    c_hat = max(max(p.mean_excess / (b2 * p.psi) for p in points[::2]), 0.0)
    c_hat_phi = max(max(p.mean_excess / (b2 * p.phi) for p in points[::2]), 0.0)
    ratios = tuple(p.mean_excess / (c_hat * b2 * p.psi) if c_hat > 0 else 0.0 for p in points[1::2])
    deviation = []
    for p in points:
        cell = [r.excess_risk for r in records if (r.n, r.M) == (p.n, p.M)]
        for x in cfg.x_levels:
            threshold = c_hat * b2 * max(p.psi, x / p.n)
            frequency = sum(1 for e in cell if e > threshold) / len(cell)
            deviation.append(DeviationRow(p.n, p.M, x, threshold, frequency, 4.0 * math.exp(-x)))
    return tuple(points), c_hat, c_hat_phi, ratios, tuple(deviation)


def _summarized(monkeypatch, grid, excess, x_levels=(1.0, 2.0)):
    """run_grid's report on crafted trials: replication r of cell (n, M) has
    excess_risk excess[n, M][r] and made-up solver counters.  Checks that
    the report's summary has the bits and types of `_scalar_summary`."""
    def crafted(spans, solver_config):
        rows = [
            (
                excess[cell.n, cell.dictionary.size_M][rep],
                rep % 3 > 0, 3 + 5 * rep % 7, solver._STOP_REASONS.index("gap" if rep % 3 else "max_iterations"),
                rep, rep // 2, 1e-9 * rep,
            )
            for cell, lo, hi in spans
            for rep in range(lo, hi)
        ]
        return Trials(spans, *map(np.array, zip(*rows)))

    monkeypatch.setattr(experiments, "run_trials", crafted)
    cfg = ExperimentConfig(grid=grid, replications=len(excess[grid[0]]), x_levels=x_levels)
    report = run_grid(cfg)
    summary = (report.points, report.c_hat, report.c_hat_phi, report.validation_ratios, report.deviation)
    # repr shows every bit of a float and tells 4 from 4.0 and from np.float64(4.0)
    assert repr(summary) == repr(_scalar_summary(cfg, list(report.records)))
    for row in report.points + report.deviation:
        assert all(type(getattr(row, f.name)).__name__ == f.type for f in dataclasses.fields(row))
    return report


def test_a_two_rep_median_is_the_mean_of_its_two_values(monkeypatch):
    # the mean of the two middle values, (a + b) / 2, as statistics.median
    # takes it; np.quantile(..., 0.5) gives 7.549999999999999e-05 here
    report = _summarized(monkeypatch, ((64, 2), (64, 4)), {(64, 2): [0.000125, 2.6e-05], (64, 4): [0.003, 0.001]})
    assert report.points[0].median_excess == 7.55e-05


def test_an_odd_rep_count_keeps_the_iteration_median_an_integer(monkeypatch):
    grid = ((48, 2), (96, 3), (48, 3))
    excess = {key: [0.002 * (i + 1) / (rep + 1) for rep in range(5)] for i, key in enumerate(grid)}
    report = _summarized(monkeypatch, grid, excess)
    assert all(type(point.solver["iterations_median"]) is int for point in report.points)


def test_a_zero_c_hat_leaves_the_validation_ratios_exactly_zero(monkeypatch):
    # the fit cells have M = 1 and excess 0, so c_hat = 0 and the ratios are
    # 0.0: not inf or nan from dividing by c_hat, nor -0.0 from 0 * mean on
    # the cell whose mean is below 0
    grid = ((64, 1), (64, 2), (256, 1), (128, 1))
    excess = {(64, 1): [0.0] * 3, (64, 2): [0.01, 0.0, 0.02], (256, 1): [0.0] * 3, (128, 1): [0.0, -1e-17, 0.0]}
    report = _summarized(monkeypatch, grid, excess)
    assert report.c_hat == 0.0 and repr(report.validation_ratios) == "(0.0, 0.0)"
    assert [d.frequency for d in report.deviation[2:4]] == [2 / 3, 2 / 3]


def test_a_tail_threshold_takes_x_over_n_where_it_beats_psi(monkeypatch):
    # c_hat is fitted on the even cells only, so the first run's c_hat holds
    # for the second, whose odd cell puts one excess on the x = 3 threshold,
    # where 3 / 64 beats psi = 2 / 64, one above it and one below; at x = 2
    # the two tie
    grid = ((64, 4), (64, 2), (128, 4))
    excess = {(64, 4): [0.01, 0.03, 0.02], (64, 2): [0.0, 0.0, 0.0], (128, 4): [0.004, 0.001, 0.002]}
    c_hat = _summarized(monkeypatch, grid, excess, x_levels=(2.0, 3.0)).c_hat
    threshold = c_hat * (3.0 / 64)
    excess[64, 2] = [threshold, 2 * threshold, threshold / 2]
    report = _summarized(monkeypatch, grid, excess, x_levels=(2.0, 3.0))
    tie, beaten = report.deviation[2:4]
    assert tie.threshold == c_hat * psi_c(64, 2) and tie.frequency == 2 / 3
    assert beaten.threshold == threshold > c_hat * psi_c(64, 2) and beaten.frequency == 1 / 3


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(grid=((64, 2), (128, 4)), replications=7, master_seed=11, x_levels=(1.0,))
    path = tmp_path / "exp.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grid": [[64, 2]], "replication": 5}))
    with pytest.raises(ValueError):
        load_config(path)
    path.write_text(json.dumps({"grid": [[64, 2]], "solver": {"max_iter": 5, "tie_break": "lowest-index"}}))
    with pytest.raises(ValueError, match=r"unknown solver config keys: \['max_iter', 'tie_break'\]"):
        load_config(path)
    path.write_text("5")
    with pytest.raises(ValueError, match="config must be a JSON object"):
        load_config(path)


_GRID_TYPE = "config key 'grid' must be a list of integer [n, M] pairs, found "
_KINDS = "problem_kind must be one of ('inside-hull', 'outside-hull', 'pure-noise'), found "


# the reader refuses what no rule sees (a key's JSON integer or container
# type); every other bad value reaches its rule and gets the rule's message
@pytest.mark.parametrize(
    "raw, message",
    [
        ({"replications": "5"}, "config key 'replications' must be an integer, found '5'"),
        ({"master_seed": True}, "config key 'master_seed' must be an integer, found True"),
        ({"atoms_K": 4.0}, "config key 'atoms_K' must be an integer, found 4.0"),
        ({"bound_b": "1"}, "bound_b must be a real number, found '1'"),
        ({"noise": None}, "noise must be a real number, found None"),
        ({"x_levels": "12"}, "config key 'x_levels' must be a list, found '12'"),
        ({"problem_kind": 1}, _KINDS + "1"),
        ({"solver": 5}, "config key 'solver' must be an object, found 5"),
        ({"solver": {"tolerance": "1e-8"}}, "tolerance must be a real number, found '1e-8'"),
        ({"solver": {"max_iterations": False}}, "solver config key 'max_iterations' must be an integer, found False"),
        ({"grid": [[64, 2.5]]}, _GRID_TYPE + "[[64, 2.5]]"),
        ({"grid": [[64, 2, 3]]}, _GRID_TYPE + "[[64, 2, 3]]"),
        ({"grid": [64, 2]}, _GRID_TYPE + "[64, 2]"),
        ({"grid": {"64": 2}}, _GRID_TYPE + "{'64': 2}"),
        ({"grid": [[64, 2.0]]}, _GRID_TYPE + "[[64, 2.0]]"),
        ({"solver": {"max_iterations": 5.0}}, "solver config key 'max_iterations' must be an integer, found 5.0"),
        ({"x_levels": 2}, "config key 'x_levels' must be a list, found 2"),
        ({"x_levels": None}, "config key 'x_levels' must be a list, found None"),
        ({"x_levels": [True]}, "x_levels must be a number, not the bool True"),
        ({"x_levels": ["1"]}, "x_levels must be a real number, found '1'"),
        ({"problem_kind": ["inside-hull"]}, _KINDS + "['inside-hull']"),
        ({"bound_b": True}, "bound_b must be a number, not the bool True"),
        ({"noise": [0.5]}, "noise must be a real number, found [0.5]"),
        ({"solver": {"tolerance": True}}, "tolerance must be a number, not the bool True"),
        ({"grid": None}, _GRID_TYPE + "None"),
        ({"replications": 5.0}, "config key 'replications' must be an integer, found 5.0"),
        ({"solver": []}, "config key 'solver' must be an object, found []"),
    ],
)
def test_config_rejects_wrong_value_types(tmp_path, raw, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError) as info:
        load_config(path)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "raw",
    [
        {"bound_b": "1"},
        {"bound_b": True},
        {"noise": None},
        {"problem_kind": 1},
        {"solver": {"tolerance": "1e-8"}},
        {"x_levels": ["1"]},
    ],
)
def test_a_bad_value_gets_one_message_from_a_file_and_from_python(tmp_path, raw):
    # the reader does not check what a rule checks, so a value refused by a
    # rule is refused with the rule's message whether it comes from a file or not
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError) as from_file:
        load_config(path)
    with pytest.raises(ValueError) as from_python:
        ExperimentConfig(**{key: SolverConfig(**value) if key == "solver" else value for key, value in raw.items()})
    assert str(from_file.value) == str(from_python.value)


def test_config_rejects_legacy_tie_break(tmp_path):
    # ties always break to the lowest index, so the old key is unknown like any other
    path = tmp_path / "legacy.json"
    for tie_break in ("lowest-index", "random"):
        solver = {"max_iterations": 500, "tolerance": 1e-9, "tie_break": tie_break}
        path.write_text(json.dumps({"grid": [[64, 2]], "solver": solver}))
        with pytest.raises(ValueError, match=r"unknown solver config keys: \['tie_break'\]"):
            load_config(path)



def test_trial_record_fields_in_order():
    # trials.csv's columns come first, then the solve's counters
    assert [f.name for f in dataclasses.fields(TrialRecord)] == [
        "n",
        "M",
        "replication",
        "excess_risk",
        "oracle_risk",
        "seed",
        "converged",
        "iterations",
        "stop_reason",
        "kkt_solves",
        "drop_steps",
        "duality_gap",
    ]
    # a batch's spans hold the per-cell fields, n, M, replication,
    # oracle_risk and seed; its columns, the per-trial fields, keep the
    # records' order
    per_cell = ("n", "M", "replication", "oracle_risk", "seed")
    assert [f.name for f in dataclasses.fields(Trials)] == ["spans"] + [
        f.name for f in dataclasses.fields(TrialRecord) if f.name not in per_cell
    ]
