import concurrent.futures
import dataclasses
import json
import math

import numpy as np
import pytest

from cvxagg import experiments, model, solver
from cvxagg.experiments import (
    DEFAULT_GRID,
    ORACLE_TOLERANCE,
    Cell,
    ExperimentConfig,
    TrialRecord,
    derive_seed,
    load_config,
    make_problem,
    population_oracle,
    run_grid,
    run_trials,
    save_config,
)
from cvxagg.model import Dictionary, SampleSet, combine, sample
from cvxagg.risk import bayes_risk, population_risk
from cvxagg.solver import SolverConfig, erm_convex_hull


def test_derive_seed_stable_and_distinct():
    assert derive_seed(0, 64, 2, 0) == derive_seed(0, 64, 2, 0)
    assert derive_seed(0, 64, 2, 0) != derive_seed(0, 64, 2, 1)
    assert 0 <= derive_seed("x") < 2**63


def test_make_problem_bounds_and_determinism():
    for kind in ("inside-hull", "outside-hull", "pure-noise"):
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


def test_run_grid_reports_solver_statistics_per_cell():
    cfg = ExperimentConfig(grid=((48, 2), (48, 16), (96, 8)), replications=5, master_seed=4)
    report = run_grid(cfg)
    for point in report.points:
        problem, d = make_problem(
            cfg.problem_kind, cfg.atoms_K, point.M, cfg.bound_b,
            derive_seed(cfg.master_seed, point.n, point.M, "problem"), cfg.noise,
        )
        solves = [
            erm_convex_hull(d, sample(problem, point.n, derive_seed(cfg.master_seed, point.n, point.M, rep)))
            for rep in range(cfg.replications)
        ]
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
    for record in report.records:
        problem, _ = make_problem(
            cfg.problem_kind, cfg.atoms_K, record.M, cfg.bound_b,
            derive_seed(cfg.master_seed, record.n, record.M, "problem"), cfg.noise,
        )
        assert record.oracle_risk == bayes_risk(problem)


def test_make_problem_pure_noise_regression_is_zero():
    p, _ = make_problem("pure-noise", K=3, M=2, b=1.0, seed=5)
    ymass = np.bincount(p.x_indices, weights=p.probabilities * p.y_values, minlength=3)
    assert ymass / p.marginal_x == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


def test_run_trial_single_function_has_zero_excess():
    p, d = make_problem("inside-hull", K=3, M=1, b=1.0, seed=7)
    oracle_risk = population_oracle(d, p).empirical_risk
    record = run_trials([(Cell(p, d, 32, oracle_risk), 0, 11)], SolverConfig())[0]
    assert record.excess_risk == pytest.approx(0.0, abs=1e-10)
    assert record.converged


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
    seed = 12345
    oracle_risk = population_oracle(d, p).empirical_risk
    record = run_trials([(Cell(p, d, 40, oracle_risk), 0, seed)], SolverConfig(tolerance=1e-12))[0]
    draws = sample(p, 40, seed)
    w_hat = min(1.0, max(0.0, float(draws.probabilities @ draws.y_values) / c))
    expected_excess = (w_hat * c) ** 2
    assert record.oracle_risk == pytest.approx(population_risk(np.zeros(3), p), abs=1e-10)
    assert record.excess_risk == pytest.approx(expected_excess, abs=1e-8)


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
    with pytest.raises(ValueError, match="bound_b must be positive and finite"):
        make_problem("inside-hull", K=3, M=2, b=bound_b, seed=0)


def _key(r, excess):
    """A trial's excess and the counters of its solve r (a TrialRecord or an
    ErmSolution), floats as hex, so == compares every bit."""
    return (excess.hex(), r.iterations, r.stop_reason, r.kkt_solves, r.drop_steps, r.duality_gap.hex(), r.converged)


@pytest.mark.parametrize("kind", experiments.PROBLEM_KINDS)
def test_run_trials_match_the_measure_path_bit_for_bit(kind):
    # a trial drawn as a row of its cell's counts matrix and solved in a
    # block gets the bits of its sample drawn alone as a SampleSet and solved
    # as an ErmSolution, at M = 1, 2, K, K + 1 and 4K and at n = 1, 7, 49 and
    # 64, with the trials in grid order and interleaved across cells.  At
    # n = 49, counts / n and counts * (1 / n) differ for 22 of the 50 counts
    K, cfg = 3, SolverConfig()
    trials = []
    for n in (1, 7, 49, 64):
        for M in (1, 2, K, K + 1, 4 * K):
            p, d = make_problem(kind, K=K, M=M, b=1.0, seed=derive_seed(5, n, M, "problem"))
            oracle = bayes_risk(p) if kind == "inside-hull" else population_oracle(d, p).empirical_risk
            cell = Cell(p, d, n, oracle)
            trials += [(cell, rep, derive_seed(5, n, M, rep)) for rep in range(3)]
    expected = []
    for cell, _, seed in trials:
        solution = erm_convex_hull(cell.dictionary, sample(cell.problem, cell.n, seed), cfg)
        excess = population_risk(combine(cell.dictionary, solution.weights), cell.problem) - cell.oracle_risk
        expected.append(_key(solution, excess))
    shuffled = np.random.default_rng(0).permutation(len(trials))
    for order in (np.arange(len(trials)), shuffled):
        records = run_trials([trials[i] for i in order], cfg)
        assert [_key(r, r.excess_risk) for r in records] == [expected[i] for i in order]
        assert [(r.replication, r.seed) for r in records] == [trials[i][1:] for i in order]


def _draw_with(change):
    """model.draw_counts with change applied to the counts of seed 2."""
    draw = model.draw_counts

    def drawn(problem, n, seed):
        counts = draw(problem, n, seed)
        if seed == 2:
            change(counts)
        return counts

    return drawn


def _solve_with(support, u):
    """solver._minimize_fw with the second solve's weights replaced by u on support."""
    minimize = solver._minimize_fw

    def solved(*args):
        results = minimize(*args)
        results[1] = (np.array(support), np.array(u), *results[1][2:])
        return results

    return solved


def _negative(counts):
    counts[1] += counts[0] + 1
    counts[0] = -1


def _short(counts):
    counts[counts.argmax()] -= 1


@pytest.mark.parametrize(
    "module, name, replacement, message",
    [
        (model, "draw_counts", _draw_with(_negative), "counts must be nonnegative"),
        (model, "draw_counts", _draw_with(_short), "every row of counts must sum to the sample size 16"),
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
    cell = Cell(p, d, 16, 0.0)
    monkeypatch.setattr(module, name, replacement)
    with pytest.raises(ValueError, match=message):
        run_trials([(cell, rep, rep + 1) for rep in range(3)], SolverConfig())


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
    for record in report.records:
        p, d = make_problem(
            cfg.problem_kind,
            cfg.atoms_K,
            record.M,
            cfg.bound_b,
            derive_seed(cfg.master_seed, record.n, record.M, "problem"),
            cfg.noise,
        )
        cell = Cell(p, d, record.n, record.oracle_risk)
        redone = run_trials([(cell, record.replication, record.seed)], cfg.solver)[0]
        assert redone.excess_risk == record.excess_risk
        assert record.excess_risk >= -1e-10


def test_run_grid_median_trend_in_n():
    cfg = ExperimentConfig(grid=((32, 4), (256, 4)), replications=40, master_seed=5)
    report = run_grid(cfg, jobs=2)
    medians = {(p.n): p.median_excess for p in report.points}
    iqr = report.points[0].q75 - report.points[0].q25
    assert medians[256] <= medians[32] + iqr


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

    def recorded(trials, solver_config):
        batches.append([(cell.n, cell.dictionary.size_M) for cell, _, _ in trials])
        return solve(trials, solver_config)

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


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"replications": "5"}, "replications"),
        ({"master_seed": True}, "master_seed"),
        ({"atoms_K": 4.0}, "atoms_K"),
        ({"bound_b": "1"}, "bound_b"),
        ({"noise": None}, "noise"),
        ({"x_levels": "12"}, "x_levels"),
        ({"problem_kind": 1}, "problem_kind"),
        ({"solver": 5}, "solver"),
        ({"solver": {"tolerance": "1e-8"}}, "tolerance"),
        ({"solver": {"max_iterations": False}}, "max_iterations"),
        ({"grid": [[64, 2.5]]}, "grid"),
        ({"grid": [[64, 2, 3]]}, "grid"),
        ({"grid": [64, 2]}, "grid"),
        ({"grid": {"64": 2}}, "grid"),
    ],
)
def test_config_rejects_wrong_value_types(tmp_path, raw, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=f"key '{key}' must be"):
        load_config(path)


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
