import concurrent.futures
import json
import math

import numpy as np
import pytest

from cvxagg import experiments
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
    record, _ = run_trials([(Cell(p, d, 32, oracle_risk), 0, 11)], SolverConfig())[0]
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
    record, _ = run_trials([(Cell(p, d, 40, oracle_risk), 0, seed)], SolverConfig(tolerance=1e-12))[0]
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
        redone, _ = run_trials([(cell, record.replication, record.seed)], cfg.solver)[0]
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
    this process, and record every batch run_grid solves, at any jobs.

    Returns (pools, batches): the max_workers each pool was made with, and
    per batch the (n, M) cells of its trials, in order.
    """
    pools, batches = [], []
    solve = experiments._batch_task

    def recorded(args):
        batches.append([(cell.n, cell.dictionary.size_M) for cell, _, _ in args[0]])
        return solve(args)

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, iterable):
            return [fn(x) for x in iterable]

    monkeypatch.setattr(experiments, "_batch_task", recorded)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return pools, batches


def _rows(path):
    """trials.csv's (n, M, replication) per row, in file order."""
    return [tuple(map(int, line.split(",")[:3])) for line in path.read_text().splitlines()[1:]]


def test_run_grid_rows_come_in_grid_then_replication_order(tmp_path, in_process_pool):
    # the two cells of each M share batches: at jobs=1 one batch per M, and
    # at jobs=3 an M's 14 trials go in batches of ceil(14 / 3 / 4) = 2, the
    # fourth of which holds replication 6 of one cell and 0 of the other
    pools, batches = in_process_pool
    grid = ((48, 2), (96, 3), (48, 3), (96, 2))
    cfg = ExperimentConfig(grid=grid, replications=7, master_seed=3)
    expected = [(n, M, rep) for n, M in grid for rep in range(7)]
    run_grid(cfg, out_dir=tmp_path / "one", jobs=1)
    assert batches == [[(48, 2)] * 7 + [(96, 2)] * 7, [(96, 3)] * 7 + [(48, 3)] * 7]
    batches.clear()
    run_grid(cfg, out_dir=tmp_path / "three", jobs=3)
    assert pools == [3] and len(batches) == 14
    assert batches[3] == [(48, 2), (96, 2)] and batches[10] == [(96, 3), (48, 3)]
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
    record = TrialRecord(n=64, M=2, replication=0, excess_risk=0.1, oracle_risk=0.2, seed=3)
    assert list(record.__dataclass_fields__) == [
        "n",
        "M",
        "replication",
        "excess_risk",
        "oracle_risk",
        "seed",
        "converged",
    ]
