import json

import numpy as np
import pytest

from cvxagg.experiments import (
    DEFAULT_GRID,
    ExperimentConfig,
    TrialRecord,
    derive_seed,
    load_config,
    make_problem,
    population_oracle,
    run_grid,
    run_trial,
    save_config,
)
from cvxagg.model import Dictionary, SampleSet, combine, sample
from cvxagg.risk import population_risk
from cvxagg.solver import SolverConfig


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


def test_make_problem_pure_noise_regression_is_zero():
    p, _ = make_problem("pure-noise", K=3, M=2, b=1.0, seed=5)
    ymass = np.bincount(p.x_indices, weights=p.probabilities * p.y_values, minlength=3)
    assert ymass / p.marginal_x == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


def test_run_trial_single_function_has_zero_excess():
    p, d = make_problem("inside-hull", K=3, M=1, b=1.0, seed=7)
    oracle_risk = population_oracle(d, p).empirical_risk
    record = run_trial(p, d, n=32, solver_config=SolverConfig(), seed=11, replication=0, oracle_risk=oracle_risk)
    assert record.excess_risk == pytest.approx(0.0, abs=1e-10)
    assert record.converged


def test_run_trial_exhaustive_sample_has_tiny_excess():
    # frequencies matching the atom law make the empirical and population
    # objectives identical, so the trial excess is solver noise only
    p, d = make_problem("inside-hull", K=3, M=4, b=1.0, seed=13)
    oracle = population_oracle(d, p)
    counts = np.round(p.probabilities * 10_000_000).astype(int)
    s = SampleSet(np.repeat(p.x_indices, counts), np.repeat(p.y_values, counts), seed=0)
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
    record = run_trial(p, d, 40, SolverConfig(tolerance=1e-12), seed, replication=0, oracle_risk=oracle_risk)
    draws = sample(p, 40, seed)
    w_hat = min(1.0, max(0.0, float(np.mean(draws.y_values)) / c))
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
        redone = run_trial(
            p, d, record.n, cfg.solver, record.seed, record.replication, record.oracle_risk
        )
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
    with pytest.raises(ValueError, match=r"unknown solver config keys: \['max_iter'\]"):
        load_config(path)


def test_config_loads_legacy_tie_break(tmp_path):
    path = tmp_path / "legacy.json"
    solver = {"max_iterations": 500, "tolerance": 1e-9, "tie_break": "lowest-index"}
    path.write_text(json.dumps({"grid": [[64, 2]], "solver": solver}))
    assert load_config(path).solver == SolverConfig(max_iterations=500, tolerance=1e-9)
    path.write_text(json.dumps({"grid": [[64, 2]], "solver": dict(solver, tie_break="random")}))
    with pytest.raises(ValueError):
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
