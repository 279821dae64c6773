import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvxagg
from cvxagg import csvio, localization
from cvxagg.cli import main
from cvxagg.experiments import ExperimentConfig, make_problem, save_config
from cvxagg.localization import IsomorphismReport
from cvxagg.model import SimplexWeights, combine, sample
from cvxagg.risk import empirical_risk

from _support import write_problem, write_weights


@pytest.fixture
def workspace(tmp_path):
    problem, dictionary = make_problem("inside-hull", K=3, M=3, b=1.0, seed=2)
    draws = sample(problem, 50, seed=4)
    paths = {
        "problem": tmp_path / "problem.csv",
        "dict": tmp_path / "dict.csv",
        "samples": tmp_path / "samples.csv",
        "weights": tmp_path / "weights.csv",
        "dir": tmp_path,
    }
    write_problem(problem, paths["problem"])
    csvio.write_dictionary(dictionary, paths["dict"])
    csvio.write_samples(draws, paths["samples"])
    write_weights(SimplexWeights(np.array([0.2, 0.3, 0.5])), paths["weights"])
    return paths


def test_csv_round_trips(workspace):
    problem = csvio.read_problem(workspace["problem"])
    dictionary = csvio.read_dictionary(workspace["dict"])
    draws = csvio.read_samples(workspace["samples"])
    weights = csvio.read_weights(workspace["weights"])
    ref_problem, ref_dict = make_problem("inside-hull", K=3, M=3, b=1.0, seed=2)
    assert np.array_equal(problem.y_values, ref_problem.y_values)
    assert np.array_equal(problem.probabilities, ref_problem.probabilities)
    assert problem.bound_b == ref_problem.bound_b
    assert np.array_equal(dictionary.values, ref_dict.values)
    ref_draws = sample(ref_problem, 50, seed=4)
    assert np.array_equal(draws.x_indices, ref_draws.x_indices)
    assert np.array_equal(draws.y_values, ref_draws.y_values)
    assert draws.seed == 4
    assert weights.weights == pytest.approx([0.2, 0.3, 0.5])


@pytest.mark.parametrize(
    "reader, text",
    [
        (csvio.read_dictionary, "x_index,f0\n0,0.1\n2,0.2\n"),
        (csvio.read_dictionary, "x_index,f0\n0,0.1\n0,0.2\n"),
        (csvio.read_weights, "index,weight\n0,0.5\n5,0.5\n"),
    ],
    ids=["dictionary-gap", "dictionary-duplicate", "weights-gap"],
)
def test_csv_readers_reject_bad_indices(tmp_path, reader, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="0..1"):
        reader(path)


@pytest.mark.parametrize(
    "key, text, fields, width",
    [
        ("problem", "x_index,y_value,probability,bound_b\n0,0.5,1.0\n", 3, 4),
        ("problem", "x_index,y_value,probability,bound_b\n0,0.5,1.0,1.0,9\n", 5, 4),
        ("samples", "x_index,y_value,seed\n0,0.5\n", 2, 3),
        ("samples", "x_index,y_value,seed\n0,0.5,4,9\n", 4, 3),
        ("dict", "x_index,f0,f1\n0,0.1\n1,0.2\n2,0.3\n", 2, 3),
        ("dict", "x_index,f0,f1\n0,0.1,0.2,0.3\n", 4, 3),
    ],
    ids=["problem-short", "problem-long", "samples-short", "samples-long", "dictionary-short", "dictionary-long"],
)
def test_rows_not_as_wide_as_the_header_exit_one(workspace, capsys, key, text, fields, width):
    workspace[key].write_text(text)
    files = {name: str(workspace[name]) for name in ("problem", "dict", "samples")}
    if key == "problem":
        argv = ["isomorphism", "--problem", files["problem"], "--dict", files["dict"], "--n", "32", "--c0", "2.0"]
    else:
        argv = ["solve", "--dict", files["dict"], "--samples", files["samples"]]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {workspace[key]}: line 2 has {fields} fields, the header has {width}"
    )


@pytest.mark.parametrize(
    "header",
    ["x_index,y_value,probability,bound_b", "x_index,f1,f0,f2", "x_index,f0,f1,f3", "index,f0,f1,f2"],
    ids=["problem-file", "permuted", "skipped", "first-column"],
)
def test_dictionary_header_must_be_x_index_then_f_columns(workspace, capsys, header):
    if header.startswith("x_index,y_value"):
        workspace["dict"].write_text(workspace["problem"].read_text())
    else:
        lines = workspace["dict"].read_text().splitlines()
        workspace["dict"].write_text("\n".join([header] + lines[1:]) + "\n")
    assert main(["solve", "--dict", str(workspace["dict"]), "--samples", str(workspace["samples"])]) == 1
    assert capsys.readouterr().err.startswith(f"error: {workspace['dict']}: expected header x_index,f0,f1,...")


def test_rates_subcommand(capsys):
    code = main(["rates", "--n-grid", "64,256", "--m-grid", "2,16"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,M,psi,phi,regime"
    assert len(out) == 5
    first = out[1].split(",")
    assert first[0] == "64" and first[1] == "2"
    assert first[4] == "small-M"


@pytest.mark.parametrize("n_grid, m_grid, flag", [("", "2", "--n-grid"), ("64", ",", "--m-grid"), (",", "", "--n-grid")])
def test_rates_empty_grid_exits_one(tmp_path, capsys, n_grid, m_grid, flag):
    # an empty grid used to exit 0 with a header-only CSV
    out = tmp_path / "rates.csv"
    assert main(["rates", "--n-grid", n_grid, "--m-grid", m_grid, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} must name at least one value")
    assert not out.exists()


def test_solve_subcommand_round_trip(workspace, capsys):
    code = main(
        [
            "solve",
            "--dict",
            str(workspace["dict"]),
            "--samples",
            str(workspace["samples"]),
            "--tol",
            "1e-8",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["stop_reason"] == "gap"
    assert payload["kkt_solves"] >= payload["iterations"] - 1
    assert 0 <= payload["drop_steps"] <= payload["kkt_solves"]
    assert payload["refactorizations"] >= 0
    weights = SimplexWeights(np.array(payload["weights"]))
    assert abs(sum(payload["weights"]) - 1.0) <= 1e-10
    dictionary = csvio.read_dictionary(workspace["dict"])
    draws = csvio.read_samples(workspace["samples"])
    redone = empirical_risk(combine(dictionary, weights), draws)
    assert redone == pytest.approx(payload["empirical_risk"], abs=1e-10)


def test_solve_nonconvergence_exit_code(workspace, capsys):
    code = main(
        [
            "solve",
            "--dict",
            str(workspace["dict"]),
            "--samples",
            str(workspace["samples"]),
            "--tol",
            "1e-300",
            "--max-iter",
            "1",
        ]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().out)["stop_reason"] == "max_iterations"


@pytest.mark.parametrize("tol", ["inf", "1e400", "nan"])
def test_solve_non_finite_tolerance_exits_one(workspace, capsys, tol):
    # an infinite tolerance used to stop every solve at its start vertex as converged
    code = main(["solve", "--dict", str(workspace["dict"]), "--samples", str(workspace["samples"]), "--tol", tol])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tolerance must be positive and finite")
    assert captured.out == ""


def test_usage_errors_exit_one(capsys):
    assert main(["rates", "--bogus-flag", "1"]) == 1
    assert main(["solve", "--dict", "missing.csv", "--samples", "also-missing.csv"]) == 1
    assert main(["--help"]) == 0


def test_sparsify_subcommand(workspace, capsys):
    code = main(
        [
            "sparsify",
            "--dict",
            str(workspace["dict"]),
            "--problem",
            str(workspace["problem"]),
            "--weights",
            str(workspace["weights"]),
            "--m",
            "4",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kind,value"
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds.count("multiset_index") == 4
    assert "risk_expected_sparsified" in kinds
    values = dict(line.split(",") for line in lines[1:] if not line.startswith("multiset_index"))
    assert float(values["risk_expected_sparsified"]) >= float(values["risk_combined"]) - 1e-12


def test_isomorphism_subcommand(workspace, capsys):
    code = main(
        [
            "isomorphism",
            "--problem",
            str(workspace["problem"]),
            "--dict",
            str(workspace["dict"]),
            "--n",
            "64",
            "--x",
            "1,2",
            "--c0",
            "2.0",
            "--num-functions",
            "4",
            "--num-segments",
            "4",
            "--reps",
            "20",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == (
        "x,c0,violations,trials,violation_rate,bound,gamma,"
        "erm_checked,erm_implication_failures,resolution_limited"
    )
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert int(fields[2]) + int(fields[7]) == 20
        assert fields[8] == "0" and fields[9] == "0"


@pytest.mark.parametrize("problem_k, dict_k", [(6, 4), (4, 6)], ids=["problem-larger", "dictionary-larger"])
@pytest.mark.parametrize("command", ["isomorphism", "sparsify"])
def test_design_size_mismatch_exits_one(tmp_path, capsys, command, problem_k, dict_k):
    problem, _ = make_problem("inside-hull", K=problem_k, M=3, b=1.0, seed=2)
    _, dictionary = make_problem("inside-hull", K=dict_k, M=3, b=1.0, seed=2)
    write_problem(problem, tmp_path / "problem.csv")
    csvio.write_dictionary(dictionary, tmp_path / "dict.csv")
    write_weights(SimplexWeights(np.array([0.2, 0.3, 0.5])), tmp_path / "weights.csv")
    extra = {
        "isomorphism": ["--n", "32", "--c0", "2.0", "--reps", "10", "--num-functions", "4", "--num-segments", "3"],
        "sparsify": ["--weights", str(tmp_path / "weights.csv"), "--m", "2"],
    }[command]
    code = main([command, "--problem", str(tmp_path / "problem.csv"), "--dict", str(tmp_path / "dict.csv"), *extra])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: problem has {problem_k} design points, dictionary has {dict_k}"
    )


@pytest.mark.parametrize("command", ["isomorphism", "sparsify"])
def test_net_size_below_one_exits_one(workspace, capsys, command):
    extra = {
        "isomorphism": ["--n", "32", "--c0", "2.0", "--reps", "10"],
        "sparsify": ["--weights", str(workspace["weights"])],
    }[command]
    code = main(
        [command, "--problem", str(workspace["problem"]), "--dict", str(workspace["dict"]), "--m", "0", *extra]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: m must be at least 1")


@pytest.mark.parametrize("c0", [None, "2.0"], ids=["calibrated", "given"])
@pytest.mark.parametrize("x", ["nan", "inf", "1,nan"])
def test_isomorphism_non_finite_x_exits_one(workspace, capsys, x, c0):
    extra = ["--c0", c0] if c0 else []
    code = main(
        [
            "isomorphism", "--problem", str(workspace["problem"]), "--dict", str(workspace["dict"]),
            "--n", "32", "--x", x, "--reps", "10", "--num-functions", "4", "--num-segments", "3", *extra,
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: x, b, and c0 must be finite and nonnegative")


@pytest.mark.parametrize("c0", [None, "2.0"], ids=["calibrated", "given"])
@pytest.mark.parametrize("x", ["", ","])
def test_isomorphism_empty_x_exits_one(workspace, capsys, x, c0):
    # an empty level list used to exit 0 with a header-only CSV
    out = workspace["dir"] / "iso.csv"
    extra = ["--c0", c0] if c0 else []
    code = main(
        [
            "isomorphism", "--problem", str(workspace["problem"]), "--dict", str(workspace["dict"]),
            "--n", "32", "--x", x, "--reps", "10", "--num-functions", "3", "--num-segments", "3",
            "--out", str(out), *extra,
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --x must name at least one level")
    assert not out.exists()


def test_isomorphism_implication_failure_exit_code(workspace, capsys, monkeypatch):
    failing = IsomorphismReport(
        x=1.0, trials=5, violations=1, bound=1.0, gamma_or_rho=0.1, erm_checked=4, erm_implication_failures=2
    )
    monkeypatch.setattr(localization, "isomorphism_check", lambda *args, **kwargs: failing)
    code = main(
        [
            "isomorphism",
            "--problem",
            str(workspace["problem"]),
            "--dict",
            str(workspace["dict"]),
            "--n",
            "64",
            "--x",
            "1",
            "--c0",
            "2.0",
            "--num-functions",
            "4",
            "--num-segments",
            "4",
            "--reps",
            "5",
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines()[1].endswith(",4,2,0")
    assert "ERM implication" in captured.err


def test_experiment_subcommand(workspace, capsys):
    cfg = ExperimentConfig(grid=((48, 2), (48, 3)), replications=4, master_seed=6)
    cfg_path = workspace["dir"] / "exp.json"
    save_config(cfg, cfg_path)
    out_dir = workspace["dir"] / "results"
    code = main(["experiment", "--config", str(cfg_path), "--out", str(out_dir), "--jobs", "2"])
    assert code == 0
    assert (out_dir / "trials.csv").exists()
    assert (out_dir / "report.json").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["incomplete"] is False
    assert len(report["points"]) == 2


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"replications": "5"}, "replications"),
        ({"solver": 5}, "solver"),
        ({"grid": [[64, 2]], "solver": {"tolerance": "1e-8"}}, "tolerance"),
    ],
    ids=["replications-string", "solver-number", "tolerance-string"],
)
def test_experiment_config_of_wrong_type_exits_one(workspace, capsys, raw, key):
    cfg_path = workspace["dir"] / "exp.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(workspace["dir"] / "results")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"key '{key}' must be" in err


@pytest.mark.parametrize("x_levels", [[-5.0, float("nan")], [float("inf")]], ids=["negative-nan", "inf"])
def test_experiment_x_levels_not_finite_and_nonnegative_exit_one(workspace, capsys, x_levels):
    # such levels used to reach report.json as NaN (not strict JSON) or as
    # a tail bound 4 exp(5) for x = -5
    cfg_path = workspace["dir"] / "exp.json"
    cfg_path.write_text(json.dumps({"grid": [[8, 2]], "replications": 2, "x_levels": x_levels}))
    out_dir = workspace["dir"] / "results"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: x_levels must be finite and nonnegative")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        ('"solver": {"tolerance": Infinity}', "tolerance must be positive and finite"),
        ('"solver": {"tolerance": 1e400}', "tolerance must be positive and finite"),
        ('"bound_b": Infinity', "bound_b must be positive and finite"),
    ],
    ids=["tolerance-infinity", "tolerance-overflow", "bound-b-infinity"],
)
def test_experiment_config_not_finite_exits_one(workspace, capsys, entry, message):
    # an infinite tolerance used to mark start-vertex solves converged (exit 0),
    # and an infinite bound_b failed inside the problem generator (exit 2)
    cfg_path = workspace["dir"] / "exp.json"
    cfg_path.write_text('{"grid": [[64, 2]], "replications": 2, ' + entry + "}")
    out_dir = workspace["dir"] / "results"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out_dir.exists()


def _child_env() -> dict:
    # children import the cvxagg this test imported, installed or not
    src = str(Path(cvxagg.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "cvxagg", "rates", "--n-grid", "64", "--m-grid", "2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert result.stdout.startswith("n,M,psi,phi,regime")


@pytest.mark.parametrize("script", ["run_rate_experiment.py", "run_isomorphism_study.py"])
def test_study_scripts_start(script):
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    result = subprocess.run([sys.executable, str(path), "--help"], capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")
