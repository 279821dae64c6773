import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cvxagg
from cvxagg import csvio, experiments, localization
from cvxagg.cli import main
from cvxagg.experiments import PROBLEM_KINDS, ExperimentConfig, make_problem, save_config
from cvxagg.localization import IsomorphismReport
from cvxagg.model import Dictionary, DiscreteProblem, SampleSet, SimplexWeights, combine, sample
from cvxagg.risk import empirical_risk
from cvxagg.solver import erm_convex_hull

from _support import write_weights


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
    csvio.write_problem(problem, paths["problem"])
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
    assert np.array_equal(problem.x_indices, ref_problem.x_indices)
    assert np.array_equal(problem.y_values, ref_problem.y_values)
    assert np.array_equal(problem.probabilities, ref_problem.probabilities)
    assert problem.bound_b == ref_problem.bound_b
    # a problem read back writes the same file
    written = workspace["problem"].read_bytes()
    csvio.write_problem(problem, workspace["problem"])
    assert workspace["problem"].read_bytes() == written
    assert np.array_equal(dictionary.values, ref_dict.values)
    # a dictionary read back writes the same file
    written = workspace["dict"].read_bytes()
    csvio.write_dictionary(dictionary, workspace["dict"])
    assert workspace["dict"].read_bytes() == written
    ref_draws = sample(ref_problem, 50, seed=4)
    assert np.array_equal(draws.x_indices, np.repeat(ref_draws.x_indices, ref_draws.counts))
    assert np.array_equal(draws.y_values, np.repeat(ref_draws.y_values, ref_draws.counts))
    assert draws.seed == 4
    assert weights.weights == pytest.approx([0.2, 0.3, 0.5])
    # repr-written extremes come back bit for bit, and quoted fields read as csv reads them
    extremes = np.array([[-0.0, 5e-324, 1.7976931348623157e308], [0.1, -2.5e-300, 1.0 / 3.0]])
    csvio.write_dictionary(Dictionary(extremes), workspace["dict"])
    assert csvio.read_dictionary(workspace["dict"]).values.tobytes() == extremes.tobytes()
    workspace["dict"].write_text('x_index,f0,f1\n"1","0.5",-0.0\n0,0.25,"1e-3"\n')
    assert csvio.read_dictionary(workspace["dict"]).values.tolist() == [[0.25, 0.5], [1e-3, -0.0]]
    # each writer's bytes are what csv.writer writes for the same rows of ints and Python floats
    def csv_writer_bytes(header, rows):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
        return buffer.getvalue().encode()

    values = [-0.0, 5e-324, 1.7976931348623157e308, 1.0 / 3.0, -2.5e-300]
    path = workspace["dir"] / "pinned.csv"
    csvio.write_dictionary(Dictionary(np.array([values, values[::-1]])), path)
    rows = [[k, v, w] for k, (v, w) in enumerate(zip(values, values[::-1]))]
    assert path.read_bytes() == csv_writer_bytes(["x_index", "f0", "f1"], rows)
    x, p, b = [0, 1, 1, 2, 2], [-0.0, 5e-324, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], values[2]
    csvio.write_problem(DiscreteProblem(x, values, p, bound_b=b), path)
    rows = [[k, v, q, b] for k, v, q in zip(x, values, p)]
    assert path.read_bytes() == csv_writer_bytes(["x_index", "y_value", "probability", "bound_b"], rows)
    x, counts = [3, 0, 1, 2, 0], [2, 1, 1, 3, 1]
    for seed in (0, 2**63 - 1, 2**64 - 1):
        csvio.write_samples(SampleSet(x, values, counts, seed=seed), path)
        rows = [[k, v, seed] for k, v, count in zip(x, values, counts) for _ in range(count)]
        assert path.read_bytes() == csv_writer_bytes(["x_index", "y_value", "seed"], rows)


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_a_sample_and_its_written_pairs_are_one_measure(tmp_path, kind):
    # model.sample gives the problem's atoms with their draw counts; written
    # out, the file lists each atom's pair once per draw, atom by atom, and
    # read back it is one atom per pair. The two forms solve alike.
    path = tmp_path / "samples.csv"
    for n in (16, 256, 4096):
        for seed in range(4):
            problem, dictionary = make_problem(kind, K=16, M=64, b=1.0, seed=seed)
            counted = sample(problem, n, seed)
            csvio.write_samples(counted, path)
            listing = zip(problem.x_indices.tolist(), problem.y_values.tolist(), counted.counts.tolist())
            assert path.read_text() == "x_index,y_value,seed\n" + "".join(
                f"{x},{y!r},{seed}\n" * count for x, y, count in listing
            )
            paired = csvio.read_samples(path)
            assert (paired.n, paired.seed, paired.x_indices.size) == (n, seed, n)
            a, b = erm_convex_hull(dictionary, counted), erm_convex_hull(dictionary, paired)
            assert np.array_equal(np.flatnonzero(a.weights.weights), np.flatnonzero(b.weights.weights))
            assert (a.iterations, a.stop_reason) == (b.iterations, b.stop_reason)
            assert np.abs(a.weights.weights - b.weights.weights).max() <= 1e-12
            assert abs(a.empirical_risk - b.empirical_risk) <= 1e-12


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
    "key, text, fields, width, line",
    [
        ("problem", "x_index,y_value,probability,bound_b\n0,0.5,1.0\n", 3, 4, 2),
        ("problem", "x_index,y_value,probability,bound_b\n0,0.5,1.0,1.0,9\n", 5, 4, 2),
        ("samples", "x_index,y_value,seed\n0,0.5\n", 2, 3, 2),
        ("samples", "x_index,y_value,seed\n0,0.5,4,9\n", 4, 3, 2),
        ("dict", "x_index,f0,f1\n0,0.1\n1,0.2\n2,0.3\n", 2, 3, 2),
        ("dict", "x_index,f0,f1\n0,0.1,0.2,0.3\n", 4, 3, 2),
        ("dict", "x_index,f0,f1\n0,0.1,0.2\n\n1,0.3\n", 2, 3, 4),
        ("dict", 'x_index,f0,f1\n0,"0.1,0.2",0.3,0.4\n', 4, 3, 2),
    ],
    ids=[
        "problem-short", "problem-long", "samples-short", "samples-long", "dictionary-short", "dictionary-long",
        "dictionary-after-blank-line", "dictionary-quoted-comma",
    ],
)
def test_rows_not_as_wide_as_the_header_exit_one(workspace, capsys, key, text, fields, width, line):
    workspace[key].write_text(text)
    files = {name: str(workspace[name]) for name in ("problem", "dict", "samples")}
    if key == "problem":
        argv = ["isomorphism", "--problem", files["problem"], "--dict", files["dict"], "--n", "32", "--c0", "2.0"]
    else:
        argv = ["solve", "--dict", files["dict"], "--samples", files["samples"]]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {workspace[key]}: line {line} has {fields} fields, the header has {width}"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("x_index,f0\n0,0.1#x\n1,0.2\n", "could not convert string '0.1#x'"),
        ("x_index,f0\n0,1_0.5\n1,0.2\n", "could not convert string '1_0.5'"),
        ("x_index,f0\n0,0.1\n1.0,0.2\n", "could not convert string '1.0' to int64"),
    ],
    ids=["comment-mark", "underscore", "float-index"],
)
def test_dictionary_fields_that_do_not_parse_exit_one(workspace, capsys, text, message):
    # under numpy's default comment mark, 0.1#x would read as 0.1
    workspace["dict"].write_text(text)
    assert main(["solve", "--dict", str(workspace["dict"]), "--samples", str(workspace["samples"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "reader, text, line, message",
    [
        (csvio.read_problem, "x_index,y_value,probability,bound_b\n0,0.5,0.5,1\n1,0.5,half,1\n", 3, "'half'"),
        (csvio.read_problem, "x_index,y_value,probability,bound_b\n0,0.5,1.0,one\n", 2, "'one'"),
        (csvio.read_samples, "x_index,y_value,seed\n0,0.5,4\n\n1.5,0.5,4\n", 4, "'1.5'"),
        (csvio.read_samples, "x_index,y_value,seed\n0,0.5,s\n", 2, "'s'"),
        (csvio.read_weights, "index,weight\n0,0.5\n1,x\n", 3, "'x'"),
        (csvio.read_weights, "index,weight\n0,0.5\n1.0,0.5\n", 3, "'1.0'"),
        (csvio.read_dictionary, "x_index,f0\n0,0.1\n1.0,0.2\n", 3, "'1.0'"),
        (csvio.read_dictionary, "x_index,f0,f1\n0,0.1,0.2\n\n1,0.3,abc\n", 4, "'abc'"),
        (csvio.read_samples, 'x_index,y_value,seed\n0,"0.5,4\n1,0.5,4\n', 2, "unexpected end of data"),
        (csvio.read_dictionary, 'x_index,f0\n0,"0.5" \n', 2, "',' expected after '\"'"),
    ],
    ids=[
        "problem-probability", "problem-bound", "samples-index", "samples-seed", "weights-weight", "weights-index",
        "dictionary-index", "dictionary-value", "samples-open-quote", "dictionary-text-after-quote",
    ],
)
def test_fields_that_do_not_parse_name_their_line(tmp_path, reader, text, line, message):
    # the field conversions used to name neither the file nor the line, and
    # numpy's errors gave a data-row index counted from 0
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value).startswith(f"{path}: line {line}: ") and message in str(info.value)
    assert "row" not in str(info.value)


@pytest.mark.parametrize(
    "key, text, message",
    [
        ("samples", 'x_index,y_value,seed\n0,"' + "1" * 200_000 + '",4\n', "field larger than field limit"),
        ("dict", 'x_index,f0\n0,"' + "1" * 200_000 + '"\n', "field larger than field limit"),
        ("samples", "x_index,y_value,seed\n0," + "1" * 200_000 + ",4\n", "y_value is inf, not finite"),
    ],
    ids=["samples", "dictionary-quoted", "samples-unquoted"],
)
def test_csv_module_errors_exit_one(workspace, capsys, key, text, message):
    # a field over the csv module's size limit used to escape as a _csv.Error
    # traceback; only a quoted line goes through the csv module, and unquoted
    # the same digits parse, to inf
    workspace[key].write_text(text)
    assert main(["solve", "--dict", str(workspace["dict"]), "--samples", str(workspace["samples"])]) == 1
    assert capsys.readouterr().err.startswith(f"error: {workspace[key]}: line 2: {message}")


# a file of two data rows, for each reader, with the index and one float of its
# third line left open; line 2 is always well formed
_TWO_ROWS = {
    "problem": (csvio.read_problem, "x_index,y_value,probability,bound_b\n0,0.5,0.5,1\n{index},{value},0.5,1\n"),
    "samples": (csvio.read_samples, "x_index,y_value,seed\n0,0.5,4\n{index},{value},4\n"),
    "weights": (csvio.read_weights, "index,weight\n0,0.5\n{index},{value}\n"),
    "dictionary": (csvio.read_dictionary, "x_index,f0\n0,0.5\n{index},{value}\n"),
}
_BAD_FIELDS = {
    "index-underscore": ("index", "1_0"),
    "index-fullwidth": ("index", "\uff11"),  # a fullwidth digit one
    "index-float": ("index", "1.0"),
    "index-int64-overflow": ("index", str(2**63)),
    "value-underscore": ("value", "1_0"),
    "value-fullwidth": ("value", "\uff11"),
    "value-comment-mark": ("value", "0.1#x"),
    "value-inf": ("value", "inf"),
    "value-nan": ("value", "nan"),
    "value-overflow": ("value", "1e999"),
}


@pytest.mark.parametrize("column, field", list(_BAD_FIELDS.values()), ids=list(_BAD_FIELDS))
@pytest.mark.parametrize("name", list(_TWO_ROWS))
def test_all_four_readers_refuse_the_same_fields(tmp_path, name, column, field):
    # integer columns take exact int64 literals and float columns finite
    # numpy literals, in all four files: Python's int() and float() used to
    # take 1_0 and a fullwidth 1 in every file but the dictionary's values,
    # and an index past int64 or a non-finite float raised an error naming
    # no file or line
    reader, template = _TWO_ROWS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(template.format(index=1, value=0.5))
    reader(path)
    path.write_text(template.format(**{"index": 1, "value": 0.5, column: field}))
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value).startswith(f"{path}: line 3: ")


@pytest.mark.parametrize("name", list(_TWO_ROWS))
def test_an_integer_parsed_via_a_float_is_refused(tmp_path, monkeypatch, name):
    # a numpy with the fallback deprecated in 1.23 parses a bad integer field
    # as a float and truncates it (1.7 to 1), only warning once; this loadtxt
    # does that, with the conversion error numpy raises when the warning is an
    # error, so the readers must refuse the field whatever numpy is installed
    loadtxt = np.loadtxt

    def falling_back(lines, **kwargs):
        fields = lines[1].split(",")
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        except DeprecationWarning as exc:
            raise ValueError(f"could not convert string {fields[0]!r} to int64 at row 1, column 1.") from exc
        return loadtxt([lines[0], ",".join([str(int(float(fields[0])))] + fields[1:])], **kwargs)

    monkeypatch.setattr(np, "loadtxt", falling_back)
    reader, template = _TWO_ROWS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(template.format(index=1.7, value=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: could not convert string '1.7'"):
            reader(path)


@pytest.mark.parametrize("key", ["samples", "problem"])
def test_an_index_beyond_int64_exits_one(workspace, capsys, key):
    # numpy's OverflowError is an ArithmeticError, which used to exit 2 with no file or line
    lines = workspace[key].read_text().splitlines()
    lines[2] = str(2**64) + lines[2][lines[2].index(","):]
    workspace[key].write_text("\n".join(lines) + "\n")
    files = {name: str(workspace[name]) for name in ("problem", "dict", "samples")}
    if key == "problem":
        argv = ["isomorphism", "--problem", files["problem"], "--dict", files["dict"], "--n", "32", "--c0", "2.0"]
    else:
        argv = ["solve", "--dict", files["dict"], "--samples", files["samples"]]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {workspace[key]}: line 3: could not convert string")


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


def _reading(workspace, key) -> list:
    """A command line that reads workspace's file `key`: solve for the
    samples and dictionary, sparsify for the problem and weights."""
    files = {name: str(workspace[name]) for name in ("problem", "dict", "samples", "weights")}
    if key in ("samples", "dict"):
        return ["solve", "--dict", files["dict"], "--samples", files["samples"]]
    return ["sparsify", "--dict", files["dict"], "--problem", files["problem"], "--weights", files["weights"], "--m", "4"]


@pytest.mark.parametrize("key", ["problem", "dict", "samples", "weights"])
def test_a_header_only_file_exits_one(workspace, capsys, key):
    workspace[key].write_text(workspace[key].read_text().splitlines()[0] + "\n")
    assert main(_reading(workspace, key)) == 1
    assert capsys.readouterr().err == f"error: {workspace[key]}: no data rows\n"


@pytest.mark.parametrize("key, column", [("problem", "bound_b"), ("samples", "seed")])
def test_a_constant_column_whose_rows_differ_exits_one(workspace, capsys, key, column):
    # the last field of each row is the constant column; one row of 7 differs
    header, first, *rest = workspace[key].read_text().splitlines()
    first = first[: first.rindex(",")] + ",7"
    workspace[key].write_text("\n".join([header, first, *rest]) + "\n")
    assert main(_reading(workspace, key)) == 1
    assert capsys.readouterr().err == f"error: {workspace[key]}: {column} column must be constant\n"


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


@pytest.mark.parametrize(
    "n_grid, m_grid, flag",
    [("64,,256", "2,", "--n-grid"), ("64", "2,", "--m-grid"), (",64", "2", "--n-grid"), ("64", "2,,16", "--m-grid")],
)
def test_rates_grid_with_an_empty_entry_exits_one(tmp_path, capsys, n_grid, m_grid, flag):
    # empty entries used to be dropped: --n-grid 64,,256 --m-grid 2, exited
    # 0 with two rows, losing a grid cell unnoticed
    out = tmp_path / "rates.csv"
    assert main(["rates", "--n-grid", n_grid, "--m-grid", m_grid, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} must name at least one value, with no empty entry")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rates", "--n-grid", "64,abc", "--m-grid", "2"], "--n-grid must be a comma-separated list of values"),
        (["rates", "--n-grid", "64", "--m-grid", "2.5"], "--m-grid must be a comma-separated list of values"),
        (["isomorphism", "--x", "1,abc", "--c0", "2.0"], "--x must be a comma-separated list of levels"),
    ],
    ids=["n-grid", "m-grid", "x"],
)
def test_a_list_entry_that_does_not_parse_exits_one(workspace, capsys, argv, message):
    if argv[0] == "isomorphism":
        argv = argv + ["--problem", str(workspace["problem"]), "--dict", str(workspace["dict"]), "--n", "32"]
    out = workspace["dir"] / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}, found ")
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
    assert set(payload) == {
        "weights", "empirical_risk", "duality_gap", "iterations", "converged",
        "stop_reason", "kkt_solves", "drop_steps",
    }
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


def _huge_labels(workspace) -> list:
    """`cvxagg solve`'s arguments for the workspace sample with its labels times 1e155."""
    draws = csvio.read_samples(workspace["samples"])
    samples = workspace["dir"] / "huge-samples.csv"
    csvio.write_samples(SampleSet(draws.x_indices, 1e155 * draws.y_values, draws.counts, draws.seed), samples)
    return ["solve", "--dict", str(workspace["dict"]), "--samples", str(samples)]


def _solve_huge_labels(workspace) -> int:
    """`cvxagg solve` on the workspace sample with its labels times 1e155,
    in this process, where a numpy RuntimeWarning is an error."""
    return main(_huge_labels(workspace))


def test_solve_on_labels_whose_scale_overflows_exits_two(workspace, capsys):
    # labels of 1e155 square past the largest float, so no gap can be measured
    # against their scale: the solve is reported unconverged and exits 2,
    # where an absolute tolerance called it converged and exited 0
    assert _solve_huge_labels(workspace) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["converged"] is False
    assert captured.err == "solver did not reach its duality-gap tolerance\n"


def test_solve_on_labels_whose_scale_overflows_prints_only_its_own_line(workspace):
    # the squares of labels of 1e155 overflow in the solver's scale and in
    # the empirical risk, whose inf the solve handles; numpy's overflow
    # warnings used to print above the solve's one line
    result = subprocess.run(
        [sys.executable, "-m", "cvxagg", *_huge_labels(workspace)], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 2
    assert result.stderr == "solver did not reach its duality-gap tolerance\n"


def test_solve_writes_a_risk_that_overflows_as_null(workspace, capsys):
    # the empirical risk of labels of 1e155 overflows to inf, which JSON
    # cannot hold: Python's default would print the token Infinity, which a
    # strict reader refuses; the solve writes null and still exits 2
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    assert _solve_huge_labels(workspace) == 2
    payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert payload["empirical_risk"] is None and payload["converged"] is False


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_solve_tolerance_not_positive_exits_one(workspace, capsys, tol):
    code = main(["solve", "--dict", str(workspace["dict"]), "--samples", str(workspace["samples"]), "--tol", tol])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: tolerance must be positive and finite, found {float(tol)!r}\n"
    assert captured.out == ""


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


def test_isomorphism_subcommand(tmp_path, capsys):
    header = (
        "x,c0,violations,trials,violation_rate,bound,gamma,"
        "erm_checked,erm_implication_failures,resolution_limited"
    )
    reps = 20
    families = [
        (("inside-hull", 3, 3, 2), ["--n", "64", "--x", "1,2", "--c0", "2.0", "--num-functions", "4",
                                    "--num-segments", "4", "--seed", "3"]),
        # the study in the README: c0 calibrated on this family at four levels
        (("outside-hull", 6, 8, 0), ["--n", "256", "--x", "1,2,3,4"]),
    ]
    for (kind, K, M, seed), flags in families:
        problem, dictionary = make_problem(kind, K=K, M=M, b=1.0, seed=seed)
        csvio.write_problem(problem, tmp_path / "problem.csv")
        csvio.write_dictionary(dictionary, tmp_path / "dict.csv")
        argv = ["isomorphism", "--problem", str(tmp_path / "problem.csv"), "--dict", str(tmp_path / "dict.csv")]
        assert main(argv + ["--reps", str(reps), *flags]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == header
        x_levels = [float(x) for x in flags[flags.index("--x") + 1].split(",")]
        table = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines[1:]]
        assert [row["x"] for row in table] == x_levels
        assert len({row["c0"] for row in table}) == 1 and table[0]["c0"] > 0.0
        for x, row in zip(x_levels, table):
            assert row["violations"] + row["erm_checked"] == row["trials"] == reps
            assert row["violation_rate"] == row["violations"] / reps
            assert row["bound"] == 4.0 * math.exp(-x)
            assert row["gamma"] > 0.0
            assert row["erm_implication_failures"] == 0 and row["resolution_limited"] == 0


@pytest.mark.parametrize("problem_k, dict_k", [(6, 4), (4, 6)], ids=["problem-larger", "dictionary-larger"])
@pytest.mark.parametrize("command", ["isomorphism", "sparsify"])
def test_design_size_mismatch_exits_one(tmp_path, capsys, command, problem_k, dict_k):
    problem, _ = make_problem("inside-hull", K=problem_k, M=3, b=1.0, seed=2)
    _, dictionary = make_problem("inside-hull", K=dict_k, M=3, b=1.0, seed=2)
    csvio.write_problem(problem, tmp_path / "problem.csv")
    csvio.write_dictionary(dictionary, tmp_path / "dict.csv")
    write_weights(SimplexWeights(np.array([0.2, 0.3, 0.5])), tmp_path / "weights.csv")
    extra = {
        "isomorphism": ["--n", "32", "--c0", "2.0", "--reps", "10", "--num-functions", "4", "--num-segments", "3"],
        "sparsify": ["--weights", str(tmp_path / "weights.csv"), "--m", "2"],
    }[command]
    code = main([command, "--problem", str(tmp_path / "problem.csv"), "--dict", str(tmp_path / "dict.csv"), *extra])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: a dictionary row of {dict_k} values does not fit a problem of {problem_k} design points"
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


@pytest.mark.parametrize(
    "command, argv",
    [
        ("rates", ["--n-grid", "0", "--m-grid", "4"]),
        ("isomorphism", ["--n", "0", "--reps", "10"]),
    ],
)
def test_a_sample_size_below_one_exits_one_naming_n(workspace, capsys, command, argv):
    # isomorphism --n 0 used to print "N and n must be at least 1", which
    # names a net size the user never set
    if command == "isomorphism":
        argv = ["--problem", str(workspace["problem"]), "--dict", str(workspace["dict"]), *argv]
    assert main([command, *argv]) == 1
    assert capsys.readouterr().err == "error: n must be at least 1, found 0\n"


@pytest.mark.parametrize(
    "seed, c0, found",
    [("-1", "2.0", "-1"), (str(2**64), "2.0", str(2**64)), (str(2**64 - 1), None, str(2**64))],
    ids=["below", "above", "calibration-seed-above"],
)
def test_isomorphism_seed_outside_a_key_word_exits_one_naming_it(workspace, capsys, seed, c0, found):
    # a draw key word lies in [0, 2**64): numpy's uint64 conversion would
    # raise OverflowError, an ArithmeticError, and so exit 2; calibration
    # draws from seed + 1, which is 2**64 at the top seed
    argv = [
        "isomorphism", "--problem", str(workspace["problem"]), "--dict", str(workspace["dict"]),
        "--n", "32", "--reps", "10", "--num-functions", "3", "--num-segments", "3",
    ]
    assert main([*argv, "--seed", seed, *(["--c0", c0] if c0 else [])]) == 1
    assert capsys.readouterr().err == f"error: seed must lie in [0, 2**64), found {found}\n"
    # the top key word is a seed like any other
    assert main([*argv, "--seed", str(2**64 - 1), "--c0", "2.0"]) == 0


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_sparsify_seed_outside_a_key_word_exits_one_naming_it(workspace, capsys, seed):
    # numpy's default_rng refused -1 with "expected non-negative integer",
    # naming no argument, and took 2**64 and above
    argv = [
        "sparsify", "--dict", str(workspace["dict"]), "--problem", str(workspace["problem"]),
        "--weights", str(workspace["weights"]), "--m", "4",
    ]
    assert main([*argv, "--seed", seed]) == 1
    assert capsys.readouterr().err == f"error: seed must lie in [0, 2**64), found {seed}\n"
    assert main([*argv, "--seed", str(2**64 - 1)]) == 0


@pytest.mark.parametrize("count", ["0", "-1"])
def test_isomorphism_with_no_segment_exits_one(workspace, capsys, count):
    # -1 used to exit 1 with numpy's "negative dimensions are not allowed",
    # and 0 to fail later without naming the flag
    out = workspace["dir"] / "iso.csv"
    code = main(
        [
            "isomorphism", "--problem", str(workspace["problem"]), "--dict", str(workspace["dict"]),
            "--n", "32", "--c0", "2.0", "--reps", "10", "--num-functions", "3", "--num-segments", count,
            "--out", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: num_segments must be at least 1, found {count}")
    assert not out.exists()


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
    # calibrate_c0 and isomorphism_check name each level x (model._real)
    assert capsys.readouterr().err.startswith("error: x must be finite and nonnegative, found ")


@pytest.mark.parametrize("c0", ["-1", "nan", "inf"])
def test_isomorphism_c0_outside_its_range_exits_one(workspace, capsys, c0):
    # a negative c0 used to fail inside the level with no name but "x, b, and c0"
    code = main(
        [
            "isomorphism", "--problem", str(workspace["problem"]), "--dict", str(workspace["dict"]),
            "--n", "32", "--x", "2", "--c0", c0, "--reps", "10", "--num-functions", "4", "--num-segments", "3",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: c0 must be finite and nonnegative, found {float(c0)!r}\n"


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


@pytest.mark.parametrize("x", ["1,,2", "2,", ",2"])
def test_isomorphism_x_with_an_empty_entry_exits_one(workspace, capsys, x):
    # --x 1,,2 used to be read as --x 1,2
    out = workspace["dir"] / "iso.csv"
    code = main(
        [
            "isomorphism", "--problem", str(workspace["problem"]), "--dict", str(workspace["dict"]),
            "--n", "32", "--x", x, "--c0", "2.0", "--reps", "10", "--num-functions", "3", "--num-segments", "3",
            "--out", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --x must name at least one level, with no empty entry")
    assert not out.exists()


def test_isomorphism_with_nothing_to_calibrate_exits_one(workspace, capsys):
    # 4 exp(-1) > 1, so at x = 1 any c0 meets the target; the calibration
    # used to return c0 0.0 and exit 0 with every dataset violating
    out = workspace["dir"] / "iso.csv"
    code = main(
        [
            "isomorphism", "--problem", str(workspace["problem"]), "--dict", str(workspace["dict"]),
            "--n", "32", "--x", "1", "--reps", "10", "--num-functions", "3", "--num-segments", "3",
            "--out", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: nothing to calibrate")
    assert not out.exists()


def test_isomorphism_says_which_rate_checks_cannot_fail(workspace, capsys):
    argv = [
        "isomorphism", "--problem", str(workspace["problem"]), "--dict", str(workspace["dict"]),
        "--n", "32", "--reps", "10", "--num-functions", "3", "--num-segments", "3", "--c0", "2.0",
    ]
    assert main(argv + ["--x", "1,2"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"note: x=1.0: the bound 4 exp(-x) = {4.0 * math.exp(-1.0)!r} is at least 1, so its rate check cannot fail"
    ]
    # the note is on stderr only: the x = 2 row is the row of a run without x = 1
    assert main(argv + ["--x", "2"]) == 0
    alone = capsys.readouterr()
    assert alone.err == "" and alone.out.splitlines()[1] == captured.out.splitlines()[2]


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
    # stdout is a summary line, then one row per grid cell, whose values are
    # those of report.json: ratio is mean_excess / (b^2 psi), which c_hat
    # maximises over the fit cells, and ratio / c_hat over the val cells are
    # the validation ratios; at bound_b 0.5 the b^2 shows, and a one-cell
    # grid has one fit row and no val row
    cfg_path = workspace["dir"] / "exp.json"
    out_dir = workspace["dir"] / "results"
    for grid, bound_b in ((((48, 2), (48, 3)), 1.0), (((48, 2), (48, 3)), 0.5), (((48, 2),), 1.0)):
        save_config(ExperimentConfig(grid=grid, replications=4, master_seed=6, bound_b=bound_b), cfg_path)
        code = main(["experiment", "--config", str(cfg_path), "--out", str(out_dir), "--jobs", "2"])
        assert code == 0
        assert (out_dir / "trials.csv").exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["incomplete"] is False
        assert len(report["points"]) == len(grid)
        summary, header, *rows = capsys.readouterr().out.splitlines()
        assert summary == (
            f"c_hat={report['c_hat']!r} c_hat_phi={report['c_hat_phi']!r} points={len(grid)} incomplete=False"
        )
        assert header == "n,M,psi,mean_excess,ratio,role"
        assert len(rows) == len(grid)
        b2 = report["bound_b"] ** 2
        ratios = {"fit": [], "val": []}
        for i, (row, point) in enumerate(zip(rows, report["points"])):
            n, M, psi, mean, ratio, role = row.split(",")
            assert (int(n), int(M), float(psi)) == (point["n"], point["M"], point["psi"])
            assert float(mean) == point["mean_excess"]
            assert float(ratio) == point["mean_excess"] / (b2 * point["psi"])
            assert role == ("fit" if i in report["fit_indices"] else "val")
            ratios[role].append(float(ratio))
        assert max(ratios["fit"]) == report["c_hat"]
        assert [r / report["c_hat"] for r in ratios["val"]] == pytest.approx(report["validation_ratios"], rel=1e-12)
        assert len(ratios["val"]) == len(grid) // 2


def test_experiment_says_which_deviation_rows_cannot_fail(workspace, capsys):
    out_dir = workspace["dir"] / "results"
    argv = ["experiment", "--out", str(out_dir), "--config"]
    for name, x_levels in (("both", (1.0, 2.0)), ("two", (2.0,))):
        cfg = ExperimentConfig(grid=((48, 2), (48, 3)), replications=4, master_seed=6, x_levels=x_levels)
        save_config(cfg, workspace["dir"] / f"{name}.json")
    assert main(argv + [str(workspace["dir"] / "both.json")]) == 0
    both = capsys.readouterr()
    assert both.err.splitlines() == [
        f"note: x=1.0: the bound 4 exp(-x) = {4.0 * math.exp(-1.0)!r} is at least 1, so its deviation rows cannot fail"
    ]
    trials, report = ((out_dir / name).read_bytes() for name in ("trials.csv", "report.json"))
    # the note is on stderr only: stdout, trials.csv and the x = 2 rows of
    # report.json are those of a run without x = 1
    assert main(argv + [str(workspace["dir"] / "two.json")]) == 0
    alone = capsys.readouterr()
    assert alone.err == "" and alone.out == both.out
    assert (out_dir / "trials.csv").read_bytes() == trials
    rows = json.loads(report)["deviation"]
    assert json.loads((out_dir / "report.json").read_text())["deviation"] == [row for row in rows if row["x"] == 2.0]


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"replications": "5"}, "config key 'replications' must be"),
        ({"solver": 5}, "config key 'solver' must be"),
        ({"grid": [[64, 2]], "solver": {"tolerance": "1e-8"}}, "tolerance must be a real number"),
    ],
    ids=["replications-string", "solver-number", "tolerance-string"],
)
def test_experiment_config_of_wrong_type_exits_one(workspace, capsys, raw, message):
    cfg_path = workspace["dir"] / "exp.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(workspace["dir"] / "results")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


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


def test_experiment_config_tie_break_exits_one(workspace, capsys):
    # ties always break to the lowest index; the old key is unknown like any other
    cfg_path = workspace["dir"] / "exp.json"
    cfg_path.write_text(json.dumps({"grid": [[64, 2]], "solver": {"tie_break": "lowest-index"}}))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(workspace["dir"] / "results")]) == 1
    assert capsys.readouterr().err.startswith("error: unknown solver config keys: ['tie_break']")


@pytest.mark.parametrize("command", ["solve", "rates", "isomorphism", "sparsify"])
def test_out_writes_exactly_what_stdout_gets(workspace, capsys, command):
    files = {name: str(workspace[name]) for name in ("problem", "dict", "samples", "weights")}
    argv = {
        "solve": ["solve", "--dict", files["dict"], "--samples", files["samples"]],
        "rates": ["rates", "--n-grid", "64,256", "--m-grid", "2,16"],
        "isomorphism": [
            "isomorphism", "--problem", files["problem"], "--dict", files["dict"], "--n", "32", "--x", "2,3",
            "--c0", "2.0", "--reps", "10", "--num-functions", "3", "--num-segments", "3",
        ],
        "sparsify": [
            "sparsify", "--dict", files["dict"], "--problem", files["problem"], "--weights", files["weights"],
            "--m", "4", "--seed", "5",
        ],
    }[command]
    assert main(argv) == 0
    printed = capsys.readouterr()
    out = workspace["dir"] / "out.txt"
    assert main(argv + ["--out", str(out)]) == 0
    written = capsys.readouterr()
    assert printed.out and out.read_bytes() == printed.out.encode()
    assert written.out == "" and written.err == printed.err


def test_experiment_with_unconverged_trials_exits_two(workspace, capsys):
    # one iteration at a tolerance of 1e-16 leaves the M = 16 solves short of
    # their gap: the run is incomplete, exits 2, and still writes both files
    cfg_path = workspace["dir"] / "capped.json"
    cfg_path.write_text(
        json.dumps({"grid": [[64, 16]], "replications": 3, "solver": {"max_iterations": 1, "tolerance": 1e-16}})
    )
    out_dir = workspace["dir"] / "results"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].endswith("points=1 incomplete=True")
    assert captured.err.splitlines()[-1] == "experiment incomplete: some trials did not converge"
    assert json.loads((out_dir / "report.json").read_text())["incomplete"] is True
    rows = (out_dir / "trials.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",0") for row in rows)


def test_an_outside_hull_experiment_at_a_large_bound_completes(workspace, capsys):
    # at bound_b = 1e6 every gap is about 1e12 times its unit-scale value, and
    # an absolute tolerance left the population oracle uncertified (exit 2);
    # taken relative to the data's scale, the oracle and every trial converge
    cfg_path = workspace["dir"] / "large-b.json"
    save_config(ExperimentConfig(grid=((64, 16),), problem_kind="outside-hull", replications=3, bound_b=1e6), cfg_path)
    out_dir = workspace["dir"] / "results"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith("points=1 incomplete=False")
    rows = (out_dir / "trials.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",1") for row in rows)


def test_experiment_with_an_uncertified_population_oracle_exits_two(workspace, capsys, monkeypatch):
    # an outside-hull cell takes its hull minimum from the population oracle,
    # which refuses a solve that did not certify its gap; forced here, that
    # exits 2 before any file is written
    solve = experiments.erm_convex_hull
    monkeypatch.setattr(
        experiments, "erm_convex_hull", lambda *args: dataclasses.replace(solve(*args), converged=False)
    )
    cfg_path = workspace["dir"] / "outside.json"
    save_config(ExperimentConfig(grid=((48, 2),), problem_kind="outside-hull", replications=2), cfg_path)
    out_dir = workspace["dir"] / "results"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: population hull solve did not reach its duality-gap target\n"
    assert captured.out == "" and not out_dir.exists()


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


def test_solve_imports_only_what_it_runs(workspace):
    # a `solve` child starts without the experiment, localization and sparsify layers
    code = (
        "import sys; from cvxagg.cli import main; "
        "code = main(['solve', '--dict', sys.argv[1], '--samples', sys.argv[2], '--out', sys.argv[3]]); "
        "print(code, sorted({'cvxagg.experiments', 'cvxagg.localization', 'cvxagg.sparsify', "
        "'concurrent.futures'} & set(sys.modules)))"
    )
    paths = [str(workspace[key]) for key in ("dict", "samples")] + [str(workspace["dir"] / "solution.json")]
    result = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0 []"
