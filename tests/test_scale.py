"""The harness's verdicts are free of the data's scale.

Rescaling (F, y, b) by s multiplies every risk, duality gap, level and
tolerance scale by s^2 and moves no minimizer, so nothing the harness decides
may move: not the rate grid's c_hat or any trial's solver path, not the
isomorphism check's calibrated c0 or its counts, and not the weights that
`cvxagg solve` prints or its exit code.  Each scale is compared with s = 1.
"""

import functools
import json

import pytest

from cvxagg import csvio
from cvxagg.cli import main
from cvxagg.experiments import PROBLEM_KINDS, ExperimentConfig, make_problem, run_grid
from cvxagg.localization import calibrate_c0, isomorphism_check, random_net_segments
from cvxagg.model import Dictionary, SampleSet, sample

GRID = ((256, 4), (256, 64), (1024, 16), (1024, 256))
X_LEVELS = (2.0, 3.0)


@functools.cache
def _rate_grid(kind: str, scale: float) -> tuple:
    """c_hat and every trial's (iterations, stop reason, converged) of the
    grid at bound_b = scale; make_problem draws the dictionary and labels in
    [-b, b], so b scales F, y and b together."""
    report = run_grid(ExperimentConfig(grid=GRID, problem_kind=kind, replications=20, bound_b=scale))
    t = report.records
    return report.c_hat, list(zip(t.iterations.tolist(), t.stop_reason.tolist(), t.converged.tolist()))


@functools.cache
def _isomorphism(scale: float) -> tuple:
    """The c0 calibrated on the isomorphism study's problem at bound_b =
    scale, and (violations, erm_checked) of a fresh check at each x level."""
    problem, dictionary = make_problem("outside-hull", K=6, M=8, b=scale, seed=0)
    segments = random_net_segments(dictionary, 2, 10, 10, 0)
    c0 = calibrate_c0(segments, problem, 256, X_LEVELS, 200, 1, num_net_functions=10, target_scale=0.9)
    checks = [isomorphism_check(segments, problem, 256, x, c0, 200, 2, num_net_functions=10) for x in X_LEVELS]
    return c0, [(r.violations, r.erm_checked) for r in checks]


def _cli_solve(directory, scale: float) -> tuple:
    """`cvxagg solve`'s exit code and JSON solution on one dictionary and
    sample, both scaled by scale, written to and read from CSV files."""
    problem, dictionary = make_problem("inside-hull", K=16, M=64, b=1.0, seed=0)
    drawn = sample(problem, 256, seed=1)
    directory.mkdir()
    paths = {name: directory / f"{name}.csv" for name in ("dict", "samples")}
    csvio.write_dictionary(Dictionary(scale * dictionary.values), paths["dict"])
    scaled = SampleSet(drawn.x_indices, scale * drawn.y_values, drawn.counts, drawn.seed)
    csvio.write_samples(scaled, paths["samples"])
    out = directory / "solution.json"
    code = main(["solve", "--dict", str(paths["dict"]), "--samples", str(paths["samples"]), "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("exponent", range(-6, 7))
def test_the_harness_gives_the_same_verdicts_at_every_data_scale(exponent, tmp_path):
    scale = 10.0**exponent
    for kind in PROBLEM_KINDS:
        c_hat, paths = _rate_grid(kind, scale)
        unit_c_hat, unit_paths = _rate_grid(kind, 1.0)
        assert c_hat == pytest.approx(unit_c_hat, rel=1e-9, abs=0.0), kind
        assert paths == unit_paths, kind
        assert all(converged for _, _, converged in paths), kind

    c0, counts = _isomorphism(scale)
    unit_c0, unit_counts = _isomorphism(1.0)
    assert c0 == pytest.approx(unit_c0, rel=1e-9, abs=0.0)
    assert counts == unit_counts

    code, solution = _cli_solve(tmp_path / "scaled", scale)
    unit_code, unit_solution = _cli_solve(tmp_path / "unit", 1.0)
    assert code == unit_code == 0
    assert solution["converged"] is True
    for name in ("iterations", "stop_reason"):
        assert solution[name] == unit_solution[name], name
    assert max(abs(a - b) for a, b in zip(solution["weights"], unit_solution["weights"])) <= 1e-10
