"""The count rule: every count argument of the library goes through
`model._whole` once, where its function is entered.

A count is whole and at least its minimum: 3.0 and np.int64(3) are taken as
3, with the bits of 3, and 2.5, a bool and the minimum - 1 are refused by a
ValueError whose message starts with the argument's name.

The seed rule, its sibling: every seed argument goes through `model._seed`,
a Philox key word in [0, 2**64), which takes the count rule first.  3.0,
np.int64(3) and np.uint64(3) are taken as 3, with the bits of 3, and a bool,
2.5, "3", None, -1 and 2**64 are refused by name.

The real rule: every real parameter goes through `model._real` once, where
its function is entered.  An int, np.int64 or np.float64 in range is taken
as the float with the same bits, and a bool, a str, None, NaN, an infinity
and a value just outside either end of the range are refused by a ValueError
whose message starts with the argument's name.
"""

import math
import pickle

import numpy as np
import pytest

from cvxagg import experiments, localization, model, rates, sparsify
from cvxagg.experiments import ExperimentConfig, make_problem
from cvxagg.solver import SolverConfig

PROBLEM, DICTIONARY = make_problem("outside-hull", K=3, M=4, b=1.0, seed=0)
SEGMENT = model.Segment(DICTIONARY.values[0], DICTIONARY.values[1])
WEIGHTS = model.SimplexWeights(np.full(4, 0.25))


def _config(**fields):
    return ExperimentConfig(**{"grid": ((8, 2),), "atoms_K": 2, "replications": 2, **fields})


def _sup(n=16, reps=3, seed=0):
    return localization.localized_sup(localization.LocalizedClass(SEGMENT, 0.1), PROBLEM, n, reps, seed)


def _check(**arguments):
    arguments = {"n": 16, "x": 1.0, "c0": 1.0, "reps": 3, "seed": 0, **arguments}
    return localization.isomorphism_check([SEGMENT], PROBLEM, **arguments)


def _calibrate(n=16, reps=3, seed=0, x_levels=(2.0,), target_scale=1.0):
    return localization.calibrate_c0([SEGMENT], PROBLEM, n, x_levels, reps, seed, target_scale=target_scale)


def _segments(**arguments):
    arguments = {"m": 2, "num_functions": 3, "num_segments": 2, "seed": 0, **arguments}
    return localization.random_net_segments(DICTIONARY, **arguments)


# (function, the name its messages give the count, the count's minimum or
# None, the function called with the count set to a value)
COUNTS = [
    ("sample", "sample size", 1, lambda v: model.sample(PROBLEM, v, 0)),
    ("draw_count_matrix", "sample size", 1, lambda v: model.draw_count_matrix(PROBLEM, v, 0, range(2))),
    ("SolverConfig", "max_iterations", 1, lambda v: SolverConfig(max_iterations=v)),
    ("ExperimentConfig-n", "grid entries", 1, lambda v: _config(grid=((v, 2),))),
    ("ExperimentConfig-M", "grid entries", 1, lambda v: _config(grid=((8, v),))),
    ("ExperimentConfig", "atoms_K", 1, lambda v: _config(atoms_K=v)),
    ("ExperimentConfig", "replications", 1, lambda v: _config(replications=v)),
    ("ExperimentConfig", "master_seed", None, lambda v: _config(master_seed=v)),
    ("make_problem", "K", 1, lambda v: make_problem("outside-hull", K=v, M=4, b=1.0, seed=0)),
    ("make_problem", "M", 1, lambda v: make_problem("outside-hull", K=3, M=v, b=1.0, seed=0)),
    ("run_grid", "jobs", 1, lambda v: experiments.run_grid(_config(), jobs=v)),
    ("localized_sup", "reps", 2, lambda v: _sup(reps=v)),
    ("localized_sup", "n", 1, lambda v: _sup(n=v)),
    ("isomorphism_check", "n", 1, lambda v: _check(n=v)),
    ("isomorphism_check", "reps", 1, lambda v: _check(reps=v)),
    ("isomorphism_check", "num_net_functions", 1, lambda v: _check(num_net_functions=v)),
    ("isomorphism_check", "rep_offset", 0, lambda v: _check(rep_offset=v)),
    ("calibrate_c0", "n", 1, lambda v: _calibrate(n=v)),
    ("calibrate_c0", "reps", 1, lambda v: _calibrate(reps=v)),
    ("random_net_segments", "m", 1, lambda v: _segments(m=v)),
    ("random_net_segments", "num_functions", 2, lambda v: _segments(num_functions=v, num_segments=1)),
    ("random_net_segments", "num_segments", 1, lambda v: _segments(num_segments=v)),
    ("choose_m", "n", 1, lambda v: sparsify.choose_m(v, 4)),
    ("choose_m", "M", 1, lambda v: sparsify.choose_m(1, v)),
    ("enumerate_net", "size_m", 1, lambda v: sparsify.enumerate_net(v, 2)),
    ("enumerate_net", "m", 1, lambda v: sparsify.enumerate_net(2, v)),
    ("sparsify_random", "m", 1, lambda v: sparsify.sparsify_random(WEIGHTS, v, 0)),
    ("expected_sparsified_risk", "m", 1, lambda v: sparsify.expected_sparsified_risk(WEIGHTS, v, DICTIONARY, PROBLEM)),
    ("psi_c", "n", 1, lambda v: rates.psi_c(v, 4)),
    ("psi_c", "M", 1, lambda v: rates.psi_c(16, v)),
    ("phi_n", "n", 1, lambda v: rates.phi_n(v, 4)),
    ("phi_n", "M", 1, lambda v: rates.phi_n(16, v)),
    ("RatePoint.at", "n", 1, lambda v: rates.RatePoint.at(v, 4)),
    ("RatePoint.at", "M", 1, lambda v: rates.RatePoint.at(16, v)),
]
IDS = [f"{function}-{name}".replace(" ", "_") for function, name, _, _ in COUNTS]


@pytest.fixture(autouse=True)
def one_cpu(monkeypatch):
    # run_grid caps jobs at the usable CPUs, so a jobs of 3 starts no pool
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)


@pytest.mark.parametrize("function, name, least, call", COUNTS, ids=IDS)
def test_a_count_that_is_not_whole_or_below_its_minimum_is_refused_by_name(function, name, least, call):
    refusals = [
        (2.5, f"{name} must be whole, found 2.5"),
        (True, f"{name} must be a number, not the bool True"),
        (np.True_, f"{name} must be a number, not the bool {np.True_!r}"),
    ]
    if least is not None:
        refusals.append((least - 1, f"{name} must be at least {least}, found {least - 1}"))
    for value, message in refusals:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == message, value


@pytest.mark.parametrize("function, name, least, call", COUNTS, ids=IDS)
def test_a_whole_count_of_another_type_gives_the_bits_of_the_int(function, name, least, call):
    want = pickle.dumps(call(3))
    for value in (3.0, np.int64(3)):
        assert pickle.dumps(call(value)) == want, value


def test_a_count_is_checked_once_per_call_not_once_per_draw(monkeypatch):
    # draw_count_matrix checks n at entry, and the seed and its first and
    # last replication by _seed, which takes the count rule first, and draws
    # its rows unchecked; isomorphism_check and calibrate_c0 check their
    # counts once, in _net_size, and hand them to _gamma, which checks none
    checked = []
    whole = model._whole

    def counted(value, name, least=None):
        checked.append(name)
        return whole(value, name, least)

    for module in (model, localization):
        monkeypatch.setattr(module, "_whole", counted)
    localization._rep_counts.cache_clear()
    localization._dataset_levels.cache_clear()
    model.draw_count_matrix(PROBLEM, 16, 0, range(5))
    assert checked == ["sample size", "seed", "replication", "replication"]
    checked.clear()
    _check(reps=5, rep_offset=7)
    keys = ["replication", "replication", "sample size", "seed", "seed"]
    assert sorted(checked) == sorted(["n", "rep_offset", "reps", *keys])
    checked.clear()
    _calibrate(reps=5)
    assert sorted(checked) == sorted(["n", "reps", *keys])


# (function, the function called with its seed set to a value)
SEEDS = [
    ("sample", lambda v: model.sample(PROBLEM, 8, v)),
    ("draw_count_matrix", lambda v: model.draw_count_matrix(PROBLEM, 8, v, range(2))),
    ("make_problem", lambda v: make_problem("outside-hull", K=3, M=4, b=1.0, seed=v)),
    ("sparsify_random", lambda v: sparsify.sparsify_random(WEIGHTS, 2, v)),
    ("random_net_segments", lambda v: _segments(seed=v)),
    ("localized_sup", lambda v: _sup(seed=v)),
    ("isomorphism_check", lambda v: _check(seed=v)),
    ("calibrate_c0", lambda v: _calibrate(seed=v)),
]


@pytest.mark.parametrize("function, call", SEEDS, ids=[function for function, _ in SEEDS])
def test_a_bool_seed_or_one_outside_a_key_word_is_refused_by_name(function, call):
    # True used to run as seed 1; the localization functions check the seed
    # before their caches, where a draw of seed 1 would answer for True
    call(1)
    refusals = [
        (True, "seed must be a number, not the bool True"),
        (np.True_, f"seed must be a number, not the bool {np.True_!r}"),
        (2.5, "seed must be whole, found 2.5"),
        ("3", "seed must be whole, found '3'"),
        (None, "seed must be whole, found None"),
        (-1, "seed must lie in [0, 2**64), found -1"),
        (2**64, f"seed must lie in [0, 2**64), found {2**64}"),
    ]
    for value, message in refusals:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == message, value


@pytest.mark.parametrize("function, call", SEEDS, ids=[function for function, _ in SEEDS])
def test_a_seed_of_another_integer_type_gives_the_bits_of_the_int(function, call):
    want = pickle.dumps(call(3))
    for value in (3.0, np.int64(3), np.uint64(3)):
        assert pickle.dumps(call(value)) == want, value


# (function, the argument's name, whether the range is open at 0, whether
# it ends at 1 (or runs to infinity), the function called with the argument
# set to a value); 1 lies in every range
REALS = [
    ("SolverConfig", "tolerance", True, False, lambda v: SolverConfig(tolerance=v)),
    ("ExperimentConfig", "bound_b", True, False, lambda v: _config(bound_b=v)),
    ("ExperimentConfig", "noise", False, True, lambda v: _config(noise=v)),
    ("ExperimentConfig", "x_levels", False, False, lambda v: _config(x_levels=(2.0, v))),
    ("make_problem", "b", True, False, lambda v: make_problem("outside-hull", K=3, M=4, b=v, seed=0)),
    ("make_problem", "noise", False, True, lambda v: make_problem("outside-hull", K=3, M=4, b=1.0, seed=0, noise=v)),
    (
        "DiscreteProblem",
        "bound_b",
        False,
        False,
        lambda v: model.DiscreteProblem(PROBLEM.x_indices, PROBLEM.y_values, PROBLEM.probabilities, bound_b=v),
    ),
    ("LocalizedClass", "level_lambda", True, False, lambda v: localization.LocalizedClass(SEGMENT, v)),
    ("isomorphism_check", "x", False, False, lambda v: _check(x=v)),
    ("isomorphism_check", "c0", False, False, lambda v: _check(c0=v)),
    ("calibrate_c0", "x", False, False, lambda v: _calibrate(x_levels=(2.0, v))),
    ("calibrate_c0", "target_scale", True, True, lambda v: _calibrate(target_scale=v)),
]
REAL_IDS = [f"{function}-{name}" for function, name, _, _, _ in REALS]


@pytest.mark.parametrize("function, name, positive, unit, call", REALS, ids=REAL_IDS)
def test_a_real_that_is_not_a_number_or_outside_its_range_is_refused_by_name(function, name, positive, unit, call):
    if unit:
        rule = f"lie in {'(' if positive else '['}0, 1]"
    else:
        rule = "be positive and finite" if positive else "be finite and nonnegative"
    refusals = [
        (True, f"{name} must be a number, not the bool True"),
        (np.True_, f"{name} must be a number, not the bool {np.True_!r}"),
        ("1", f"{name} must be a real number, found '1'"),
        (None, f"{name} must be a real number, found None"),
    ]
    # NaN, both infinities, and the floats next to each end of the range
    below = 0.0 if positive else -math.ulp(0.0)
    above = math.nextafter(1.0, math.inf) if unit else math.inf
    for value in (math.nan, math.inf, -math.inf, below, above):
        refusals.append((value, f"{name} must {rule}, found {value!r}"))
    for value, message in refusals:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == message, value


@pytest.mark.parametrize("function, name, positive, unit, call", REALS, ids=REAL_IDS)
def test_a_real_of_another_type_gives_the_bits_of_the_float(function, name, positive, unit, call):
    want = pickle.dumps(call(1.0))
    for value in (1, np.int64(1), np.float64(1.0)):
        assert pickle.dumps(call(value)) == want, value


def test_a_real_is_checked_once_where_its_function_is_entered(monkeypatch):
    # _gamma and calibrate_c0's ulp-by-ulp search check nothing
    checked = []
    real = model._real

    def counted(value, name, positive=False, unit=False):
        checked.append(name)
        return real(value, name, positive, unit)

    monkeypatch.setattr(localization, "_real", counted)
    _check(x=2.0, c0=0.5)
    assert sorted(checked) == ["c0", "x"]
    checked.clear()
    _calibrate(x_levels=(2.0, 3.0), target_scale=0.5)
    assert sorted(checked) == ["target_scale", "x", "x"]
