"""The design rule: every entry point that evaluates a tabulated function,
dictionary or segment on data goes through `model._fits` once, where its
function is entered.

A problem takes exactly its K values, so no value is silently ignored: K - 1
and K + 1 are refused by a ValueError naming what was given, its size and
the problem's K.  Any other measure, a sample, need not hit every design
point, so it takes any size past its largest x index, and a size at or
below that index is refused by the same rule, naming the index.
"""

import numpy as np
import pytest

from cvxagg import localization, model, risk, solver, sparsify
from cvxagg.experiments import make_problem, population_oracle

PROBLEM, _ = make_problem("outside-hull", K=5, M=3, b=1.0, seed=0)
K = PROBLEM.num_design_points
# a sample whose largest x index is K - 2: design point K - 1 is never drawn
SAMPLE = model.SampleSet([0, 1, 3, 1], [0.1, -0.2, 0.3, 0.4], [2, 1, 1, 3], seed=0)
LARGEST = int(SAMPLE.x_indices.max())
M = 3


def _values(size: int, rows: int = 1) -> np.ndarray:
    return np.random.default_rng(size).uniform(-1.0, 1.0, size=(rows, size))


def _dictionary(size: int) -> model.Dictionary:
    return model.Dictionary(_values(size, M))


def _segment(size: int) -> model.Segment:
    return model.Segment(*_values(size, 2))


WEIGHTS = model.SimplexWeights(np.full(M, 1.0 / M))


# (entry point, what its message calls the tabulated thing, whether it takes
# a sample, the entry point called with a thing of a size on data);
# expected_sparsified_risk checks its dictionary on entry, before either risk
ENTRIES = [
    ("empirical_risk", "a function", True, lambda size, data: risk.empirical_risk(_values(size)[0], data)),
    ("population_risk", "a function", True, lambda size, data: risk.population_risk(_values(size)[0], data)),
    ("erm_convex_hull", "a dictionary row", True, lambda size, data: solver.erm_convex_hull(_dictionary(size), data)),
    (
        "erm_convex_hull_blocks",
        "a dictionary row",
        True,
        lambda size, data: solver.erm_convex_hull_blocks([(_dictionary(size), data, data.probabilities[None, :])]),
    ),
    ("population_oracle", "a dictionary row", True, lambda size, data: population_oracle(_dictionary(size), data)),
    ("erm_segment", "a segment", True, lambda size, data: solver.erm_segment(_segment(size), data)),
    (
        "variance_term",
        "a dictionary row",
        False,
        lambda size, data: risk.variance_term(WEIGHTS, _dictionary(size), data),
    ),
    (
        "expected_sparsified_risk",
        "a dictionary row",
        False,
        lambda size, data: sparsify.expected_sparsified_risk(WEIGHTS, 2, _dictionary(size), data),
    ),
    (
        "localized_sup",
        "a segment",
        False,
        lambda size, data: localization.localized_sup(localization.LocalizedClass(_segment(size), 0.1), data, 16, 3, 0),
    ),
    (
        "isomorphism_check",
        "a segment",
        False,
        lambda size, data: localization.isomorphism_check([_segment(size)], data, 16, 1.0, 1.0, 3, 0),
    ),
    (
        "calibrate_c0",
        "a segment",
        False,
        lambda size, data: localization.calibrate_c0([_segment(size)], data, 16, [2.0], 3, 0),
    ),
]
IDS = [entry for entry, _, _, _ in ENTRIES]
ON_SAMPLES = [row for row in ENTRIES if row[2]]


@pytest.mark.parametrize("entry, what, takes_sample, call", ENTRIES, ids=IDS)
def test_a_problem_takes_exactly_its_k_values(entry, what, takes_sample, call):
    # a K + 1 function, dictionary or segment used to pass the solvers and
    # empirical_risk with its last value ignored; K - 1 failed elsewhere,
    # each site with its own message
    call(K, PROBLEM)
    for size in (K - 1, K + 1):
        with pytest.raises(ValueError) as info:
            call(size, PROBLEM)
        assert str(info.value) == f"{what} of {size} values does not fit a problem of {K} design points", size


@pytest.mark.parametrize("entry, what, takes_sample, call", ON_SAMPLES, ids=[row[0] for row in ON_SAMPLES])
def test_a_sample_takes_any_size_past_its_largest_index(entry, what, takes_sample, call):
    assert LARGEST == K - 2
    for size in (K - 1, K):
        call(size, SAMPLE)
    for size in (LARGEST, LARGEST - 1):
        with pytest.raises(ValueError) as info:
            call(size, SAMPLE)
        assert str(info.value) == f"{what} of {size} values does not fit data reaching design point {LARGEST}", size


def test_a_problems_design_size_is_the_k_it_already_holds():
    # the rule reads a problem's K from its X marginal, with no pass over its atoms
    assert K == PROBLEM.marginal_x.size == int(PROBLEM.x_indices.max()) + 1 == 5
