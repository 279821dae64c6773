import math

import numpy as np
import pytest

from cvxagg.model import Dictionary, DiscreteProblem, SimplexWeights, combine
from cvxagg.risk import population_risk, variance_term
from cvxagg.sparsify import (
    choose_m,
    enumerate_net,
    expected_sparsified_risk,
    net_approximation_gap,
    net_cardinality_bound,
    sparsify_random,
)

from _support import enumerated_sparsified_risk, random_dictionary, random_problem, random_weights


def two_constant_setup():
    d = Dictionary(np.array([[0.0], [1.0]]))
    p = DiscreteProblem(np.array([0]), np.array([0.5]), np.array([1.0]), 1.0)
    return d, p


def test_choose_m_reference_values():
    assert choose_m(10_000, 1000) == 56
    assert choose_m(1, 2) == 1


def test_choose_m_near_boundary_tracks_sqrt_n():
    # just past the boundary the log factor is ~1, so m is about sqrt(n)
    assert choose_m(100, 11) == 10
    assert choose_m(10, 4) == 3


def test_choose_m_rejects_small_dictionaries():
    with pytest.raises(ValueError):
        choose_m(100, 10)
    with pytest.raises(ValueError):
        choose_m(100, 9)
    with pytest.raises(ValueError):
        choose_m(0, 5)


def test_enumerate_net_m3_k2():
    d = Dictionary(np.zeros((3, 1)))
    net = enumerate_net(d, 2)
    assert [ms.indices for ms in net] == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def test_enumerate_net_sizes():
    d1 = Dictionary(np.zeros((1, 1)))
    assert len(enumerate_net(d1, 5)) == 1
    d2 = Dictionary(np.zeros((2, 1)))
    assert len(enumerate_net(d2, 3)) == 4
    with pytest.raises(ValueError):
        enumerate_net(Dictionary(np.zeros((50, 1))), 10)  # C(59, 10) > DEFAULT_NET_CAP


def test_net_cardinality_bound_values():
    exact, bound = net_cardinality_bound(3, 2)
    assert exact == 6
    assert bound == pytest.approx((3 * math.e) ** 2, rel=1e-12)
    exact, bound = net_cardinality_bound(1, 1)
    assert exact == 1
    assert bound == pytest.approx(2 * math.e, rel=1e-12)
    exact, bound = net_cardinality_bound(50, 10)
    assert exact == 62_828_356_305
    assert bound == pytest.approx((10 * math.e) ** 10, rel=1e-9)
    assert exact <= bound


def test_net_cardinality_bound_dominates_where_it_can():
    # the (2eM/m)^m bound is a theorem only for m <= M + 1: past that it can
    # drop below the exact count (e.g. M=1, m=6 gives bound ~0.55 < 1), and
    # the function's internal consistency assert refuses those inputs
    failures = set()
    for M in range(1, 51):
        for m in range(1, 11):
            try:
                exact, bound = net_cardinality_bound(M, m)
            except ArithmeticError:
                failures.add((M, m))
                continue
            assert exact <= bound
    assert failures == {(1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (2, 9), (2, 10)}
    assert all(m > M + 1 for M, m in failures)


def test_sparsify_random_vertex_and_reproducibility():
    w = SimplexWeights(np.array([0.0, 1.0, 0.0]))
    ms = sparsify_random(w, 5, seed=3)
    assert ms.indices == (1, 1, 1, 1, 1)
    u = SimplexWeights(np.array([0.3, 0.3, 0.4]))
    assert sparsify_random(u, 7, seed=9).indices == sparsify_random(u, 7, seed=9).indices
    assert sparsify_random(u, 1, seed=0).m == 1


def test_sparsified_risk_reference_binomial_case():
    d, p = two_constant_setup()
    w = SimplexWeights(np.array([0.5, 0.5]))
    assert expected_sparsified_risk(w, 4, d, p) == pytest.approx(0.0625, abs=1e-15)


def test_sparsified_risk_vertex_is_flat_in_m():
    rng = np.random.default_rng(2)
    p = random_problem(rng, K=3)
    d = random_dictionary(rng, M=3, K=3)
    w = SimplexWeights(np.eye(3)[1])
    base = population_risk(combine(d, w), p)
    for m in (1, 2, 5, 17):
        assert expected_sparsified_risk(w, m, d, p) == pytest.approx(base, abs=1e-15)


def test_sparsified_risk_matches_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = random_problem(rng, K=3)
        d = random_dictionary(rng, M=3, K=3)
        w = random_weights(rng, 3)
        lhs = expected_sparsified_risk(w, 3, d, p)
        rhs = enumerated_sparsified_risk(w, 3, d, p)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sparsified_risk_monotone_with_exact_rate():
    rng = np.random.default_rng(8)
    p = random_problem(rng, K=4)
    d = random_dictionary(rng, M=4, K=4)
    w = random_weights(rng, 4)
    base = population_risk(combine(d, w), p)
    vt = variance_term(w, d, p)
    values = [expected_sparsified_risk(w, m, d, p) for m in (1, 2, 4, 8, 16)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    for m, val in zip((1, 2, 4, 8, 16), values):
        assert val - base == pytest.approx(vt / m, abs=1e-15)


def test_sparsify_random_mean_matches_identity():
    # Monte Carlo average of sparsified risks converges to the exact identity
    rng = np.random.default_rng(12)
    p = random_problem(rng, K=3)
    d = random_dictionary(rng, M=3, K=3)
    w = random_weights(rng, 3)
    m = 4
    draws = np.random.default_rng(99).choice(3, size=(100_000, m), p=w.weights)
    averaged = d.values[draws].mean(axis=1)  # (reps, K)
    resid = p.y_values[None, :] - averaged[:, p.x_indices]
    risks = (resid * resid) @ p.probabilities
    exact = expected_sparsified_risk(w, m, d, p)
    se = risks.std(ddof=1) / math.sqrt(risks.size)
    assert abs(risks.mean() - exact) <= 3 * se


def test_net_gap_zero_when_regression_is_a_vertex():
    d = Dictionary(np.array([[0.25, -0.5], [0.8, 0.1]]))
    p = DiscreteProblem(np.array([0, 1]), np.array([0.25, -0.5]), np.array([0.5, 0.5]), 1.0)
    assert net_approximation_gap(d, p, m=3) == 0.0


def test_net_gap_two_point_problem_closed_form():
    # hull optimum sits at weight 1/2; the net hits it exactly for even m and
    # misses by 1/(2m) for odd m, so the gap is 0 or 1/(4 m^2)
    d, p = two_constant_setup()
    for m in (2, 4):
        assert net_approximation_gap(d, p, m=m) == pytest.approx(0.0, abs=1e-15)
    for m in (1, 3, 5):
        assert net_approximation_gap(d, p, m=m) == pytest.approx(1 / (4 * m * m), abs=1e-12)
        assert net_approximation_gap(d, p, m=m) <= 0.25 / m


def test_net_gap_random_problems_within_variance_ceiling():
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = random_problem(rng, K=3)
        d = random_dictionary(rng, M=3, K=3)
        m = int(rng.integers(1, 5))
        gap = net_approximation_gap(d, p, m=m)
        assert gap >= 0.0
        assert gap <= 4.0 / m  # b = 1
