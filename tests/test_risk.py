import numpy as np
import pytest

from cvxagg.model import Dictionary, DiscreteProblem, SimplexWeights, combine
from cvxagg.risk import (
    empirical_risk,
    excess_loss_mean,
    excess_loss_second_moment,
    population_risk,
    variance_term,
)
from cvxagg.solver import SolverConfig, erm_convex_hull

from _support import exhaustive_sample, pairs, random_dictionary, random_problem, random_weights


def coin_problem():
    # one design point, Y uniform on {0, 1}
    return DiscreteProblem(np.array([0, 0]), np.array([0.0, 1.0]), np.array([0.5, 0.5]), 1.0)


def test_population_risk_constant_variance_case():
    assert population_risk(np.array([0.5]), coin_problem()) == pytest.approx(0.25)


def test_population_risk_realizable_is_zero():
    p = DiscreteProblem(np.array([0, 1]), np.array([0.3, -0.7]), np.array([0.4, 0.6]), 1.0)
    f = np.array([0.3, -0.7])
    assert population_risk(f, p) == 0.0


def test_population_risk_deterministic_target():
    p = DiscreteProblem(np.array([0]), np.array([0.5]), np.array([1.0]), 1.0)
    assert population_risk(np.array([0.0]), p) == pytest.approx(0.25)


def test_population_risk_dimension_mismatch():
    with pytest.raises(ValueError):
        population_risk(np.array([0.0, 1.0]), coin_problem())


def test_empirical_risk_hand_sum():
    s = pairs(np.zeros(4, dtype=int), np.array([0.9, 0.7, 0.8, 0.6]))
    assert empirical_risk(np.array([0.75]), s) == pytest.approx(0.0125)


def test_empirical_risk_interpolation_and_single_point():
    s = pairs(np.array([0, 1]), np.array([0.2, -0.4]))
    assert empirical_risk(np.array([0.2, -0.4]), s) == 0.0
    one = pairs(np.array([0]), np.array([0.0]))
    assert empirical_risk(np.array([1.0]), one) == pytest.approx(1.0)


def test_empirical_matches_population_on_exhaustive_sample():
    p = DiscreteProblem(
        np.array([0, 0, 1, 1]),
        np.array([0.5, -0.5, 0.25, -1.0]),
        np.array([0.125, 0.25, 0.5, 0.125]),
        bound_b=1.0,
    )
    s = exhaustive_sample(p)
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = rng.uniform(-1, 1, size=2)
        assert empirical_risk(f, s) == pytest.approx(population_risk(f, p), abs=1e-12)


def test_population_risk_shift_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = random_problem(rng, K=3, b=1.0)
        f = rng.uniform(-1, 1, size=3)
        c = rng.uniform(-0.5, 0.5)
        shifted = DiscreteProblem(
            p.x_indices, p.y_values + c, p.probabilities, bound_b=p.bound_b + abs(c)
        )
        assert population_risk(f + c, shifted) == pytest.approx(population_risk(f, p), abs=1e-12)


def test_excess_loss_mean_examples():
    p = DiscreteProblem(np.array([0]), np.array([0.5]), np.array([1.0]), 1.0)
    f_star = np.array([0.5])
    assert excess_loss_mean(f_star, f_star, p) == 0.0
    assert excess_loss_mean(np.array([0.0]), f_star, p) == pytest.approx(0.25)


def test_excess_loss_noiseless_equals_squared_distance():
    # with Y = f*(X) exactly, the excess risk is the L2(P_X) distance squared
    rng = np.random.default_rng(7)
    x = np.arange(4)
    y = rng.uniform(-1, 1, size=4)
    probs = rng.dirichlet(np.ones(4))
    p = DiscreteProblem(x, y, probs / probs.sum(), bound_b=1.0)
    f_star = y.copy()
    for _ in range(5):
        f = rng.uniform(-1, 1, size=4)
        lhs = excess_loss_mean(f, f_star, p)
        rhs = float(p.probabilities @ (f[x] - f_star[x]) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_excess_loss_second_moment_examples():
    p = DiscreteProblem(np.array([0]), np.array([0.5]), np.array([1.0]), 1.0)
    f_star = np.array([0.5])
    assert excess_loss_second_moment(f_star, f_star, p) == 0.0
    assert excess_loss_second_moment(np.array([0.0]), f_star, p) == pytest.approx(0.0625)


def test_two_sided_excess_loss_inequalities_exact_sums():
    # E L_f >= E (f - f*)^2 and E L_f^2 <= (4b)^2 E (f - f*)^2 for hull members
    rng = np.random.default_rng(19)
    cfg = SolverConfig(tolerance=1e-12)
    for _ in range(20):
        b = float(rng.uniform(0.5, 2.0))
        p = random_problem(rng, K=3, b=b)
        d = random_dictionary(rng, M=3, K=3, b=b)
        f_star = combine(d, erm_convex_hull(d, p, cfg).weights)
        for _ in range(10):
            f = combine(d, random_weights(rng, 3))
            dist2 = float(p.probabilities @ (f[p.x_indices] - f_star[p.x_indices]) ** 2)
            assert excess_loss_mean(f, f_star, p) >= dist2 - 1e-10
            assert excess_loss_second_moment(f, f_star, p) <= 16 * b * b * dist2 + 1e-10


def test_variance_term_vertex_and_half_mix():
    d = Dictionary(np.array([[0.0], [1.0]]))
    p = coin_problem()
    assert variance_term(SimplexWeights(np.array([1.0, 0.0])), d, p) == 0.0
    assert variance_term(SimplexWeights(np.array([0.5, 0.5])), d, p) == pytest.approx(0.25)


def test_variance_term_bounded_by_4b2():
    rng = np.random.default_rng(23)
    for _ in range(20):
        b = float(rng.uniform(0.5, 2.0))
        p = random_problem(rng, K=4, b=b)
        d = random_dictionary(rng, M=5, K=4, b=b)
        w = random_weights(rng, 5)
        v = variance_term(w, d, p)
        assert 0.0 <= v <= 4 * b * b
