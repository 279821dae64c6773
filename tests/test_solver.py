import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvxagg.model import Dictionary, DiscreteProblem, SampleSet, Segment, SimplexWeights, combine
from cvxagg.risk import empirical_risk, population_risk
from cvxagg.solver import (
    SolverConfig,
    erm_constrained,
    erm_convex_hull,
    erm_oracle,
    erm_segment,
    project_box,
    project_simplex,
    simplex_grid,
)

from _support import random_dictionary, random_problem


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)


def test_erm_hull_clamped_mean_example():
    d = Dictionary(np.array([[0.0], [1.0]]))
    s = SampleSet(np.zeros(4, dtype=int), np.array([0.0, 1.0, 1.0, 1.0]), seed=0)
    sol = erm_convex_hull(d, s)
    assert sol.weights.weights == pytest.approx([0.25, 0.75], abs=1e-9)
    assert sol.empirical_risk == pytest.approx(0.1875, abs=1e-12)
    assert sol.converged
    assert sol.duality_gap <= 1e-8


def test_erm_hull_interpolating_vertex():
    # second row reproduces the sample exactly, so it is the minimizer
    d = Dictionary(np.array([[0.0, 0.0], [0.5, -0.5]]))
    s = SampleSet(np.array([0, 1, 0]), np.array([0.5, -0.5, 0.5]), seed=0)
    sol = erm_convex_hull(d, s)
    assert sol.empirical_risk == pytest.approx(0.0, abs=1e-15)
    assert sol.weights.weights == pytest.approx([0.0, 1.0], abs=1e-9)


def test_erm_hull_single_function():
    d = Dictionary(np.array([[0.25, -0.3]]))
    s = SampleSet(np.array([0, 1]), np.array([0.9, 0.1]), seed=0)
    sol = erm_convex_hull(d, s)
    assert sol.weights.weights == pytest.approx([1.0])
    assert sol.converged


def test_erm_hull_deterministic_repeat():
    rng = np.random.default_rng(101)
    p = random_problem(rng, K=4)
    d = random_dictionary(rng, M=6, K=4)
    from cvxagg.model import sample

    s = sample(p, 64, seed=5)
    a = erm_convex_hull(d, s)
    b = erm_convex_hull(d, s)
    assert np.array_equal(a.weights.weights, b.weights.weights)
    assert a.empirical_risk == b.empirical_risk
    assert a.iterations == b.iterations


def test_erm_hull_history_monotone():
    rng = np.random.default_rng(13)
    p = random_problem(rng, K=5)
    d = random_dictionary(rng, M=8, K=5)
    from cvxagg.model import sample

    s = sample(p, 128, seed=3)
    sol = erm_convex_hull(d, s, record_history=True)
    hist = np.array(sol.history)
    assert np.all(np.diff(hist) <= 1e-15)


def test_erm_hull_risk_consistent_with_risk_module():
    rng = np.random.default_rng(17)
    p = random_problem(rng, K=3)
    d = random_dictionary(rng, M=4, K=3)
    from cvxagg.model import sample

    s = sample(p, 50, seed=9)
    sol = erm_convex_hull(d, s)
    direct = empirical_risk(combine(d, sol.weights), s)
    assert sol.empirical_risk == pytest.approx(direct, abs=1e-12)


def test_erm_hull_nonconvergence_is_flagged():
    rng = np.random.default_rng(21)
    p = random_problem(rng, K=4)
    d = random_dictionary(rng, M=6, K=4)
    from cvxagg.model import sample

    s = sample(p, 64, seed=11)
    sol = erm_convex_hull(d, s, SolverConfig(max_iterations=1, tolerance=1e-16))
    assert not sol.converged
    assert sol.duality_gap >= 0.0


def test_erm_hull_never_reads_bound_b():
    # a problem-like stub without bound_b must be accepted at population level
    rng = np.random.default_rng(31)
    d = random_dictionary(rng, M=3, K=2)
    stub = types.SimpleNamespace(
        x_indices=np.array([0, 0, 1, 1]),
        y_values=np.array([0.5, -0.5, 0.25, -0.25]),
        probabilities=np.array([0.25, 0.25, 0.25, 0.25]),
        num_design_points=2,
    )
    sol = erm_convex_hull(d, stub)
    assert sol.converged


def test_erm_oracle_matches_fw_and_guards():
    rng = np.random.default_rng(37)
    from cvxagg.model import sample

    for _ in range(10):
        M = int(rng.integers(2, 5))
        p = random_problem(rng, K=3)
        d = random_dictionary(rng, M=M, K=3)
        s = sample(p, 30, seed=int(rng.integers(1e9)))
        fw = erm_convex_hull(d, s)
        grid = erm_oracle(d, s, 25)
        assert fw.empirical_risk <= grid.empirical_risk + 1e-6
        assert grid.empirical_risk <= fw.empirical_risk + 4.0 * M / 25 + 1e-12
    with pytest.raises(ValueError):
        erm_oracle(random_dictionary(rng, M=5, K=3), s, 10)


def test_erm_oracle_vertex_resolution():
    d = Dictionary(np.array([[0.0], [1.0]]))
    s = SampleSet(np.zeros(3, dtype=int), np.array([1.0, 1.0, 1.0]), seed=0)
    sol = erm_oracle(d, s, 4)
    assert sol.weights.weights == pytest.approx([0.0, 1.0])
    assert sol.empirical_risk == 0.0


def test_simplex_grid_counts():
    assert simplex_grid(1, 7).shape == (1, 1)
    grid = simplex_grid(3, 4)
    assert grid.shape[0] == 15  # C(4 + 2, 2)
    assert np.allclose(grid.sum(axis=1), 1.0)
    assert grid.min() >= 0.0


def test_erm_segment_degenerate_theta_zero():
    seg = Segment(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    p = DiscreteProblem(np.array([0, 1]), np.array([0.1, 0.2]), np.array([0.5, 0.5]), 1.0)
    theta, minimizer = erm_segment(seg, p)
    assert theta == 0.0
    assert np.array_equal(minimizer, seg.endpoint_j)


def test_erm_segment_interior_optimum():
    seg = Segment(np.array([0.0]), np.array([1.0]))
    p = DiscreteProblem(np.array([0]), np.array([0.3]), np.array([1.0]), 1.0)
    theta, minimizer = erm_segment(seg, p)
    assert theta == pytest.approx(0.7)
    assert minimizer == pytest.approx([0.3])


def test_erm_segment_clamps_outside_optimum():
    seg = Segment(np.array([0.0]), np.array([1.0]))
    p = DiscreteProblem(np.array([0]), np.array([2.0]), np.array([1.0]), 2.0)
    theta, minimizer = erm_segment(seg, p)
    assert theta == 0.0
    assert minimizer == pytest.approx([1.0])


def test_erm_segment_matches_grid_scan():
    rng = np.random.default_rng(41)
    from cvxagg.model import sample

    p = random_problem(rng, K=3)
    seg = Segment(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    s = sample(p, 40, seed=2)
    theta, minimizer = erm_segment(seg, s)
    thetas = np.linspace(0, 1, 100_001)
    risks = np.array([empirical_risk(seg.at(t), s) for t in thetas[:: len(thetas) // 200]])
    best = risks.min()
    assert empirical_risk(minimizer, s) <= best + 1e-10


def test_erm_segment_shift_invariance():
    rng = np.random.default_rng(43)
    p = random_problem(rng, K=3, b=1.0)
    gi = rng.uniform(-0.5, 0.5, 3)
    gj = rng.uniform(-0.5, 0.5, 3)
    h = rng.uniform(-0.5, 0.5, 3)
    theta1, _ = erm_segment(Segment(gi, gj), p)
    shifted = DiscreteProblem(
        p.x_indices, p.y_values + h[p.x_indices], p.probabilities, bound_b=2.0
    )
    theta2, _ = erm_segment(Segment(gi + h, gj + h), shifted)
    assert theta1 == pytest.approx(theta2, abs=1e-12)


def test_erm_constrained_singleton():
    rng = np.random.default_rng(47)
    p = random_problem(rng, K=2)
    d = random_dictionary(rng, M=3, K=2)
    point = np.array([0.2, 0.3, 0.5])
    sol = erm_constrained(d, p, project=lambda v: point)
    assert np.allclose(sol.coefficients, point)
    assert sol.converged


def test_erm_constrained_box_separable_closed_form():
    # disjoint supports make the objective separable per coordinate
    d = Dictionary(np.array([[1.0, 0.0], [0.0, 1.0]]))
    s = SampleSet(np.array([0, 0, 1, 1]), np.array([0.4, 0.6, 1.5, 1.7]), seed=0)
    sol = erm_constrained(d, s, project=lambda v: project_box(v, 0.0, 1.0))
    assert sol.coefficients == pytest.approx([0.5, 1.0], abs=1e-8)


def test_erm_constrained_simplex_agrees_with_hull_solver():
    rng = np.random.default_rng(53)
    from cvxagg.model import sample

    p = random_problem(rng, K=3)
    d = random_dictionary(rng, M=4, K=3)
    s = sample(p, 60, seed=8)
    cfg = SolverConfig(tolerance=1e-10)
    fw = erm_convex_hull(d, s, cfg)
    pg = erm_constrained(d, s, project=project_simplex, config=cfg)
    assert pg.risk == pytest.approx(fw.empirical_risk, abs=2e-10)


def test_project_simplex_examples():
    assert project_simplex(np.array([2.0, 0.0])).weights == pytest.approx([1.0, 0.0])
    assert project_simplex(np.array([0.6, 0.6])).weights == pytest.approx([0.5, 0.5])
    fixed = np.array([0.25, 0.75])
    assert np.array_equal(project_simplex(fixed).weights, fixed)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=6))
def test_project_simplex_idempotent_and_optimal(values):
    v = np.asarray(values)
    w = project_simplex(v).weights
    assert abs(w.sum() - 1.0) <= 1e-9
    assert w.min() >= 0.0
    again = project_simplex(w).weights
    assert np.allclose(w, again, atol=1e-12)
    # no random simplex point may be closer to v than the projection
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = rng.dirichlet(np.ones(v.size))
        assert np.sum((v - w) ** 2) <= np.sum((v - q) ** 2) + 1e-9


def test_project_box():
    out = project_box(np.array([-1.0, 0.5, 2.0]), 0.0, 1.0)
    assert out == pytest.approx([0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        project_box(np.array([0.0]), 1.0, 0.0)
