import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvxagg.model import Dictionary, DiscreteProblem, SampleSet, Segment, SimplexWeights, combine, sample
from cvxagg.risk import empirical_risk, population_risk
from cvxagg.solver import SolverConfig, erm_convex_hull, erm_segment, simplex_grid

from _support import (
    erm_constrained,
    erm_oracle,
    exhaustive_sample,
    project_box,
    project_simplex,
    random_dictionary,
    random_problem,
)


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


@pytest.mark.parametrize(
    "config, reason",
    [
        (SolverConfig(), "gap"),
        (SolverConfig(max_iterations=1, tolerance=1e-16), "max_iterations"),
        # no gap reaches 1e-300, so the oracle ends up naming an active vertex
        (SolverConfig(tolerance=1e-300), "repeat_vertex"),
    ],
)
def test_erm_hull_reports_why_it_stopped(config, reason):
    rng = np.random.default_rng(0)
    p = random_problem(rng, K=8)
    d = random_dictionary(rng, M=20, K=8)
    sol = erm_convex_hull(d, sample(p, 64, seed=0), config)
    assert sol.stop_reason == reason
    assert sol.converged == (sol.duality_gap <= config.tolerance)
    # every iteration but a final certifying one adds a vertex and solves
    assert sol.kkt_solves >= sol.iterations - 1 >= 0


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
    # the second dictionary holds 20 functions on 5 design points, each twice,
    # so its Gram is rank deficient; the third sample has 6 pairs on 16 design
    # points, so most design points carry no mass
    rng = np.random.default_rng(53)
    cfg = SolverConfig(tolerance=1e-10)
    for K, M, copies, n, seed in ((3, 4, 1, 60, 8), (5, 20, 2, 80, 4), (16, 12, 1, 6, 2)):
        p = random_problem(rng, K=K)
        d = Dictionary(np.tile(random_dictionary(rng, M=M, K=K).values, (copies, 1)))
        s = sample(p, n, seed=seed)
        if n < K:
            assert np.unique(s.x_indices).size < K
        fw = erm_convex_hull(d, s, cfg)
        pg = erm_constrained(d, s, project=project_simplex, config=cfg)
        assert fw.converged
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


def _law_and_sample(rng, K=5, n=60):
    """A problem with atom masses in multiples of 1/n, and the n-pair sample
    whose empirical law it is."""
    # every atom has mass at least 1/n and the first exactly 1/n, which is
    # what exhaustive_sample needs to recover n
    counts = np.concatenate([[1], rng.multinomial(n - 2 * K, np.full(2 * K - 1, 1.0 / (2 * K - 1))) + 1])
    x = np.repeat(np.arange(K), 2)
    problem = DiscreteProblem(x, rng.uniform(-1, 1, 2 * K), counts / n, bound_b=1.0)
    return problem, exhaustive_sample(problem)


def test_sample_and_its_empirical_law_are_one_measure():
    rng = np.random.default_rng(59)
    for _ in range(10):
        p, s = _law_and_sample(rng)
        d = random_dictionary(rng, M=4, K=5)
        on_sample, on_law = erm_convex_hull(d, s), erm_convex_hull(d, p)
        assert np.allclose(on_sample.weights.weights, on_law.weights.weights, rtol=0.0, atol=1e-12)
        assert on_sample.empirical_risk == pytest.approx(on_law.empirical_risk, abs=1e-12)
        seg = Segment(d.row(0), d.row(1))
        assert erm_segment(seg, s)[0] == pytest.approx(erm_segment(seg, p)[0], abs=1e-12)


def test_hull_weights_ignore_row_order_and_duplication():
    rng = np.random.default_rng(61)
    for _ in range(10):
        p = random_problem(rng, K=5)
        d = random_dictionary(rng, M=4, K=5)
        s = sample(p, 60, seed=int(rng.integers(2**31)))
        w = erm_convex_hull(d, s).weights.weights
        order = rng.permutation(s.n)
        permuted = SampleSet(s.x_indices[order], s.y_values[order], seed=0)
        doubled = SampleSet(np.repeat(s.x_indices, 2), np.repeat(s.y_values, 2), seed=0)
        for other in (permuted, doubled):
            assert np.allclose(erm_convex_hull(d, other).weights.weights, w, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["sample", "problem"])
@pytest.mark.parametrize("solver", ["hull", "segment"])
def test_solvers_reject_out_of_range_design_indices(solver, kind):
    # the data has design points 0..2; the dictionary and the segment only 0..1
    x, y = np.array([0, 1, 2]), np.array([0.1, -0.2, 0.3])
    data = SampleSet(x, y, seed=0) if kind == "sample" else DiscreteProblem(x, y, np.full(3, 1 / 3), 1.0)
    d = Dictionary(np.array([[0.5, -0.5], [0.25, 0.0]]))
    with pytest.raises(ValueError, match="outside"):
        if solver == "hull":
            erm_convex_hull(d, data)
        else:
            erm_segment(Segment(d.row(0), d.row(1)), data)


def test_hull_solve_at_large_m_in_bounded_memory():
    # a dense M x M Gram alone would take 80 GB here; the design-space solver
    # keeps O(M K) arrays
    rng = np.random.default_rng(67)
    p = random_problem(rng, K=16)
    d = random_dictionary(rng, M=100_000, K=16)
    s = sample(p, 1024, seed=1)
    tracemalloc.start()
    try:
        sol = erm_convex_hull(d, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak < 64 * 2**20


@pytest.mark.parametrize("exponent", range(-6, 7))
def test_hull_solution_scales_with_the_data(exponent):
    # (F, y) -> (sF, sy) multiplies the risk by s^2 and leaves the minimizer,
    # so with the tolerance scaled alike the weights must not move
    scale = 10.0**exponent
    for seed in range(3):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, K=16)
        d = random_dictionary(rng, M=64, K=16)
        s = sample(p, 512, seed=seed)
        base = erm_convex_hull(d, s)
        scaled = erm_convex_hull(
            Dictionary(scale * d.values),
            SampleSet(s.x_indices, scale * s.y_values, seed=0),
            SolverConfig(tolerance=1e-8 * scale**2),
        )
        assert scaled.converged
        assert np.allclose(scaled.weights.weights, base.weights.weights, rtol=0.0, atol=1e-10)
        assert scaled.empirical_risk == pytest.approx(scale**2 * base.empirical_risk, rel=1e-10)
