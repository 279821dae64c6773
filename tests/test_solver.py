import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvxagg.experiments import make_problem
from cvxagg.model import Dictionary, DiscreteProblem, SampleSet, Segment, SimplexWeights, combine, sample
from cvxagg import solver
from cvxagg.risk import empirical_risk, population_risk
from cvxagg.solver import (
    SolverConfig,
    _Face,
    _least_squares,
    _minimize_fw,
    erm_convex_hull,
    erm_convex_hull_batch,
    erm_segment,
)
from cvxagg.sparsify import enumerate_net

from _support import (
    erm_constrained,
    erm_oracle,
    exhaustive_sample,
    lstsq_minimize_fw,
    pairs,
    project_box,
    project_simplex,
    random_dictionary,
    random_problem,
)


def _blocks(datasets) -> list:
    """Each dataset as a block of one for `_least_squares`: its atoms and its
    probabilities as a one-row matrix."""
    return [(data, data.probabilities[None, :]) for data in datasets]


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    for tolerance in (math.inf, math.nan, -1e-8):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            SolverConfig(tolerance=tolerance)


def test_erm_hull_clamped_mean_example():
    d = Dictionary(np.array([[0.0], [1.0]]))
    s = pairs(np.zeros(4, dtype=int), np.array([0.0, 1.0, 1.0, 1.0]))
    sol = erm_convex_hull(d, s)
    assert sol.weights.weights == pytest.approx([0.25, 0.75], abs=1e-9)
    assert sol.empirical_risk == pytest.approx(0.1875, abs=1e-12)
    assert sol.converged
    assert sol.duality_gap <= 1e-8


def test_erm_hull_interpolating_vertex():
    # second row reproduces the sample exactly, so it is the minimizer
    d = Dictionary(np.array([[0.0, 0.0], [0.5, -0.5]]))
    s = pairs(np.array([0, 1, 0]), np.array([0.5, -0.5, 0.5]))
    sol = erm_convex_hull(d, s)
    assert sol.empirical_risk == pytest.approx(0.0, abs=1e-15)
    assert sol.weights.weights == pytest.approx([0.0, 1.0], abs=1e-9)


def test_erm_hull_single_function():
    d = Dictionary(np.array([[0.25, -0.3]]))
    s = pairs(np.array([0, 1]), np.array([0.9, 0.1]))
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
        # on this sample no gap reaches 1e-300 (asserted below), so the oracle
        # ends up naming an active vertex
        (SolverConfig(tolerance=1e-300), "repeat_vertex"),
    ],
)
def test_erm_hull_reports_why_it_stopped(config, reason):
    rng = np.random.default_rng(0)
    p = random_problem(rng, K=8)
    d = random_dictionary(rng, M=20, K=8)
    # the seed-0 sample ends the 1e-300 solve on an exact zero gap, so on "gap"
    sol = erm_convex_hull(d, sample(p, 64, seed=1), config)
    assert sol.stop_reason == reason
    assert sol.converged == (sol.duality_gap <= config.tolerance)
    if reason != "gap":
        assert sol.duality_gap > config.tolerance
    # every iteration but a final certifying one adds a vertex and solves
    assert sol.kkt_solves >= sol.iterations - 1 >= 0


def test_erm_hull_counts_its_drop_steps():
    # each added vertex costs one corrective solve, and each drop step one
    # more; the final iteration adds no vertex when it stops on the gap
    drops = []
    for seed in range(10):
        p, d = make_problem("outside-hull", K=16, M=64, b=1.0, seed=seed)
        sol = erm_convex_hull(d, sample(p, 256, seed=seed))
        additions = sol.iterations - (sol.stop_reason in ("gap", "repeat_vertex"))
        assert sol.kkt_solves == additions + sol.drop_steps
        drops.append(sol.drop_steps)
    assert min(drops) >= 0 and max(drops) > 0


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
    s = pairs(np.zeros(3, dtype=int), np.array([1.0, 1.0, 1.0]))
    sol = erm_oracle(d, s, 4)
    assert sol.weights.weights == pytest.approx([0.0, 1.0])
    assert sol.empirical_risk == 0.0


def test_simplex_grid_counts():
    # The hull grid erm_oracle searches: {0, 1/r, ..., 1}^M on the simplex.
    assert enumerate_net(1, 7).shape == (1, 1)
    grid = enumerate_net(3, 4)
    assert grid.shape == (15, 3)  # C(4 + 2, 2)
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
    s = pairs(np.array([0, 0, 1, 1]), np.array([0.4, 0.6, 1.5, 1.7]))
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
            assert np.unique(s.x_indices[s.counts > 0]).size < K
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
        order = rng.permutation(s.x_indices.size)
        permuted = SampleSet(s.x_indices[order], s.y_values[order], s.counts[order], seed=0)
        doubled = SampleSet(np.repeat(s.x_indices, 2), np.repeat(s.y_values, 2), np.repeat(s.counts, 2), seed=0)
        for other in (permuted, doubled):
            assert np.allclose(erm_convex_hull(d, other).weights.weights, w, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["sample", "problem"])
@pytest.mark.parametrize("solver", ["hull", "segment"])
def test_solvers_reject_out_of_range_design_indices(solver, kind):
    # the data has design points 0..2; the dictionary and the segment only 0..1
    x, y = np.array([0, 1, 2]), np.array([0.1, -0.2, 0.3])
    data = pairs(x, y) if kind == "sample" else DiscreteProblem(x, y, np.full(3, 1 / 3), 1.0)
    d = Dictionary(np.array([[0.5, -0.5], [0.25, 0.0]]))
    with pytest.raises(ValueError, match="outside"):
        if solver == "hull":
            erm_convex_hull(d, data)
        else:
            erm_segment(Segment(d.row(0), d.row(1)), data)


def test_hull_solve_at_large_m_in_bounded_memory():
    # a dense M x M Gram alone would take 80 GB here; the design-space solver
    # keeps O(M K) arrays, its face factor sized for min(K, M - 1) = 16 columns
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


def test_hull_solve_on_a_large_design_in_bounded_memory():
    # the corrective step's factor is sized for the largest face, min(K, M - 1)
    # = 5 columns, not for the K x K that K = 50 000 design points would take
    # (60 GB)
    rng = np.random.default_rng(73)
    p = random_problem(rng, K=50_000)
    d = random_dictionary(rng, M=6, K=50_000)
    s = sample(p, 200, seed=2)
    tracemalloc.start()
    try:
        sol = erm_convex_hull(d, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak < 32 * 2**20


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
            SampleSet(s.x_indices, scale * s.y_values, s.counts, seed=0),
            SolverConfig(tolerance=1e-8 * scale**2),
        )
        assert scaled.converged
        assert np.allclose(scaled.weights.weights, base.weights.weights, rtol=0.0, atol=1e-10)
        assert scaled.empirical_risk == pytest.approx(scale**2 * base.empirical_risk, rel=1e-10)


def _rep_data(face, b):
    """Rep b's vertex matrix A_b = F[which[b]] * root[b] and its target."""
    return face.F[face.which[b]] * face.root[b], face.target[b]


def _assert_face_matches_lstsq(face, b):
    """Rep b's corrective minimizer equals lstsq's on the same face, and is 0 past it."""
    A, target = _rep_data(face, b)
    rows = A[face.support(b)]
    z = np.linalg.lstsq((rows[1:] - rows[0]).T, target - rows[0], rcond=None)[0]
    expected = np.concatenate([[1.0 - z.sum()], z])
    got = face.minimizer(np.array([b]))[0]
    assert got.shape == (face.capacity + 1,) and not got[expected.size :].any()
    assert np.linalg.norm(got[: expected.size] - expected) <= 1e-10 * np.linalg.norm(expected)


def _assert_factor_is_current(face, b, tol=1e-12):
    """Q.T Q = I, D = Q R, T R = I and c = Q.T (target - a0) on rep b's current
    face, and every buffer entry past that face is 0.

    Nothing ever recomputes the factor, so these must hold after any run of
    appends and drops.  D and c are differences of vertices and the target,
    rounded at their scale, so they are compared relative to it.  The zero
    padding is what keeps the shapes of a rep's products the same in any
    batch.
    """
    A, target = _rep_data(face, b)
    k, C = face.k[b], face.capacity
    B = face.rows[b, :k]
    R, T, c, Q = B[:, :k], B[:, C : C + k].T, B[:, 2 * C], B[:, 2 * C + 1 :].T
    rows = A[face.support(b)]
    D, offset = (rows[1:] - rows[0]).T, target - rows[0]
    identity, scale = np.eye(k), np.linalg.norm(rows) + np.linalg.norm(target)
    assert np.array_equal(R, np.triu(R)) and np.array_equal(T, np.triu(T))
    assert np.linalg.norm(Q.T @ Q - identity) <= tol
    assert np.linalg.norm(D - Q @ R) <= tol * scale
    assert np.linalg.norm(T @ R - identity) <= tol * np.linalg.norm(T) * np.linalg.norm(R)
    assert np.linalg.norm(c - Q.T @ offset) <= tol * scale
    assert np.array_equal(face.offset[b], offset)
    assert not face.rows[b, k:].any()
    assert not face.rows[b, :, k:C].any() and not face.rows[b, :, C + k : 2 * C].any()


def _assert_mask_is_current(face, b):
    """Rep b's membership mask marks exactly its support."""
    assert np.array_equal(np.flatnonzero(face.active[b]), np.sort(face.support(b)))


def _append_checked(face, reps, s):
    """Append s[i] to rep reps[i]; a refused vertex must lie in the span of
    that rep's face differences and leave its membership mask as it was."""
    k, active = face.k[reps].copy(), face.active[reps].copy()
    taken = face.append(s, reps)
    for i, b in enumerate(reps.tolist()):
        if taken[i]:
            assert face.k[b] == k[i] + 1 and face.support(b)[-1] == s[i]
            _assert_mask_is_current(face, b)
        else:
            assert face.k[b] == k[i] and s[i] not in face.support(b)
            assert np.array_equal(face.active[b], active[i])
            A, _ = _rep_data(face, b)
            rows = A[face.support(b)]
            d = A[s[i]] - rows[0]
            if k[i]:
                D = (rows[1:] - rows[0]).T
                d = d - D @ np.linalg.lstsq(D, d, rcond=None)[0]
            assert np.linalg.norm(d) <= 1e-10 * np.linalg.norm(A[s[i]] - rows[0])


def _drop_positions(face, drops):
    """Drop, from each rep b in the dict, the support positions drops[b]."""
    mask = np.zeros((len(drops), face.capacity + 1), dtype=bool)
    for i, positions in enumerate(drops.values()):
        mask[i, positions] = True
    face.drop(np.array(list(drops)), mask)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 6),
    exponent=st.integers(-6, 6),
    zero_columns=st.booleans(),
    duplicate_rows=st.booleans(),
    moves=st.lists(st.lists(st.integers(-(2**12), 2**12), min_size=1, max_size=40), min_size=1, max_size=3),
)
# vertex 9 duplicates vertex 4, active after two base drops; its residual,
# 1.2 K eps, passed a cutoff of K eps and made the factor singular
@example(seed=20169, K=4, exponent=1, zero_columns=True, duplicate_rows=True, moves=[[0, 228, -1, 4, -1, 834]])
def test_face_factor_matches_lstsq_over_add_drop_sequences(
    seed, K, exponent, zero_columns, duplicate_rows, moves
):
    # each rep of one face runs its own sequence of moves: a nonnegative move
    # enters vertex move % M; a negative one drops the support positions named
    # by the bits of -move (position 0 is the base)
    rng = np.random.default_rng(seed)
    M, reps = 2 * K + 3, len(moves)
    F = rng.uniform(-1.0, 1.0, size=(M, K)) * 10.0**exponent
    if duplicate_rows:
        F[M // 2 :] = F[: M - M // 2]
    root = rng.uniform(0.5, 1.5, size=(reps, K))
    if zero_columns:
        root[:, : (K + 1) // 2] = 0.0  # design points the data gives no mass
    target = rng.uniform(-1.0, 1.0, size=(reps, K)) * 10.0**exponent
    face = _Face(F[None], np.zeros(reps, dtype=np.intp), root, target, rng.integers(M, size=reps))
    for b in range(reps):
        _assert_face_matches_lstsq(face, b)
        _assert_mask_is_current(face, b)
    for step in range(max(map(len, moves))):
        adds, drops = {}, {}
        for b, sequence in enumerate(moves):
            if step >= len(sequence):
                continue
            move = sequence[step]
            if move >= 0:
                if move % M not in face.support(b):
                    adds[b] = move % M
            else:
                n = len(face.support(b))
                positions = [i for i in range(n) if (-move >> i) & 1][: n - 1]
                if positions:
                    drops[b] = positions
        if adds:
            _append_checked(face, np.array(list(adds)), np.array(list(adds.values())))
        if drops:
            _drop_positions(face, drops)
        for b in range(reps):
            assert face.k[b] == len(face.support(b)) - 1
            _assert_mask_is_current(face, b)
            _assert_factor_is_current(face, b)
            _assert_face_matches_lstsq(face, b)


@pytest.mark.parametrize("case", ["base_deletion", "full_face", "zero_mass_columns", "duplicate_rows"])
def test_face_factor_cases(case):
    rng = np.random.default_rng(71)
    K, M, reps = 5, 12, 3
    F = rng.uniform(-1.0, 1.0, size=(M, K))
    root = rng.uniform(0.5, 1.5, size=(reps, K))
    if case == "zero_mass_columns":
        root[:, [1, 3]] = 0.0
    if case == "duplicate_rows":
        F[6:] = F[:6]
    target = rng.uniform(-1.0, 1.0, size=(reps, K))
    face = _Face(F[None], np.zeros(reps, dtype=np.intp), root, target, np.zeros(reps, dtype=np.intp))
    every = np.arange(reps)
    for s in range(1, M):
        _append_checked(face, every, np.full(reps, s))
        for b in every:
            _assert_face_matches_lstsq(face, b)
    rank = {"zero_mass_columns": K - 2}.get(case, K)
    for b in every:
        assert face.k[b] == rank  # the face spans the rank of A, and nothing more enters
        if case == "duplicate_rows":
            assert not set(face.support(b)) & set(range(6, M))
        _assert_factor_is_current(face, b)
    # each rep drops its own positions in two batched drops; rep 0 drops the
    # base vertex with another, rep 1 drops the base alone on its second drop
    sequences = {0: ([0, 2], [1]), 1: ([1, 3], [0]), 2: ([2], [0, 1])}
    supports = {b: face.support(b).tolist() for b in every}
    support = supports[0]
    for turn, expected in enumerate((support[1:2] + support[3:], support[1:2] + support[4:])):
        _drop_positions(face, {b: sequences[b][turn] for b in every})
        assert face.support(0).tolist() == expected
        for b in every:
            supports[b] = [j for i, j in enumerate(supports[b]) if i not in sequences[b][turn]]
            assert face.support(b).tolist() == supports[b]
            _assert_mask_is_current(face, b)
            _assert_factor_is_current(face, b)
            _assert_face_matches_lstsq(face, b)


@pytest.mark.parametrize(
    "kind, K, M, n, seeds",
    [
        ("outside-hull", 16, 64, 256, range(20)),
        ("outside-hull", 128, 512, 1024, range(3)),
        # faces of about 50 vertices, with drops, three of them of the base
        # vertex, and two in the batch of both samples of the seed-0 problem
        ("inside-hull", 64, 256, 1024, range(2)),
    ],
)
def test_hull_solver_follows_the_lstsq_reference(kind, K, M, n, seeds):
    # the updated factor replaces a fresh lstsq per corrective step; the
    # iterates must not move, for a sample solved alone or in a batch of
    # samples of one problem
    def follows(sol, d, s):
        (root,), (target,) = _least_squares(d.num_design_points, _blocks([s]))
        support, u, gap, iterations, stop_reason, kkt_solves, drop_steps = lstsq_minimize_fw(
            d.values * root, target, SolverConfig()
        )
        w = np.zeros(M)
        w[support] = u
        assert (sol.iterations, sol.stop_reason) == (iterations, stop_reason)
        assert (sol.kkt_solves, sol.drop_steps) == (kkt_solves, drop_steps)
        assert np.abs(sol.weights.weights - w).max() <= 1e-12
        assert sol.duality_gap == pytest.approx(gap, rel=0.0, abs=1e-12)

    for seed in seeds:
        p, d = make_problem(kind, K=K, M=M, b=1.0, seed=seed)
        s = sample(p, n, seed=seed)
        follows(erm_convex_hull(d, s), d, s)
    p, d = make_problem(kind, K=K, M=M, b=1.0, seed=0)
    samples = [sample(p, n, seed=seed) for seed in seeds]
    for sol, s in zip(erm_convex_hull_batch([d] * len(samples), samples), samples):
        follows(sol, d, s)


def test_a_vertex_spanned_by_the_face_ends_the_solve():
    # noiseless labels at a hull point of a K=3 design: the optimal face
    # spans all of R^3, so with no reachable tolerance the oracle's next
    # vertex is numerically dependent on it and the solve stops there
    rng = np.random.default_rng(0)
    K, M = 3, 12
    d = Dictionary(rng.uniform(-1.0, 1.0, size=(M, K)))
    regression = rng.dirichlet(np.ones(M)) @ d.values
    p = DiscreteProblem(np.arange(K), regression, np.full(K, 1.0 / K), 1.0)
    sol = erm_convex_hull(d, p, SolverConfig(tolerance=1e-300))
    assert sol.stop_reason == "repeat_vertex"
    assert np.count_nonzero(sol.weights.weights) <= K + 1
    assert sol.empirical_risk <= 1e-30
    assert sol.duality_gap <= 1e-15


def _solve_key(solve):
    """A rep's solve as bytes and numbers, so that == compares every bit."""
    support, u, gap, iterations, stop_reason, kkt_solves, drop_steps = solve
    return (support.tobytes(), u.tobytes(), float(gap).hex(), iterations, stop_reason, kkt_solves, drop_steps)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["inside-hull", "outside-hull", "pure-noise"]),
    K=st.sampled_from([1, 2, 3, 4, 5, 6, 16, 256]),
    M=st.sampled_from([1, 2, 3, 8, 17, 64, 512]),
    n=st.sampled_from([4, 256, 4096]),
    reps=st.integers(1, 5),
    exponent=st.integers(-6, 6),
    duplicate_rows=st.booleans(),
    stopping=st.sampled_from(["gap", "cap", "tiny tolerance"]),
)
def test_a_reps_solve_does_not_depend_on_its_batch(seed, kind, K, M, n, reps, exponent, duplicate_rows, stopping):
    # a rep's weights, gap, iterations, stop reason and counters have the same
    # bits alone, in a permuted, sliced or duplicated batch, and from
    # non-contiguous inputs; the reps are samples of one problem, as in a
    # rate-grid cell, and n = 4 leaves design points with zero mass
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    p, d = make_problem(kind, K=K, M=M, b=1.0, seed=seed)
    F = scale * d.values
    if duplicate_rows:
        F[M // 2 :] = F[: M - M // 2]
    root, target = _least_squares(K, _blocks(sample(p, n, seed=seed + r) for r in range(reps)))
    target = scale * target
    config = {
        "gap": SolverConfig(tolerance=1e-8 * scale**2),
        "cap": SolverConfig(max_iterations=int(rng.integers(1, 4)), tolerance=1e-8 * scale**2),
        "tiny tolerance": SolverConfig(tolerance=1e-300),
    }[stopping]

    def fw(F, root, target):
        return _minimize_fw(F[None], np.zeros(len(root), dtype=np.intp), root, target, config)

    alone = [_solve_key(fw(F, root[r : r + 1], target[r : r + 1])[0]) for r in range(reps)]
    whole = [_solve_key(solve) for solve in fw(F, root, target)]
    assert whole == alone
    order = rng.permutation(reps)
    assert [_solve_key(x) for x in fw(F, root[order], target[order])] == [alone[r] for r in order]
    lo, hi = sorted(rng.integers(0, reps + 1, size=2))
    assert [_solve_key(x) for x in fw(F, root[lo:hi], target[lo:hi])] == alone[lo:hi]
    repeats = rng.integers(0, reps, size=reps + 3)
    assert [_solve_key(x) for x in fw(F, root[repeats], target[repeats])] == [alone[r] for r in repeats]
    strided_root, strided_target = np.zeros((reps, 2 * K)), np.zeros((2 * K, reps))
    strided_root[:, ::2], strided_target[::2] = root, target.T
    got = fw(np.asfortranarray(F), strided_root[:, ::2], strided_target[::2].T)
    assert [_solve_key(x) for x in got] == alone


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["inside-hull", "outside-hull", "pure-noise"]),
    K=st.sampled_from([1, 2, 3, 5, 16, 64]),
    M=st.sampled_from([1, 2, 3, 8, 17, 64, 256]),
    more_m=st.lists(st.sampled_from([1, 2, 7, 40, 200]), max_size=2),
    n=st.sampled_from([4, 256, 4096]),
    dictionaries=st.integers(1, 4),
    reps=st.integers(1, 8),
    exponent=st.integers(-6, 6),
    stopping=st.sampled_from(["gap", "cap", "tiny tolerance"]),
    lifted=st.booleans(),
)
@example(
    seed=3, kind="outside-hull", K=16, M=64, more_m=[200], n=256, dictionaries=3, reps=8, exponent=0,
    stopping="gap", lifted=True,
)
def test_a_reps_solve_does_not_depend_on_the_other_dictionaries_of_its_batch(
    seed, kind, K, M, more_m, n, dictionaries, reps, exponent, stopping, lifted
):
    # reps drawn from several problems, each on its own dictionary of K
    # columns and one capacity min(K, M - 1), and in any order, as the
    # datasets of one group of erm_convex_hull_batch are.  Past M = K + 1 the
    # capacity is K for every M, so there the dictionaries have up to three
    # row counts, K + 1 + 200 among them, and K = 1 takes any M >= 2.  A
    # rep's solve has the same bits alone, in the mixed batch, and in
    # permuted, sliced, duplicated and non-contiguous batches.  Lifted
    # dictionaries lie above every label, so every gradient entry of a
    # dictionary is positive, and only a padding of +inf stays out of the
    # oracle's argmin
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    sizes = [M] if M <= K else [M, *(K + m for m in more_m)]
    problems = [
        make_problem(kind, K=K, M=sizes[g % len(sizes)], b=1.0, seed=seed + g) for g in range(dictionaries)
    ]
    F = [scale * (d.values + 3.0 * lifted) for _, d in problems]
    which = rng.integers(0, dictionaries, size=reps)
    root, target = _least_squares(K, _blocks(sample(problems[g][0], n, seed=seed + r) for r, g in enumerate(which)))
    target = scale * target
    config = {
        "gap": SolverConfig(tolerance=1e-8 * scale**2),
        "cap": SolverConfig(max_iterations=int(rng.integers(1, 4)), tolerance=1e-8 * scale**2),
        "tiny tolerance": SolverConfig(tolerance=1e-300),
    }[stopping]

    def fw(F, which, root, target):
        return [_solve_key(solve) for solve in _minimize_fw(F, which, root, target, config)]

    alone = [
        fw([F[g]], np.zeros(1, dtype=np.intp), root[r : r + 1], target[r : r + 1])[0]
        for r, g in enumerate(which)
    ]
    assert fw(F, which, root, target) == alone
    order = rng.permutation(reps)
    assert fw(F, which[order], root[order], target[order]) == [alone[r] for r in order]
    lo, hi = sorted(rng.integers(0, reps + 1, size=2))
    assert fw(F, which[lo:hi], root[lo:hi], target[lo:hi]) == alone[lo:hi]
    repeats = rng.integers(0, reps, size=reps + 3)
    assert fw(F, which[repeats], root[repeats], target[repeats]) == [alone[r] for r in repeats]
    # dictionaries in Fortran order, each also held a second time, and
    # strided rows of root and target
    doubled = [np.asfortranarray(f) for f in F + F]
    strided_root, strided_target = np.zeros((reps, 2 * K)), np.zeros((2 * K, reps))
    strided_root[:, ::2], strided_target[::2] = root, target.T
    twice = which + dictionaries * rng.integers(0, 2, size=reps)
    assert fw(doubled, twice, strided_root[:, ::2], strided_target[::2].T) == alone


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 20),
    atoms=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    rows=st.integers(1, 4),
    zeros=st.booleans(),
)
def test_batched_least_squares_rows_are_each_datasets_own(seed, K, atoms, rows, zeros):
    # one bincount pair over the batch gives every dataset the bits of its
    # own bincount, for blocks of different atom counts whose atoms leave
    # design points out or give them zero mass, and whose several rows of
    # counts share the block's atoms
    rng = np.random.default_rng(seed)
    blocks, datasets = [], []
    for size in atoms:
        x, y = rng.integers(0, K, size=size), rng.uniform(-1.0, 1.0, size=size)
        counts = rng.integers(0 if zeros else 1, 4, size=(rows, size))
        counts[np.arange(rows), rng.integers(size, size=rows)] += 1
        block = [SampleSet(x, y, row, seed) for row in counts]
        blocks.append((block[0], np.array([data.probabilities for data in block])))
        datasets += block
    root, target = _least_squares(K, blocks)
    assert root.shape == target.shape == (len(atoms) * rows, K)
    for b, data in enumerate(datasets):
        x, y, p = data.x_indices, data.y_values, data.probabilities
        own = np.sqrt(np.bincount(x, weights=p, minlength=K))
        ymass = np.bincount(x, weights=p * y, minlength=K)
        assert root[b].tobytes() == own.tobytes()
        assert target[b].tobytes() == np.divide(ymass, own, out=np.zeros(K), where=own > 0.0).tobytes()
    alone = _least_squares(K, _blocks(datasets))
    assert root.tobytes() == alone[0].tobytes() and target.tobytes() == alone[1].tobytes()
    with pytest.raises(ValueError, match="outside the dictionary"):
        _least_squares(K, [*blocks, *_blocks([SampleSet([K], [0.0], [1], seed)])])


def test_a_batch_takes_dictionaries_of_any_k_and_m(monkeypatch):
    # one public batch holds K = 8 and K = 9 and M = 5, 16 and 17, so faces
    # of capacity min(K, M - 1) = 4 and 8; the datasets come shuffled and
    # one dictionary is named twice.  Each gets the solution it gets alone,
    # in input order, and the batch makes one solve per K and capacity
    problems = [
        make_problem("outside-hull", K=K, M=M, b=1.0, seed=s)
        for s, K, M in ((1, 8, 16), (2, 9, 5), (3, 8, 17), (4, 8, 5), (5, 8, 16))
    ]
    order = [3, 0, 4, 1, 0, 2]
    dictionaries = [problems[g][1] for g in order]
    data = [sample(problems[g][0], 64, seed=r) for r, g in enumerate(order)]
    calls = []

    def recorded(F, which, root, target, config):
        calls.append((root.shape[1], [f.shape[0] for f in F], len(which)))
        return _minimize_fw(F, which, root, target, config)

    monkeypatch.setattr(solver, "_minimize_fw", recorded)
    batch = erm_convex_hull_batch(dictionaries, data)
    assert calls == [(8, [5], 1), (8, [16, 16, 17], 4), (9, [5], 1)]
    counters = (
        "empirical_risk", "duality_gap", "iterations", "converged", "stop_reason", "kkt_solves", "drop_steps",
    )
    for sol, d, s in zip(batch, dictionaries, data, strict=True):
        lone = erm_convex_hull(d, s)
        assert sol.weights.weights.tobytes() == lone.weights.weights.tobytes()
        assert [getattr(sol, name) for name in counters] == [getattr(lone, name) for name in counters]
    assert erm_convex_hull_batch([], []) == []
    with pytest.raises(ValueError, match="dictionaries for"):
        erm_convex_hull_batch(dictionaries[:1], data)
