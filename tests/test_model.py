import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvxagg.model import (
    Dictionary,
    DiscreteProblem,
    SampleSet,
    SimplexWeights,
    combine,
    draw_counts,
    sample,
)

from _support import random_dictionary, random_problem, random_weights


def two_constant_dictionary():
    # f1 = 0 and f2 = 1 on a single design point
    return Dictionary(np.array([[0.0], [1.0]]))


def test_combine_vertex_picks_the_row():
    d = two_constant_dictionary()
    out = combine(d, SimplexWeights(np.array([1.0, 0.0])))
    assert np.array_equal(out, np.array([0.0]))


def test_combine_convex_combination_of_constants():
    d = two_constant_dictionary()
    out = combine(d, SimplexWeights(np.array([0.25, 0.75])))
    assert out == pytest.approx([0.75])


def test_combine_symmetric_two_point():
    d = Dictionary(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = combine(d, SimplexWeights(np.array([0.5, 0.5])))
    assert np.allclose(out, [0.5, 0.5])


def test_combine_rejects_dimension_mismatch():
    d = two_constant_dictionary()
    with pytest.raises(ValueError):
        combine(d, np.array([1.0, 0.0, 0.0]))


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_combine_is_affine_in_weights(alpha, seed):
    rng = np.random.default_rng(seed)
    d = random_dictionary(rng, M=4, K=3)
    w = random_weights(rng, 4).weights
    v = random_weights(rng, 4).weights
    mix = alpha * w + (1 - alpha) * v
    left = combine(d, mix)
    right = alpha * combine(d, w) + (1 - alpha) * combine(d, v)
    assert np.allclose(left, right, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_combine_sup_norm_dominated_by_rows(seed):
    rng = np.random.default_rng(seed)
    d = random_dictionary(rng, M=5, K=4)
    w = random_weights(rng, 5)
    assert np.abs(combine(d, w)).max() <= np.abs(d.values).max(axis=1).max() + 1e-12


def test_problem_validation():
    with pytest.raises(ValueError):
        DiscreteProblem(np.array([0]), np.array([2.0]), np.array([1.0]), bound_b=1.0)
    with pytest.raises(ValueError):
        DiscreteProblem(np.array([0, 0]), np.array([0.0, 0.0]), np.array([0.6, 0.6]), bound_b=1.0)
    with pytest.raises(ValueError):
        DiscreteProblem(np.array([0, 2]), np.array([0.0, 0.0]), np.array([0.5, 0.5]), bound_b=1.0)
    with pytest.raises(ValueError):
        DiscreteProblem(np.array([], dtype=int), np.array([]), np.array([]), bound_b=1.0)


def test_problem_marginal_and_design_size():
    p = DiscreteProblem(
        np.array([0, 0, 1]),
        np.array([0.0, 1.0, 0.5]),
        np.array([0.25, 0.25, 0.5]),
        bound_b=1.0,
    )
    assert p.num_design_points == 2
    assert p.marginal_x == pytest.approx([0.5, 0.5])


def test_weights_validation_and_cleanup():
    with pytest.raises(ValueError):
        SimplexWeights(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        SimplexWeights(np.array([-0.1, 1.1]))
    w = SimplexWeights(np.array([1.0, -1e-15, 1e-15]))
    assert w.weights.min() == 0.0
    assert len(w) == 3


def test_sample_reproducible_and_valid():
    rng = np.random.default_rng(0)
    p = random_problem(rng, K=3)
    s1 = sample(p, 100, seed=42)
    s2 = sample(p, 100, seed=42)
    assert np.array_equal(s1.x_indices, s2.x_indices)
    assert np.array_equal(s1.y_values, s2.y_values)
    assert s1.seed == 42
    assert s1.n == 100
    assert s1.x_indices.max() < p.num_design_points
    assert np.abs(s1.y_values).max() <= p.bound_b
    with pytest.raises(ValueError):
        sample(p, 0, seed=1)


def test_sample_lists_the_drawn_counts_atom_by_atom():
    rng = np.random.default_rng(3)
    p = random_problem(rng, K=4)
    for n, seed in ((1, 0), (37, 5), (500, 11)):
        counts = draw_counts(p, n, seed)
        assert counts.sum() == n
        s = sample(p, n, seed)
        assert np.array_equal(s.x_indices, np.repeat(p.x_indices, counts))
        assert np.array_equal(s.y_values, np.repeat(p.y_values, counts))
    with pytest.raises(ValueError):
        draw_counts(p, 0, seed=1)


def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([], dtype=int), np.array([]), seed=0)
    with pytest.raises(ValueError):
        SampleSet(np.array([0, 1]), np.array([0.0]), seed=0)


def test_types_are_immutable():
    p = DiscreteProblem(np.array([0]), np.array([0.5]), np.array([1.0]), bound_b=1.0)
    with pytest.raises(Exception):
        p.probabilities[0] = 0.5
    d = two_constant_dictionary()
    with pytest.raises(Exception):
        d.values[0, 0] = 1.0
