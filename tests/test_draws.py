"""The draw contract: a dataset is a pure function of (problem, n, seed, replication).

Its Philox key words are (seed, replication): the row of replication r in
draw_count_matrix(problem, n, seed, replications) is the first multinomial
of the Philox stream keyed by (seed, r), whatever rows come before it, and
sample(problem, n, seed) draws replication 0.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvxagg import localization
from cvxagg.experiments import make_problem
from cvxagg.model import PROB_SUM_TOL, DiscreteProblem, draw_count_matrix, sample

from _support import random_problem

WORD = st.integers(0, 2**64 - 1)
GOLDEN = DiscreteProblem(
    np.array([0, 0, 1, 1, 2, 2]),
    np.array([-0.5, 0.5, -0.25, 0.75, 0.0, 1.0]),
    np.array([0.1, 0.2, 0.3, 0.15, 0.15, 0.1]),
    bound_b=1.0,
)


def _drawn(problem, n, seed, replications):
    """draw_count_matrix(problem, n, seed, replications), once its matrix is
    seen to hold what numpy's multinomial guarantees and draw_count_matrix
    does not check: C-contiguous int64 counts with a row per replication and
    a column per atom, every count nonnegative, every row summing to n, and
    so every row of counts / n summing to 1 within PROB_SUM_TOL, the check a
    Measure runs on its probabilities."""
    counts = draw_count_matrix(problem, n, seed, replications)
    assert counts.dtype == np.int64 and counts.flags.c_contiguous
    assert counts.shape == (len(replications), problem.probabilities.size)
    assert counts.min() >= 0 and (counts.sum(axis=1) == n).all()
    assert (np.abs((counts / n).sum(axis=1) - 1.0) <= PROB_SUM_TOL).all()
    return counts


@settings(max_examples=100, deadline=None)
@given(
    problem_seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 5),
    atoms_per_x=st.integers(1, 3),
    n=st.integers(1, 300),
    seed=WORD,
    lo=st.one_of(st.integers(0, 20), st.integers(2**64 - 8, 2**64 - 1)),
    size=st.integers(1, 8),
    data=st.data(),
)
def test_a_row_is_its_keys_draw_in_any_range_and_order(problem_seed, K, atoms_per_x, n, seed, lo, size, data):
    problem = random_problem(np.random.default_rng(problem_seed), K=K, atoms_per_x=atoms_per_x)
    replications = range(lo, min(lo + size, 2**64))
    counts = _drawn(problem, n, seed, replications)
    # any sub-range, strided or reversed, draws the same rows
    part = slice(data.draw(st.integers(0, len(replications) - 1)), None, data.draw(st.sampled_from([1, 2, -1, -3])))
    assert np.array_equal(_drawn(problem, n, seed, replications[part]), counts[part])
    for replication, row in zip(replications, counts):
        assert np.array_equal(_drawn(problem, n, seed, range(replication, replication + 1))[0], row)
        words = np.array([seed, replication], dtype=np.uint64)  # a list of 2**63 and 0 would be read as floats
        reference = np.random.Generator(np.random.Philox(key=words)).multinomial(n, problem.probabilities)
        assert np.array_equal(reference, row)
    # a sample of the seed is its replication 0, for every key word a SampleSet takes
    assert np.array_equal(sample(problem, n, seed).counts, draw_count_matrix(problem, n, seed, range(1))[0])


def test_the_first_rows_of_one_key_are_pinned():
    # numpy's Philox4x64 and Generator.multinomial (numpy 2.4); a numpy that
    # moves either fails here instead of silently moving every output
    assert draw_count_matrix(GOLDEN, 100, 20131217, range(3)).tolist() == [
        [5, 18, 35, 13, 21, 8],
        [10, 27, 26, 10, 18, 9],
        [11, 29, 25, 11, 10, 14],
    ]
    top = 2**64 - 1
    rows = [draw_count_matrix(GOLDEN, 100, top, range(1)), draw_count_matrix(GOLDEN, 100, 0, range(top, top + 1))]
    assert np.vstack(rows).tolist() == [
        [8, 23, 29, 17, 15, 8],
        [9, 24, 28, 15, 14, 10],
    ]


def test_mean_counts_are_within_five_standard_errors_of_n_p():
    # bound fixed before the first run: 5 standard errors per atom, so a
    # correct sampler fails with probability about 6 * 5.7e-7
    n, reps = 100, 20_000
    counts = draw_count_matrix(GOLDEN, n, 11, range(reps))
    p = GOLDEN.probabilities
    std_error = np.sqrt(n * p * (1.0 - p) / reps)
    assert np.all(np.abs(counts.mean(axis=0) - n * p) <= 5.0 * std_error)


def test_a_draw_holds_one_matrix():
    # each row is written into the returned matrix as it is drawn, so no
    # second copy of the counts is ever held
    problem, _ = make_problem("inside-hull", K=16, M=2, b=1.0, seed=3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        counts = draw_count_matrix(problem, 64, 5, range(20_000))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert counts.shape == (20_000, 32)
    assert peak <= 1.25 * counts.nbytes


@pytest.mark.parametrize(
    "seed, replications, message",
    [
        (-1, range(1), "seed must lie in [0, 2**64), found -1"),
        (2**64, range(1), f"seed must lie in [0, 2**64), found {2**64}"),
        (np.int64(-1), range(1), "seed must lie in [0, 2**64), found -1"),
        (True, range(1), "seed must be a number, not the bool True"),
        (np.True_, range(1), f"seed must be a number, not the bool {np.True_!r}"),
        (-1, range(-1, 1), "seed must lie in [0, 2**64), found -1"),
        (0, range(-1, 1), "replication must lie in [0, 2**64), found -1"),
        (0, range(3, -2, -2), "replication must lie in [0, 2**64), found -1"),
        (0, range(2**64 - 1, 2**64 + 1), f"replication must lie in [0, 2**64), found {2**64}"),
        (0, range(0), "replications must be a nonempty range, found range(0, 0)"),
        (1, [1, 2.5], "replications must be a nonempty range, found [1, 2.5]"),
    ],
)
def test_a_key_word_outside_uint64_is_refused_by_name(seed, replications, message):
    # numpy's uint64 conversion raises OverflowError, an ArithmeticError,
    # which the CLI reports as a numerical failure; a bool is not read as 1
    draws = [lambda: draw_count_matrix(GOLDEN, 8, seed, replications)]
    if replications == range(1):
        draws.append(lambda: sample(GOLDEN, 8, seed))
    for draw in draws:
        with pytest.raises(ValueError) as refused:
            draw()
        assert str(refused.value) == message


def test_a_key_word_is_an_integer():
    # Philox's state setter would truncate 2.5 to 2; a seed takes the count
    # rule, and a replication is an entry of a range, so it is an int
    with pytest.raises(ValueError, match=r"^seed must be whole, found 2\.5$"):
        sample(GOLDEN, 8, 2.5)
    with pytest.raises(ValueError, match=r"^seed must be whole, found 2\.5$"):
        draw_count_matrix(GOLDEN, 8, 2.5, range(1))


def test_localization_refuses_a_seed_or_replication_outside_uint64():
    problem, dictionary = make_problem("outside-hull", K=4, M=6, b=1.0, seed=21)
    segments = localization.random_net_segments(dictionary, m=2, num_functions=4, num_segments=3, seed=22)
    localization._rep_counts.cache_clear()
    localization._dataset_levels.cache_clear()
    top = 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), found {seed}$"):
            localization.random_net_segments(dictionary, m=2, num_functions=4, num_segments=3, seed=seed)
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), found {seed}$"):
            localization.isomorphism_check(segments, problem, n=32, x=1.0, c0=1.0, reps=4, seed=seed)
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), found {seed}$"):
            localization.calibrate_c0(segments, problem, n=32, x_levels=[2.0], reps=4, seed=seed)
    # rep_offset + r reaches 2**64 at the fourth dataset
    with pytest.raises(ValueError, match=rf"^replication must lie in \[0, 2\*\*64\), found {2**64}$"):
        localization.isomorphism_check(segments, problem, n=32, x=1.0, c0=1.0, reps=4, seed=0, rep_offset=top - 2)
    # the top words are drawn like any other
    report = localization.isomorphism_check(segments, problem, 32, 1.0, 1.0, reps=3, seed=top, rep_offset=top - 2)
    assert report.trials == 3
    level_class = localization.segment_excess_loss_class(segments[0], 0.05)
    estimate, _ = localization.localized_sup(level_class, problem, 32, 3, top)
    assert math.isfinite(estimate)
