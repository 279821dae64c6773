import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvxagg import localization
from cvxagg.experiments import make_problem
from cvxagg.localization import (
    IsomorphismReport,
    _needed_level,
    _rep_counts,
    _segment_coefficients,
    _segment_loss_basis,
    _segment_star_sup,
    LocalizedClass,
    calibrate_c0,
    fixed_point,
    gamma,
    isomorphism_check,
    localized_sup,
    peeling_bound,
    rademacher_segment_bound,
    random_net_segments,
    segment_excess_loss_class,
)
from cvxagg.model import Dictionary, DiscreteProblem, Segment, draw_counts
from cvxagg.solver import erm_segment

from _support import random_dictionary, random_problem


def test_localized_class_validation():
    seg = Segment(np.array([0.0]), np.array([1.0]))
    for level in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError):
            LocalizedClass(seg, level)
    assert segment_excess_loss_class(seg, 0.1).level_lambda == 0.1


def test_rademacher_segment_bound_values():
    assert rademacher_segment_bound(1.0, 1.0, 64) == pytest.approx(1.0)
    assert rademacher_segment_bound(1.0, 0.0, 10) == 0.0
    assert rademacher_segment_bound(1.0, 0.04, 64) == pytest.approx(
        2 * rademacher_segment_bound(1.0, 0.04, 256)
    )


def test_peeling_bound_zero_and_first_term():
    assert peeling_bound(lambda mu: 0.0, 1.0) == 0.0
    value = peeling_bound(lambda mu: 8 * math.sqrt(mu), 1.0)
    assert value >= 8 * math.sqrt(2.0)  # at least the i=0 term


def test_peeling_bound_closed_form():
    n = 1.0
    value = peeling_bound(lambda mu: 8 * math.sqrt(mu / n), 1.0)
    closed = 8 * math.sqrt(2.0) / (1 - 2**-0.5)
    assert value == pytest.approx(closed, rel=1e-9)
    assert closed == pytest.approx(38.62741699796953, abs=1e-10)


def test_peeling_bound_rejects_divergence():
    with pytest.raises(ValueError):
        peeling_bound(lambda mu: mu, 1.0)  # constant terms, divergent sum
    with pytest.raises(ValueError):
        peeling_bound(lambda mu: 8 * math.sqrt(mu), 0.0)


def test_fixed_point_closed_forms():
    c = 38.62741699796953
    for n in (100, 1024):
        out = fixed_point(lambda lam: c * math.sqrt(lam / n))
        assert out == pytest.approx((8 * c) ** 2 / n, rel=1e-6)
    # span-shaped bound scales linearly in the rank
    for mp in (1, 4):
        out = fixed_point(lambda lam, mp=mp: math.sqrt(mp * lam / 256))
        assert out == pytest.approx(64 * mp / 256, rel=1e-6)


def test_fixed_point_floor_and_bracketing():
    assert fixed_point(lambda lam: 0.0) == pytest.approx(1e-300)
    c = 5.0
    out = fixed_point(lambda lam: c * math.sqrt(lam / 64))
    assert c * math.sqrt(out / 64) <= out / 8.0
    below = out / (1 + 1e-6)
    assert c * math.sqrt(below / 64) > below / 8.0


def test_fixed_point_rejects_non_star_bounds():
    with pytest.raises(ValueError):
        # ratio bound/lambda increases across the bracket
        fixed_point(lambda lam: 1e-200 + lam * lam / 1e13)
    with pytest.raises(ValueError):
        fixed_point(lambda lam: lam)  # never crosses lambda/8


def test_fixed_point_floor_is_correct_for_superlinear_bounds():
    # bound(lam) = c lam^2 satisfies bound <= lam/8 for every small lam, so
    # the smallest such lam is the bracket floor
    assert fixed_point(lambda lam: 1e-3 * lam * lam) == pytest.approx(1e-300)


def test_gamma_values():
    assert gamma(1.0, 1.0, 6, 100, 1.0) == pytest.approx(0.04583519, abs=1e-7)
    assert gamma(0.0, 1.0, 6, 100, 1.0) == pytest.approx(2 * math.log(6) / 100)
    assert gamma(1.0, 2.0, 6, 100, 1.0) == pytest.approx(4 * 0.04583519, abs=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("position", [0, 1, 4], ids=["x", "b", "c0"])
def test_gamma_rejects_non_finite_arguments(position, bad):
    args = [1.0, 1.0, 6, 100, 1.0]
    args[position] = bad
    with pytest.raises(ValueError, match="finite"):
        gamma(*args)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_isomorphism_functions_reject_non_finite_x(bad, counted_generators):
    # at a non-finite x the check used to pass silently (violations 0, bound
    # nan) and the calibration to return c0 = 0; the levels are checked
    # before any dataset is drawn
    problem, dictionary = make_problem("outside-hull", K=4, M=6, b=1.0, seed=21)
    segments = random_net_segments(dictionary, m=2, num_functions=4, num_segments=3, seed=22)
    _clear_draw_caches()
    counted_generators.clear()
    with pytest.raises(ValueError, match="finite"):
        isomorphism_check(segments, problem, n=32, x=bad, c0=1.0, reps=10, seed=23)
    with pytest.raises(ValueError, match="finite"):
        isomorphism_check(segments, problem, n=32, x=1.0, c0=bad, reps=10, seed=23)
    with pytest.raises(ValueError, match="finite"):
        calibrate_c0(segments, problem, n=32, x_levels=[bad], reps=10, seed=24)
    with pytest.raises(ValueError, match="finite"):
        calibrate_c0(segments, problem, n=32, x_levels=[1.0, bad], reps=10, seed=24)
    assert counted_generators == []


def test_calibrate_c0_rejects_empty_x_levels():
    # with no level there is nothing to calibrate; c0 = 0.0 used to come back
    problem, dictionary = make_problem("outside-hull", K=4, M=6, b=1.0, seed=21)
    segments = random_net_segments(dictionary, m=2, num_functions=4, num_segments=3, seed=22)
    with pytest.raises(ValueError, match="at least one x level"):
        calibrate_c0(segments, problem, n=32, x_levels=[], reps=10, seed=24)


@pytest.mark.parametrize(
    "xs, target_scale, bound_b",
    [([1.0], 1.0, 1.0), ([0.5, 1.0, math.log(4.0)], 1.0, 1.0), ([2.0, 3.0], 0.9, 0.0)],
    ids=["rate-one", "rates-one", "zero-gamma"],
)
def test_calibrate_c0_rejects_levels_that_constrain_nothing(counted_generators, xs, target_scale, bound_b):
    # a level whose target rate is 1 is met by any c0, and one whose gamma is 0
    # for every c0 cannot be reached; with only such levels c0 = 0.0 used to
    # come back, so the check at x = 1 reported every dataset violating
    problem, dictionary = make_problem("outside-hull", K=4, M=6, b=1.0, seed=21)
    if bound_b == 0.0:
        problem = DiscreteProblem(problem.x_indices, 0.0 * problem.y_values, problem.probabilities, 0.0)
    segments = random_net_segments(dictionary, m=2, num_functions=4, num_segments=3, seed=22)
    _clear_draw_caches()
    counted_generators.clear()
    with pytest.raises(ValueError, match="nothing to calibrate"):
        calibrate_c0(segments, problem, n=32, x_levels=xs, reps=10, seed=24, target_scale=target_scale)
    assert counted_generators == []


def test_calibrate_c0_skips_a_level_that_constrains_nothing():
    problem, dictionary = make_problem("outside-hull", K=4, M=6, b=1.0, seed=21)
    segments = random_net_segments(dictionary, m=2, num_functions=4, num_segments=3, seed=22)
    alone = calibrate_c0(segments, problem, n=32, x_levels=[2.0], reps=40, seed=24)
    assert alone > 0
    assert calibrate_c0(segments, problem, n=32, x_levels=[1.0, 2.0], reps=40, seed=24) == alone


def _clear_draw_caches():
    _rep_counts.cache_clear()
    _segment_coefficients.cache_clear()


@pytest.fixture
def draw_fixture():
    problem, dictionary = make_problem("outside-hull", K=4, M=6, b=1.0, seed=71)
    segments = random_net_segments(dictionary, m=2, num_functions=5, num_segments=4, seed=72)
    return problem, segments


def _fresh(call):
    _clear_draw_caches()
    return call()


def test_reused_draws_give_the_results_of_fresh_draws(draw_fixture):
    problem, segments = draw_fixture
    classes = [segment_excess_loss_class(segments[0], level) for level in (0.01, 0.1)]
    _clear_draw_caches()
    sups = [localized_sup(cls, problem, n=64, reps=30, seed=73) for cls in classes]
    assert _segment_coefficients.cache_info().hits == 1
    assert sups == [_fresh(lambda cls=cls: localized_sup(cls, problem, n=64, reps=30, seed=73)) for cls in classes]

    def check(x, reps=40, rep_offset=0):
        return isomorphism_check(segments, problem, n=64, x=x, c0=1.0, reps=reps, seed=74, rep_offset=rep_offset)

    _clear_draw_caches()
    reports = [check(1.0), check(2.0)]
    assert _segment_coefficients.cache_info().hits == 1
    assert reports == [_fresh(lambda: check(1.0)), _fresh(lambda: check(2.0))]

    # a run split by rep_offset reuses each part's draw within the part
    _clear_draw_caches()
    parts = [check(1.0, 15), check(2.0, 15), check(1.0, 25, 15), check(2.0, 25, 15)]
    assert _segment_coefficients.cache_info().hits == 2
    assert parts == [
        _fresh(lambda: check(1.0, 15)),
        _fresh(lambda: check(2.0, 15)),
        _fresh(lambda: check(1.0, 25, 15)),
        _fresh(lambda: check(2.0, 25, 15)),
    ]
    whole = _rep_counts(problem, 64, 40, 74, 0)
    assert np.array_equal(whole, np.vstack([_rep_counts(problem, 64, 15, 74, 0), _rep_counts(problem, 64, 25, 74, 15)]))


def test_rep_counts_rows_are_model_draws(draw_fixture):
    # the Monte Carlo datasets come from the one sampler, row r on stream (seed, offset + r)
    problem, _ = draw_fixture
    for offset in (0, 7):
        counts = _rep_counts(problem, 64, 6, 3, offset)
        assert np.array_equal(counts, [draw_counts(problem, 64, [3, offset + r]) for r in range(6)])


def test_reused_draws_are_read_only(draw_fixture):
    problem, segments = draw_fixture
    counts = _rep_counts(problem, 64, 5, 1, 0)
    pop, emp = _segment_coefficients(tuple(segments), problem, 64, 5, 1, 0)
    for array in (counts, pop, emp):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.fixture
def counted_generators(monkeypatch):
    """The seeds of every np.random.default_rng call localization makes."""
    seeds = []
    real = np.random.default_rng

    def counting(seed=None):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(localization.np.random, "default_rng", counting)
    return seeds


def test_a_second_x_level_draws_no_rows(draw_fixture, counted_generators):
    problem, segments = draw_fixture
    _clear_draw_caches()
    for x in (1.0, 2.0, 3.0):
        isomorphism_check(segments, problem, n=64, x=x, c0=1.0, reps=20, seed=75, rep_offset=3)
        assert counted_generators == [[75, 3 + r] for r in range(20)]


@pytest.mark.parametrize("change", ["seed", "rep_offset", "n", "reps", "problem"])
def test_a_changed_argument_draws_again(draw_fixture, counted_generators, change):
    problem, _ = draw_fixture
    args = {"problem": problem, "n": 64, "reps": 10, "seed": 76, "rep_offset": 0}
    _clear_draw_caches()
    _rep_counts(*args.values())
    _rep_counts(*args.values())
    assert len(counted_generators) == 10
    # an equal but distinct problem is another key: problems compare by identity
    replacement = DiscreteProblem(problem.x_indices, problem.y_values, problem.probabilities, problem.bound_b)
    args[change] = replacement if change == "problem" else args[change] + 1
    _rep_counts(*args.values())
    assert len(counted_generators) == 10 + args["reps"]


def _erm_segment_calls(monkeypatch):
    calls = []

    def counting(segment, data):
        calls.append(segment)
        return erm_segment(segment, data)

    monkeypatch.setattr(localization, "erm_segment", counting)
    return calls


def test_loss_bases_are_tabulated_once_and_read_only(draw_fixture, monkeypatch):
    problem, segments = draw_fixture
    calls = _erm_segment_calls(monkeypatch)
    _segment_loss_basis.cache_clear()
    basis = _segment_loss_basis(segments[0], problem)
    assert _segment_loss_basis(segments[0], problem) is basis and len(calls) == 1
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0] = 0
    # segments and problems are keys by identity: an equal but distinct one is tabulated again
    copy = Segment(segments[0].endpoint_i, segments[0].endpoint_j)
    twin = DiscreteProblem(problem.x_indices, problem.y_values, problem.probabilities, problem.bound_b)
    assert np.array_equal(_segment_loss_basis(copy, problem), basis) and len(calls) == 2
    assert np.array_equal(_segment_loss_basis(segments[0], twin), basis) and len(calls) == 3


def test_a_second_level_of_a_sweep_tabulates_no_basis(draw_fixture, monkeypatch):
    # levels outside, segments inside: every call tabulates its quadratics
    # again, since the draw cache keeps one entry, but each basis only once
    problem, segments = draw_fixture
    calls = _erm_segment_calls(monkeypatch)
    _segment_loss_basis.cache_clear()
    _clear_draw_caches()
    for level in (0.01, 0.1):
        for segment in segments:
            localized_sup(segment_excess_loss_class(segment, level), problem, n=64, reps=10, seed=80)
        assert calls == segments


def test_cached_bases_give_the_results_of_fresh_ones(draw_fixture):
    problem, segments = draw_fixture

    def run():
        c0 = calibrate_c0(segments, problem, 64, [2.0, 3.0], 40, 77, target_scale=0.9)
        reports = [isomorphism_check(segments, problem, 64, x, c0, 40, 78) for x in (2.0, 3.0)]
        sups = [localized_sup(segment_excess_loss_class(s, 0.05), problem, 64, 40, 79) for s in segments]
        return c0, reports, sups

    _segment_loss_basis.cache_clear()
    first = run()
    assert _segment_loss_basis.cache_info().misses == len(segments)
    _clear_draw_caches()
    cached = run()
    _segment_loss_basis.cache_clear()
    _clear_draw_caches()
    assert cached == first == run()


def _coefficient_batch(data, rows, segments):
    """Population (segments, 3) and difference (rows, segments, 3) quadratics,
    with lines, constants and all-zero differences among them."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** data.draw(st.integers(-3, 3))
    pop = rng.normal(size=(segments, 3)) * scale
    pop[:, 0] = np.abs(pop[:, 0])
    diff = rng.normal(size=(rows, segments, 3)) * scale / 4.0
    for q in (pop, diff):
        kinds = rng.integers(0, 4, size=q.shape[:-1])
        q[kinds == 1, 0] = 0.0  # a line
        q[kinds == 2, :2] = 0.0  # a constant
        q[kinds == 3, :] = 0.0  # zero
    return pop, diff


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(1, 6), segments=st.integers(1, 4), level=st.floats(1e-4, 10.0))
def test_segment_evaluators_treat_entries_independently(data, rows, segments, level):
    # each (dataset, segment) entry's value is a function of that entry
    # alone: permuted, duplicated and sliced batches give the same bits
    pop, diff = _coefficient_batch(data, rows, segments)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    row_order, seg_order = rng.permutation(rows), rng.permutation(segments)
    repeats = rng.integers(0, rows, size=rows + 3)
    for evaluate in (_needed_level, lambda p, d: _segment_star_sup(p, d, level)):
        whole = evaluate(pop, diff)
        assert whole.shape == (rows, segments) and np.all(whole >= 0.0)
        shuffled = evaluate(pop[seg_order], diff[row_order][:, seg_order])
        assert shuffled.tobytes() == whole[row_order][:, seg_order].tobytes()
        assert evaluate(pop, diff[repeats]).tobytes() == whole[repeats].tobytes()
        for r in range(rows):
            assert evaluate(pop, diff[r : r + 1]).tobytes() == whole[r : r + 1].tobytes()
            for s in range(segments):
                single = evaluate(pop[s : s + 1], diff[r : r + 1, s : s + 1])
                assert single.tobytes() == whole[r : r + 1, s : s + 1].tobytes()


def test_localized_sup_requires_reps():
    rng = np.random.default_rng(2)
    p = random_problem(rng, K=3)
    d = random_dictionary(rng, M=2, K=3)
    cls = segment_excess_loss_class(Segment(d.row(0), d.row(1)), level=1.0)
    with pytest.raises(ValueError):
        localized_sup(cls, p, n=10, reps=1, seed=0)


def test_localized_sup_single_function_matches_direct_simulation():
    rng = np.random.default_rng(3)
    p = random_problem(rng, K=3)
    d = random_dictionary(rng, M=2, K=3)
    seg = Segment(d.row(0), d.row(1))
    # excess losses L_theta on a theta grid, tabulated on the atoms
    _, g_star = erm_segment(seg, p)
    fitted = np.stack([seg.at(theta) for theta in np.linspace(0.0, 1.0, 2001)])
    x, y = p.x_indices, p.y_values
    losses = (y - fitted[:, x]) ** 2 - (y - g_star[x]) ** 2
    pl = losses @ p.probabilities
    cls = segment_excess_loss_class(seg, level=2 * pl.max())  # level above every PL: no capping
    est, se = localized_sup(cls, p, n=50, reps=600, seed=5)

    # independent simulation of E max_theta |(P - P_n) L_theta|
    sims = []
    rng2 = np.random.default_rng(999)
    for _ in range(600):
        idx = rng2.choice(p.x_indices.size, size=50, p=p.probabilities)
        sims.append(float(np.max(np.abs(pl - losses[:, idx].mean(axis=1)))))
    direct = float(np.mean(sims))
    direct_se = float(np.std(sims, ddof=1) / math.sqrt(len(sims)))
    assert abs(est - direct) <= 3 * math.hypot(se, direct_se)


def test_localized_sup_shrinks_with_the_level():
    # a lower level localizes to a subset of the star hull, and a shared seed
    # means shared datasets, so the estimate is nondecreasing in the level
    rng = np.random.default_rng(4)
    p = random_problem(rng, K=3)
    d = random_dictionary(rng, M=2, K=3)
    seg = Segment(d.row(0), d.row(1))
    estimates = [
        localized_sup(segment_excess_loss_class(seg, level), p, n=25, reps=100, seed=6)[0]
        for level in (1e-4, 1e-2, 1.0)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(estimates, estimates[1:]))
    assert estimates[0] < estimates[-1]


def test_localized_sup_segment_under_complexity_bound():
    rng = np.random.default_rng(7)
    p = random_problem(rng, K=4, b=1.0)
    d = random_dictionary(rng, M=4, K=4, b=1.0)
    seg = Segment(d.row(0), d.row(1))
    n = 256
    for mu in (0.01, 0.04, 0.16):
        est, se = localized_sup(segment_excess_loss_class(seg, mu), p, n=n, reps=200, seed=8)
        assert est <= rademacher_segment_bound(1.0, mu, n) + 3 * se


def test_localized_sup_star_hull_ratio_monotone():
    # shared seed means shared datasets, so sup(level)/level is exactly
    # non-increasing pathwise
    rng = np.random.default_rng(9)
    p = random_problem(rng, K=4)
    d = random_dictionary(rng, M=3, K=4)
    seg = Segment(d.row(0), d.row(2))
    ratios = []
    for level in (0.02, 0.08, 0.32):
        est, _ = localized_sup(segment_excess_loss_class(seg, level), p, n=128, reps=60, seed=10)
        ratios.append(est / level)
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_isomorphism_check_huge_x_never_violates():
    problem, dictionary = make_problem("outside-hull", K=4, M=6, b=1.0, seed=21)
    segments = random_net_segments(dictionary, m=2, num_functions=5, num_segments=5, seed=22)
    report = isomorphism_check(segments, problem, n=64, x=50.0, c0=1.0, reps=40, seed=23)
    assert report.violations == 0
    assert report.erm_checked == 40
    assert report.bound == pytest.approx(4 * math.exp(-50.0))


def test_isomorphism_check_erm_implication_holds():
    problem, dictionary = make_problem("outside-hull", K=5, M=8, b=1.0, seed=31)
    segments = random_net_segments(dictionary, m=2, num_functions=8, num_segments=8, seed=32)
    report = isomorphism_check(segments, problem, n=128, x=2.0, c0=2.0, reps=150, seed=33)
    assert report.erm_implication_failures == 0
    assert report.trials == 150
    assert report.violations + report.erm_checked == 150


def test_isomorphism_check_chunks_reproduce():
    problem, dictionary = make_problem("pure-noise", K=4, M=5, b=1.0, seed=41)
    segments = random_net_segments(dictionary, m=2, num_functions=5, num_segments=4, seed=42)
    whole = isomorphism_check(segments, problem, n=64, x=1.0, c0=0.5, reps=12, seed=43)
    part1 = isomorphism_check(segments, problem, n=64, x=1.0, c0=0.5, reps=5, seed=43)
    part2 = isomorphism_check(segments, problem, n=64, x=1.0, c0=0.5, reps=7, seed=43, rep_offset=5)
    assert whole.violations == part1.violations + part2.violations


def test_isomorphism_report_ci():
    report = IsomorphismReport(x=1.0, trials=100, violations=10, bound=1.0, gamma_or_rho=0.1)
    assert report.violation_rate == pytest.approx(0.1)
    assert report.rate_std_error == pytest.approx(math.sqrt(0.1 * 0.9 / 100))
    empty = IsomorphismReport(x=1.0, trials=0, violations=0, bound=1.0, gamma_or_rho=0.1)
    assert empty.violation_rate == empty.rate_std_error == 0.0


def test_calibrate_c0_meets_targets_on_calibration_data():
    problem, dictionary = make_problem("outside-hull", K=4, M=6, b=1.0, seed=51)
    segments = random_net_segments(dictionary, m=2, num_functions=6, num_segments=6, seed=52)
    xs = [2.0, 3.0]
    c0 = calibrate_c0(segments, problem, n=128, x_levels=xs, reps=300, seed=53)
    for x in xs:
        report = isomorphism_check(segments, problem, n=128, x=x, c0=c0, reps=300, seed=53)
        assert report.violation_rate <= min(1.0, 4 * math.exp(-x)) + 1e-12


@pytest.mark.parametrize("target_scale", [1.0, 0.9])
@pytest.mark.parametrize("seed", [2, 10])
def test_calibrated_c0_meets_its_target_on_the_calibration_draw(seed, target_scale):
    # the check and the calibration read the same per-dataset levels, and c0
    # is rounded up until gamma reaches the order statistic, so on the same
    # draw at most floor(target * reps) datasets violate at every x; a c0
    # rounded to nearest let gamma fall an ulp short (seed 10, x = 4: 37 > 36)
    problem, dictionary = make_problem("outside-hull", K=6, M=8, b=1.0, seed=seed)
    segments = random_net_segments(dictionary, m=2, num_functions=10, num_segments=10, seed=seed + 1)
    xs, reps = [1.0, 2.0, 3.0, 4.0], 500
    c0 = calibrate_c0(segments, problem, 256, xs, reps, seed + 2, num_net_functions=10, target_scale=target_scale)
    for x in xs:
        report = isomorphism_check(segments, problem, 256, x, c0, reps, seed + 2, num_net_functions=10)
        assert report.violations <= math.floor(target_scale * min(1.0, 4.0 * math.exp(-x)) * reps), x


def test_isomorphism_check_is_free_of_the_data_scale():
    # (F, y, b) -> (sF, sy, sb) scales every excess loss and gamma by s^2, so
    # the calibrated c0 and every count must stay; the ERM implication's
    # rounding slack scales with b^2, so at s = 1e-6 it is not 15 gamma wide
    problem, dictionary = make_problem("outside-hull", K=6, M=8, b=1.0, seed=88)
    xs = [1.0, 2.0, 3.0, 4.0]
    results = {}
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        p = DiscreteProblem(problem.x_indices, scale * problem.y_values, problem.probabilities, scale * problem.bound_b)
        d = Dictionary(scale * dictionary.values)
        segments = random_net_segments(d, m=2, num_functions=10, num_segments=10, seed=89)
        c0 = calibrate_c0(segments, p, 256, xs, 300, 90, num_net_functions=10, target_scale=0.9)
        reports = [isomorphism_check(segments, p, 256, x, c0, 300, 91, num_net_functions=10) for x in xs]
        results[scale] = c0, reports
    c0, reports = results[1.0]
    assert c0 > 0 and sum(r.violations for r in reports) > 0 and sum(r.erm_checked for r in reports) > 0
    for scale, (c0_s, reports_s) in results.items():
        assert c0_s == pytest.approx(c0, rel=1e-12, abs=0.0), scale
        for r, r_s in zip(reports, reports_s):
            counts = (r.violations, r.erm_checked, r.erm_implication_failures)
            assert (r_s.violations, r_s.erm_checked, r_s.erm_implication_failures) == counts, (scale, r.x)
            assert r_s.gamma_or_rho == pytest.approx(scale**2 * r.gamma_or_rho, rel=1e-12, abs=0.0), (scale, r.x)


def test_segment_evaluators_match_a_fine_grid():
    # criterion-8 fixture: 20 datasets x 10 segments, against a 200 001-point
    # theta grid; each exact value lies between the grid max and the grid max
    # plus spacing x a Lipschitz bound of its objective (for the needed level,
    # of 2|D| on its region).  A level violates, needed > level, exactly when
    # sup |D| - max(PL, level) / 2 > 0, so wherever the grid's deficit is
    # farther from 0 than spacing x its Lipschitz bound, the two must agree
    problem, dictionary = make_problem("outside-hull", K=6, M=8, b=1.0, seed=88)
    segments = random_net_segments(dictionary, m=2, num_functions=10, num_segments=10, seed=89)
    pop, emp = _segment_coefficients(tuple(segments), problem, 256, 20, 90, 0)
    # plus one pair, D = theta and PL = theta^2 + 0.01, whose star sup at a
    # level below min PL sits at the stationary point theta = 0.1 of |D| / PL
    diff = np.vstack([(pop - emp).reshape(-1, 3), [0.0, 1.0, 0.0]])
    pop = np.vstack([np.broadcast_to(pop, emp.shape).reshape(-1, 3), [1.0, 0.0, 0.01]])
    pairs = diff.shape[0]
    theta = np.linspace(0.0, 1.0, 200_001)
    spacing = theta[1]
    slope_d = 2.0 * np.abs(diff[:, 0]) + np.abs(diff[:, 1])
    slope_p = 2.0 * np.abs(pop[:, 0]) + np.abs(pop[:, 1])
    size_d = np.abs(diff).sum(axis=1)
    levels = (0.005, 0.05, 0.2)

    exact = {("needed", None): _needed_level(pop, diff)}
    lipschitz = {("needed", None): 2.0 * slope_d}
    for level in levels:
        exact["star", level] = _segment_star_sup(pop, diff, level)
        lipschitz["star", level] = slope_d + size_d * slope_p / level
    assert all(v.shape == (pairs,) for v in exact.values())
    assert exact["star", 0.005][-1] == pytest.approx(0.005 * 0.1 / 0.02)

    grid = {key: np.empty(pairs) for key in exact}
    deficit = {level: np.empty(pairs) for level in levels}
    for start in range(0, pairs, 10):
        rows = slice(start, start + 10)
        pl = np.polynomial.polynomial.polyval(theta, pop[rows, ::-1].T)
        d = np.abs(np.polynomial.polynomial.polyval(theta, diff[rows, ::-1].T))
        grid["needed", None][rows] = np.max(np.where(d >= 0.5 * pl, 2.0 * d, 0.0), axis=1)
        for level in levels:
            grid["star", level][rows] = np.max(np.minimum(1.0, level / np.maximum(pl, level)) * d, axis=1)
            deficit[level][rows] = np.max(d - 0.5 * np.maximum(pl, level), axis=1)
    for key, value in exact.items():
        assert np.all(value >= grid[key] - 1e-14), key
        assert np.all(value <= grid[key] + spacing * lipschitz[key]), key
    needed = exact["needed", None]
    for level in levels:
        clear = np.abs(deficit[level]) > spacing * (slope_d + 0.5 * slope_p)
        assert np.array_equal(needed[clear] > level, deficit[level][clear] > 0.0), level
        if level == 0.05:
            assert np.any(clear & (needed > level)) and np.any(clear & (needed <= level))


def test_random_net_segments_deterministic():
    rng = np.random.default_rng(61)
    d = random_dictionary(rng, M=6, K=3)
    a = random_net_segments(d, m=2, num_functions=5, num_segments=4, seed=7)
    b = random_net_segments(d, m=2, num_functions=5, num_segments=4, seed=7)
    assert all(np.array_equal(s.endpoint_i, t.endpoint_i) for s, t in zip(a, b))
    with pytest.raises(ValueError):
        random_net_segments(d, m=2, num_functions=3, num_segments=10, seed=0)
