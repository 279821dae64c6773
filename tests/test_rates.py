import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvxagg.rates import RatePoint, gap_ratio, phi_n, psi_c, rate_table


def test_psi_reference_values():
    assert psi_c(100, 10) == pytest.approx(0.1, abs=1e-15)
    assert psi_c(100, 100) == pytest.approx(0.18173, abs=1e-5)
    assert psi_c(100, 1) == pytest.approx(0.01, abs=1e-15)


def test_psi_continuity_at_the_regime_boundary():
    for n in (4, 16, 64, 256, 1024, 4096):
        M = int(math.isqrt(n))
        small_branch = psi_c(n, M)
        large_branch = math.sqrt(math.log(math.e * M / math.sqrt(n)) / n)
        assert small_branch == large_branch  # exact for power-of-4 n


def test_phi_reference_values():
    assert phi_n(100, 100) == pytest.approx(0.21460, abs=1e-5)
    assert phi_n(100, 10) == pytest.approx(0.1, abs=1e-15)
    assert phi_n(100, 1) == pytest.approx(0.01, abs=1e-15)


def test_phi_branch_crossover_is_continuous_in_value():
    # both branches of the min agree where M/n = sqrt(log M / n)
    n = 1000
    values = [phi_n(n, M) for M in range(2, 200)]
    diffs = [b - a for a, b in zip(values, values[1:])]
    assert all(d >= -1e-12 for d in diffs)  # nondecreasing in M


def test_gap_ratio_small_regime_equals_one():
    assert gap_ratio(100, 10) == pytest.approx(1.0, abs=1e-12)
    assert gap_ratio(4096, 64) == pytest.approx(1.0, abs=1e-12)


def test_gap_ratio_log_band_value():
    # just past sqrt(n) the min's M/n branch is active: phi = 0.002 while
    # psi = sqrt(log(2e)/n), giving 1.5370, not sqrt(log M/log(eM/sqrt n))
    assert gap_ratio(10**6, 2000) == pytest.approx(1.537031, abs=1e-5)


def test_gap_ratio_at_m_equals_n_is_bounded():
    for n in (100, 10_000, 10**6):
        r = gap_ratio(n, n)
        assert 1.0 <= r <= 2.0


def test_gap_ratio_at_least_one_for_n_at_least_8():
    for n in (8, 9, 16, 100, 1024, 10**6):
        for M in (2, 3, 5, int(math.isqrt(n)) + 1, 2 * n):
            assert gap_ratio(n, M) >= 1.0 - 1e-12


def test_gap_ratio_known_small_n_exceptions():
    # the ordering genuinely fails below n = 8
    assert gap_ratio(4, 2) < 1.0
    assert gap_ratio(6, 3) < 1.0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10**6),
    M=st.integers(min_value=1, max_value=10**6),
)
def test_psi_positive_and_monotone(n, M):
    value = psi_c(n, M)
    assert value > 0
    assert psi_c(n, M + 1) >= value - 1e-15
    if n > 1:
        assert psi_c(n - 1, M) >= value - 1e-15


def test_rate_point_and_table():
    point = RatePoint.at(100, 10)
    assert point.regime == "small-M"
    assert RatePoint.at(100, 11).regime == "large-M"
    table = rate_table([64, 256], [2, 16])
    assert [(p.n, p.M) for p in table] == [(64, 2), (64, 16), (256, 2), (256, 16)]


def test_rates_input_validation():
    with pytest.raises(ValueError):
        psi_c(0, 1)
    with pytest.raises(ValueError):
        phi_n(1, 0)
