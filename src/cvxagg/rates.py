"""Aggregation rate curves: the optimal convex-aggregation rate and the older one.

All logarithms are natural.  The rates are meaningful up to multiplicative
constants, so the experiment harness fits constants instead of assuming 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def psi_c(n: int, M: int) -> float:
    """Optimal convex-aggregation rate: M/n below M = sqrt(n), then
    sqrt(log(e M / sqrt(n)) / n).

    The two branches agree at M = sqrt(n) (both equal 1/sqrt(n)); the regime
    test M^2 <= n is exact in integers.
    """
    if n < 1 or M < 1:
        raise ValueError("n and M must be at least 1")
    if M * M <= n:
        return M / n
    return math.sqrt(math.log(math.e * M / math.sqrt(n)) / n)


def phi_n(n: int, M: int) -> float:
    """The earlier, log-suboptimal rate min(M/n, sqrt(log(M)/n)).

    At M = 1 the formula degenerates (log 1 = 0 would give 0, which no risk
    gap achieves); the value is defined as 1/n there.
    """
    if n < 1 or M < 1:
        raise ValueError("n and M must be at least 1")
    if M == 1:
        return 1.0 / n
    return min(M / n, math.sqrt(math.log(M) / n))


def gap_ratio(n: int, M: int) -> float:
    """phi_n(M) / psi_c(M): 1 on most of the small-dictionary regime and
    strictly above 1 in the band just past M = sqrt(n), where the older rate
    pays an extra logarithm.

    The ratio dips below 1 only for n <= 7 (e.g. n=4, M=2), where the rates
    are not yet ordered; for n >= 8 it is >= 1 everywhere.
    """
    return phi_n(n, M) / psi_c(n, M)


@dataclass(frozen=True)
class RatePoint:
    """Both rate curves at one (n, M), tagged with the regime of psi_c."""

    n: int
    M: int
    psi: float
    phi: float
    regime: str

    @classmethod
    def at(cls, n: int, M: int) -> "RatePoint":
        return cls(
            n=n,
            M=M,
            psi=psi_c(n, M),
            phi=phi_n(n, M),
            regime="small-M" if M * M <= n else "large-M",
        )


def rate_table(n_grid, m_grid) -> list[RatePoint]:
    """RatePoints over the cross product of the two grids, n-major order."""
    return [RatePoint.at(n, M) for n in n_grid for M in m_grid]
