"""Sparsification of convex combinations by averages of m dictionary draws.

The net of all m-fold multiset averages approximates the convex hull: drawing
m i.i.d. rows with probabilities w and averaging them has expected risk
R(f_w) + variance/m, an exact identity.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import Dictionary, DiscreteProblem, Multiset, SimplexWeights, combine, multiset_average
from .risk import population_risk, variance_term
from .solver import simplex_grid

# enumerate_net refuses nets with more elements than this
DEFAULT_NET_CAP = 10**6
# hull grid of net_approximation_gap: at least this many steps per coordinate
NET_GAP_GRID_RESOLUTION = 48


def choose_m(n: int, M: int) -> int:
    """Sparsity level ceil(sqrt(n / log(e M / sqrt(n)))), natural log.

    Only defined in the large-dictionary regime M > sqrt(n); outside it the
    net is not used and the call is rejected.
    """
    if n < 1 or M < 1:
        raise ValueError("n and M must be at least 1")
    if M * M <= n:
        raise ValueError("choose_m requires the large-dictionary regime M > sqrt(n)")
    return max(1, math.ceil(math.sqrt(n / math.log(math.e * M / math.sqrt(n)))))


def enumerate_net(dictionary: Dictionary, m: int) -> list[Multiset]:
    """All multisets of m indices from the dictionary, in lexicographic order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    total = math.comb(dictionary.size_M + m - 1, m)
    if total > DEFAULT_NET_CAP:
        raise ValueError(f"net has {total} elements, above the enumeration cap {DEFAULT_NET_CAP}")
    return [Multiset(c) for c in itertools.combinations_with_replacement(range(dictionary.size_M), m)]


def net_cardinality_bound(M: int, m: int) -> tuple[int, float]:
    """Exact net cardinality C(M+m-1, m) and the bound (2eM/m)^m.

    The bound is computed in log space so large (M, m) do not overflow; the
    pair is checked for consistency before returning.
    """
    if M < 1 or m < 1:
        raise ValueError("M and m must be at least 1")
    exact = math.comb(M + m - 1, m)
    log_bound = m * (math.log(2.0) + 1.0 + math.log(M) - math.log(m))
    log_exact = math.lgamma(M + m) - math.lgamma(m + 1) - math.lgamma(M)
    if log_exact > log_bound + 1e-9:
        raise ArithmeticError("cardinality bound failed internal consistency check")
    try:
        bound = math.exp(log_bound)
    except OverflowError:
        bound = math.inf
    return exact, bound


def sparsify_random(w: SimplexWeights, m: int, seed: int) -> Multiset:
    """m i.i.d. categorical draws from w, returned as a sorted multiset."""
    if m < 1:
        raise ValueError("m must be at least 1")
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(w), size=m, p=w.weights)
    return Multiset.from_draws(draws)


def expected_sparsified_risk(
    w: SimplexWeights, m: int, dictionary: Dictionary, problem: DiscreteProblem
) -> float:
    """Exact expected risk of the average of m i.i.d. draws from w.

    Equals R(f_w) + variance_term(w)/m for every simplex point w, not just
    risk minimizers; the derivation only needs the draws to have mean f_w.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    base = population_risk(combine(dictionary, w), problem)
    return base + variance_term(w, dictionary, problem) / m


def net_approximation_gap(dictionary: Dictionary, problem: DiscreteProblem, m: int) -> float:
    """min over the net of the risk, minus the minimal risk over the hull.

    The hull minimum is a grid scan at a resolution divisible by m, evaluated
    through the same combine/population_risk path as the net points, so every
    net point reappears bitwise among the grid candidates and the gap is
    nonnegative in floating point, not just in exact arithmetic.  The gap is
    checked against its variance/m ceiling before returning.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if dictionary.size_M > 4:
        raise ValueError("net gap evaluation is limited to dictionaries with at most 4 functions")
    net = enumerate_net(dictionary, m)
    net_min = min(population_risk(multiset_average(dictionary, ms), problem) for ms in net)
    resolution = m * max(1, -(-NET_GAP_GRID_RESOLUTION // m))
    grid = simplex_grid(dictionary.size_M, resolution)
    hull_min = np.inf
    best = grid[0]
    for row in grid:
        value = population_risk(combine(dictionary, row), problem)
        if value < hull_min:
            hull_min = value
            best = row
    gap = net_min - hull_min
    ceiling = variance_term(SimplexWeights(best), dictionary, problem) / m
    if gap < 0.0 or gap > ceiling + 1e-12:
        raise ArithmeticError(f"net gap {gap!r} outside [0, variance/m = {ceiling!r}]")
    return gap
