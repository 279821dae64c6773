"""Sparsification of convex combinations by averages of m dictionary draws.

The net of all m-fold multiset averages approximates the convex hull: drawing
m i.i.d. rows with probabilities w and averaging them has expected risk
R(f_w) + variance/m, an exact identity used both as the primary computation
and (via full enumeration) as its own cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import Dictionary, DiscreteProblem, Multiset, SampleSet, SimplexWeights, combine, multiset_average
from .risk import empirical_risk, mixture_variance, population_risk, variance_term
from .solver import simplex_grid

DEFAULT_NET_CAP = 10**6
# hull grid of net_approximation_gap: at least this many steps per coordinate
NET_GAP_GRID_RESOLUTION = 48


@dataclass(frozen=True)
class NetSpec:
    """Size bookkeeping for the net of m-fold averages over M symbols."""

    size_M: int
    m: int
    cardinality_N: int

    def __post_init__(self):
        if self.size_M < 1 or self.m < 1:
            raise ValueError("size_M and m must be at least 1")
        expected = math.comb(self.size_M + self.m - 1, self.m)
        if self.cardinality_N != expected:
            raise ValueError(f"cardinality_N must equal C(M+m-1, m) = {expected}")


def net_spec(size_M: int, m: int) -> NetSpec:
    return NetSpec(size_M, m, math.comb(size_M + m - 1, m))


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


def enumerate_net(dictionary: Dictionary, m: int, cap: int = DEFAULT_NET_CAP) -> list[Multiset]:
    """All multisets of m indices from the dictionary, in lexicographic order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    total = math.comb(dictionary.size_M + m - 1, m)
    if total > cap:
        raise ValueError(f"net has {total} elements, above the enumeration cap {cap}")
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


def _multiset_log_prob(counts: np.ndarray, log_w: np.ndarray, m: int) -> float:
    # multinomial mass of an unordered multiset with the given counts
    out = math.lgamma(m + 1)
    for c, lw in zip(counts, log_w):
        if c > 0:
            out += c * lw - math.lgamma(c + 1)
    return out


def empirical_sparsified_identity(
    w: SimplexWeights,
    m: int,
    dictionary: Dictionary,
    samples: SampleSet,
    cap: int = DEFAULT_NET_CAP,
) -> tuple[float, float]:
    """Both sides of the empirical sparsification identity.

    lhs: expectation over the m draws of the empirical risk of their average,
    computed by enumerating multisets with multinomial weights.
    rhs: R_n(f_w) + (1/m) * mean_i Var_J f_J(x_i).

    The two sides agree to 1e-12 by construction; a mismatch indicates a
    numerical fault and raises.  A net larger than cap cannot be enumerated,
    so the check cannot be made and ValueError is raised.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    M = dictionary.size_M
    vals = dictionary.values
    weights = w.weights
    if weights.size != M:
        raise ValueError("weight length does not match dictionary size")
    total = math.comb(M + m - 1, m)
    if total > cap:
        raise ValueError(f"net has {total} elements, above the enumeration cap {cap}")

    base = empirical_risk(combine(dictionary, w), samples)
    correction = float(np.mean(mixture_variance(w, dictionary)[samples.x_indices])) / m
    rhs = base + correction

    log_w = np.full(M, -np.inf)
    pos = weights > 0
    log_w[pos] = np.log(weights[pos])
    lhs = 0.0
    for indices in itertools.combinations_with_replacement(range(M), m):
        counts = np.bincount(indices, minlength=M)
        if np.any(counts[~pos] > 0):
            continue
        prob = math.exp(_multiset_log_prob(counts, log_w, m))
        lhs += prob * empirical_risk(combine(dictionary, counts / m), samples)

    scale = 1.0 + abs(rhs)
    if abs(lhs - rhs) > 1e-12 * scale:
        raise ArithmeticError(
            f"sparsification identity mismatch: enumeration {lhs!r} vs identity {rhs!r}"
        )
    b_sup = float(np.abs(vals).max())
    if correction > 4.0 * b_sup * b_sup / m + 1e-12:
        raise ArithmeticError("variance correction exceeds its (2b)^2 / m ceiling")
    return lhs, rhs


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
