"""Sparsification of convex combinations by averages of m dictionary draws.

An m-fold draw of dictionary rows is its count vector c over the M rows, and
its average is combine(dictionary, c / m).  The net of all such averages
approximates the convex hull: drawing m i.i.d. rows with probabilities w and
averaging them has expected risk R(f_w) + variance/m, an exact identity.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import Dictionary, DiscreteProblem, SimplexWeights, _fits, _seed, _whole, combine
from .risk import mixture_variance, population_risk

# enumerate_net refuses nets with more elements than this
DEFAULT_NET_CAP = 10**6


def choose_m(n: int, M: int) -> int:
    """Sparsity level ceil(sqrt(n / log(e M / sqrt(n)))), natural log.

    Only defined in the large-dictionary regime M > sqrt(n); outside it the
    net is not used and the call is rejected.
    """
    n, M = _whole(n, "n", 1), _whole(M, "M", 1)
    if M * M <= n:
        raise ValueError("choose_m requires the large-dictionary regime M > sqrt(n)")
    return max(1, math.ceil(math.sqrt(n / math.log(math.e * M / math.sqrt(n)))))


def enumerate_net(size_m: int, m: int) -> np.ndarray:
    """Every m-fold average's weights: the (N, M) rows of counts / m.

    The rows are all weight vectors with coordinates in {0, 1/m, ..., 1}
    summing to 1, N = C(M + m - 1, m), enumerated by stars and bars.
    """
    size_m, m = _whole(size_m, "size_m", 1), _whole(m, "m", 1)
    total = math.comb(size_m + m - 1, m)
    if total > DEFAULT_NET_CAP:
        raise ValueError(f"net has {total} elements, above the enumeration cap {DEFAULT_NET_CAP}")
    bars = np.array(list(itertools.combinations(range(m + size_m - 1), size_m - 1)), dtype=np.int64)
    padded = np.hstack([np.full((total, 1), -1), bars, np.full((total, 1), m + size_m - 1)])
    return (np.diff(padded, axis=1) - 1) / m


def sparsify_random(w: SimplexWeights, m: int, seed: int) -> np.ndarray:
    """m i.i.d. categorical draws from w, returned as counts over the M rows."""
    m = _whole(m, "m", 1)
    rng = np.random.default_rng(_seed(seed))
    return np.bincount(rng.choice(len(w), size=m, p=w.weights), minlength=len(w))


def expected_sparsified_risk(
    w: SimplexWeights, m: int, dictionary: Dictionary, problem: DiscreteProblem
) -> float:
    """Exact expected risk of the average of m i.i.d. draws from w.

    Equals R(f_w) + variance_term(w)/m for every simplex point w, not just
    risk minimizers; the derivation only needs the draws to have mean f_w.
    """
    m = _whole(m, "m", 1)
    _fits(dictionary.num_design_points, problem, "a dictionary row")
    f = combine(dictionary, w)
    return population_risk(f, problem) + mixture_variance(w, dictionary, problem, f) / m
