"""Immutable domain types for convex aggregation on finite designs.

A problem is a joint law of (X, Y) supported on finitely many atoms, a
dictionary is a matrix of function values tabulated on the design points, and
a sample is atom counts: how often each of its (x-index, y) pairs was drawn.
Tabulating everything keeps population expectations exact finite sums, so
tests can use noise-free oracles.  All types are frozen after construction
and safe to share across workers.

Problems and samples are both a `Measure`: parallel arrays `x_indices`,
`y_values` and `probabilities`, with mass p_i on the atom (x_i, y_i).  A
sample drawn from a problem is the problem's own atoms with masses count / n,
the empirical law P_n.  Risks and solvers read only these three fields, so
the same code computes the population risk R and the empirical risk R_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_SUM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-10


def _freeze(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _whole(values, name: str) -> np.ndarray:
    """values as a frozen int64 array, which must hold them exactly: 1.7 is refused, not truncated.

    An int64 array holds them by its type, so it is frozen with no compare."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return _freeze(values, np.int64)
    with np.errstate(invalid="ignore"):
        whole = _freeze(values, np.int64)
    if not np.array_equal(whole, values):
        raise ValueError(f"non-whole {name}")
    return whole


@dataclass(frozen=True, eq=False)
class Measure:
    """Mass probabilities[i], nonnegative and summing to 1, on the atom (x_indices[i], y_values[i])."""

    x_indices: np.ndarray
    y_values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_indices", _whole(self.x_indices, "x indices"))
        object.__setattr__(self, "y_values", _freeze(self.y_values, np.float64))
        object.__setattr__(self, "probabilities", _freeze(self.probabilities, np.float64))
        x, y, p = self.x_indices, self.y_values, self.probabilities
        if x.ndim != 1 or x.size == 0 or y.shape != x.shape or p.shape != x.shape:
            raise ValueError("atoms must be nonempty parallel 1-D arrays")
        if not (np.isfinite(y).all() and np.isfinite(p).all()):
            raise ValueError("atom values must be finite")
        if (p < 0).any() or abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        if x.min() < 0:
            raise ValueError("x indices must be nonnegative")


@dataclass(frozen=True, eq=False)
class DiscreteProblem(Measure):
    """Joint law of (X, Y) on finitely many atoms.

    X takes values in {0, ..., num_design_points - 1}, each of which some
    atom covers.  bound_b dominates |Y| and, by convention, every dictionary
    value used with the problem.
    """

    bound_b: float
    marginal_x: np.ndarray = field(init=False)  # the law of X over the design points

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "bound_b", float(self.bound_b))
        if not np.isfinite(self.bound_b) or self.bound_b < 0:
            raise ValueError("bound_b must be a finite nonnegative real")
        if np.any(np.abs(self.y_values) > self.bound_b):
            raise ValueError("every |y| must be at most bound_b")
        x, p = self.x_indices, self.probabilities
        k = int(x.max()) + 1
        if np.unique(x).size != k:
            raise ValueError("x indices must cover 0..K-1 without gaps")
        object.__setattr__(self, "marginal_x", _freeze(np.bincount(x, weights=p, minlength=k), np.float64))

    @property
    def num_design_points(self) -> int:
        return int(self.x_indices.max()) + 1


@dataclass(frozen=True, eq=False)
class Dictionary:
    """M candidate functions tabulated on the design points, as an (M, K) matrix."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values, np.float64))
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise ValueError("dictionary must be a nonempty 2-D matrix of function values")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("dictionary values must be finite")

    @property
    def size_M(self) -> int:
        return self.values.shape[0]

    @property
    def num_design_points(self) -> int:
        return self.values.shape[1]

    def row(self, j: int) -> np.ndarray:
        return self.values[j]


@dataclass(frozen=True, eq=False)
class SampleSet(Measure):
    """n draws, as the count of each atom (x_indices[i], y_values[i]), and the
    seed that produced them; atom i has mass counts[i] / n."""

    probabilities: np.ndarray = field(init=False)
    counts: np.ndarray
    seed: int
    n: int = field(init=False)

    def __post_init__(self):
        counts = _whole(self.counts, "counts")
        n = int(counts.sum())
        if counts.size == 0 or counts.min() < 0 or n < 1:
            raise ValueError("counts must be nonnegative, with at least one draw")
        if int(self.seed) != self.seed:
            raise ValueError("non-whole seed")
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError("seed does not fit in int64, the seed column of samples.csv")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "probabilities", counts / n)
        super().__post_init__()


def draw_counts(problem: DiscreteProblem, n: int, seed) -> np.ndarray:
    """Atom counts of n i.i.d. draws from the problem's law: one multinomial from default_rng(seed)."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    return np.random.default_rng(seed).multinomial(n, problem.probabilities)


def draw_count_matrix(problem: DiscreteProblem, n: int, seeds) -> np.ndarray:
    """Atom counts of one size-n sample per seed, shape (seeds, atoms): row r
    is draw_counts(problem, n, seeds[r]), from its own Generator.

    The matrix is checked once with the checks a `SampleSet` runs on each
    sample's counts; the atoms are the problem's, already checked.
    """
    counts = np.array([draw_counts(problem, n, seed) for seed in seeds], dtype=np.int64)
    if counts.min() < 0:
        raise ValueError("counts must be nonnegative")
    if (counts.sum(axis=1) != n).any():
        raise ValueError(f"every row of counts must sum to the sample size {n}")
    if (np.abs((counts / n).sum(axis=1) - 1.0) > PROB_SUM_TOL).any():
        raise ValueError("every row of counts / n must sum to 1")
    return counts


def sample(problem: DiscreteProblem, n: int, seed: int) -> SampleSet:
    """n i.i.d. draws from the problem's law: its atoms, with their draw counts."""
    return SampleSet(problem.x_indices, problem.y_values, draw_counts(problem, n, seed), seed)


def simplex_rows(w: np.ndarray) -> np.ndarray:
    """w, a float matrix, once every row is checked to be a point of the
    simplex (finite, at least -1e-12, summing to 1 within WEIGHT_SUM_TOL) and
    clamped at 0 in place."""
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if w.min() < -1e-12:
        raise ValueError("weights must be nonnegative")
    if (np.abs(w.sum(axis=1) - 1.0) > WEIGHT_SUM_TOL).any():
        raise ValueError("weights must sum to 1")
    np.maximum(w, 0.0, out=w)
    return w


@dataclass(frozen=True, eq=False)
class SimplexWeights:
    """A point of the probability simplex: nonnegative weights summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D vector")
        simplex_rows(w[None, :])
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class Segment:
    """The one-parameter convex model {theta*endpoint_i + (1-theta)*endpoint_j}."""

    endpoint_i: np.ndarray
    endpoint_j: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "endpoint_i", _freeze(self.endpoint_i, np.float64))
        object.__setattr__(self, "endpoint_j", _freeze(self.endpoint_j, np.float64))
        if self.endpoint_i.ndim != 1 or self.endpoint_i.shape != self.endpoint_j.shape:
            raise ValueError("segment endpoints must be 1-D vectors of identical length")
        if not (np.all(np.isfinite(self.endpoint_i)) and np.all(np.isfinite(self.endpoint_j))):
            raise ValueError("segment endpoints must be finite")

    def at(self, theta: float) -> np.ndarray:
        return theta * self.endpoint_i + (1.0 - theta) * self.endpoint_j


def combine(dictionary: Dictionary, weights) -> np.ndarray:
    """Tabulate the convex combination sum_j w_j f_j on the design points.

    Accepts SimplexWeights or a raw weight vector of matching length.
    """
    w = weights.weights if isinstance(weights, SimplexWeights) else np.asarray(weights, dtype=np.float64)
    if w.shape != (dictionary.size_M,):
        raise ValueError(f"weight length {w.size} does not match dictionary size {dictionary.size_M}")
    return w @ dictionary.values

