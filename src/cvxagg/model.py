"""Immutable domain types for convex aggregation on finite designs.

A problem is a joint law of (X, Y) supported on finitely many atoms, a
dictionary is a matrix of function values tabulated on the design points, and
samples are (x-index, y) pairs drawn from the atoms.  Tabulating everything
keeps population expectations exact finite sums, so tests can use noise-free
oracles.  All types are frozen after construction and safe to share across
workers.

Problems and samples are both weighted-atom measures: parallel arrays
`x_indices`, `y_values` and `probabilities`, with mass p_i on the atom
(x_i, y_i) for a problem and 1/n on each pair for a sample.  Risks and solvers
read only these three fields, so the same code computes the population risk R
and the empirical risk R_n.
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


@dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Joint law of (X, Y) on finitely many atoms.

    X takes values in {0, ..., num_design_points - 1}; atom i carries the pair
    (x_indices[i], y_values[i]) with mass probabilities[i].  bound_b dominates
    |Y| and, by convention, every dictionary value used with the problem.
    """

    x_indices: np.ndarray
    y_values: np.ndarray
    probabilities: np.ndarray
    bound_b: float

    def __post_init__(self):
        object.__setattr__(self, "x_indices", _freeze(self.x_indices, np.int64))
        object.__setattr__(self, "y_values", _freeze(self.y_values, np.float64))
        object.__setattr__(self, "probabilities", _freeze(self.probabilities, np.float64))
        object.__setattr__(self, "bound_b", float(self.bound_b))
        x, y, p = self.x_indices, self.y_values, self.probabilities
        if x.ndim != 1 or x.size == 0 or y.shape != x.shape or p.shape != x.shape:
            raise ValueError("atoms must be nonempty parallel 1-D arrays")
        if not np.isfinite(self.bound_b) or self.bound_b < 0:
            raise ValueError("bound_b must be a finite nonnegative real")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(p))):
            raise ValueError("atom values must be finite")
        if np.any(p < 0) or abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        if np.any(np.abs(y) > self.bound_b):
            raise ValueError("every |y| must be at most bound_b")
        if x.min() < 0:
            raise ValueError("x indices must be nonnegative")
        k = int(x.max()) + 1
        if np.unique(x).size != k:
            raise ValueError("x indices must cover 0..K-1 without gaps")
        object.__setattr__(self, "_marginal_x", _freeze(np.bincount(x, weights=p, minlength=k), np.float64))

    @property
    def num_atoms(self) -> int:
        return self.x_indices.size

    @property
    def num_design_points(self) -> int:
        return int(self.x_indices.max()) + 1

    @property
    def marginal_x(self) -> np.ndarray:
        """Marginal law of X over the design points."""
        return self._marginal_x


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
class SampleSet:
    """n i.i.d. draws (x-index, y), plus the seed that produced them.

    As a measure, every pair carries mass 1/n in `probabilities`.
    """

    x_indices: np.ndarray
    y_values: np.ndarray
    seed: int
    probabilities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x_indices", _freeze(self.x_indices, np.int64))
        object.__setattr__(self, "y_values", _freeze(self.y_values, np.float64))
        object.__setattr__(self, "seed", int(self.seed))
        if self.x_indices.ndim != 1 or self.x_indices.size == 0:
            raise ValueError("sample must contain at least one pair")
        if self.y_values.shape != self.x_indices.shape:
            raise ValueError("x indices and y values must have equal length")
        if self.x_indices.min() < 0:
            raise ValueError("x indices must be nonnegative")
        if not np.all(np.isfinite(self.y_values)):
            raise ValueError("y values must be finite")
        object.__setattr__(self, "probabilities", _freeze(np.full(self.n, 1.0 / self.n), np.float64))

    @property
    def n(self) -> int:
        return self.x_indices.size


def sample(problem: DiscreteProblem, n: int, seed: int) -> SampleSet:
    """Draw n i.i.d. pairs from the problem's atom law, reproducibly."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    atom_idx = rng.choice(problem.num_atoms, size=n, p=problem.probabilities)
    return SampleSet(problem.x_indices[atom_idx], problem.y_values[atom_idx], seed=int(seed))


@dataclass(frozen=True, eq=False)
class SimplexWeights:
    """A point of the probability simplex: nonnegative weights summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if w.min() < -1e-12:
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1")
        np.maximum(w, 0.0, out=w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class Multiset:
    """A sorted multiset of m dictionary indices, representing (1/m) sum of rows."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) == 0:
            raise ValueError("multiset must contain at least one index")
        if any(i < 0 for i in idx):
            raise ValueError("indices must be nonnegative")
        if any(a > b for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be sorted nondecreasing")

    @classmethod
    def from_draws(cls, draws) -> "Multiset":
        return cls(tuple(sorted(int(i) for i in draws)))

    @property
    def m(self) -> int:
        return len(self.indices)

    def counts(self, size_m: int) -> np.ndarray:
        if self.indices[-1] >= size_m:
            raise ValueError(f"index {self.indices[-1]} out of range for dictionary of size {size_m}")
        return np.bincount(np.array(self.indices), minlength=size_m).astype(np.float64)


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


def multiset_average(dictionary: Dictionary, ms: Multiset) -> np.ndarray:
    """Average of the dictionary rows named by the multiset.

    Equals combine(dictionary, w) with w_j = count_j / m exactly, so vertex
    multisets reproduce dictionary rows bit for bit.
    """
    return combine(dictionary, ms.counts(dictionary.size_M) / ms.m)
