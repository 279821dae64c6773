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

Every drawn dataset is keyed by two 64-bit words, (seed, replication): it
is the first multinomial of numpy's counter-based Philox4x64 stream keyed by
them, a pure function of (problem, n, seed, replication), so any range of a
seed's replications draws the same datasets (`draw_count_matrix`; `sample`
draws replication 0).

Each argument is checked once, where its function is entered, by one rule:
`_whole` for a count, `_seed` for a seed, `_fits` for a design, `_real` for a real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PROB_SUM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-10


def _freeze(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _not_bool(value, name: str) -> None:
    """Refuse value if it is a Python or numpy bool: True is not read as 1."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not the bool {value!r}")


def _whole(value, name: str, least: int | None = None) -> int:
    """value as an int, which must equal it and, when least is given, be at
    least least: the one rule for a count.  2.5 and True are refused, not
    truncated or read as 1; 3.0 and np.int64(3) pass as 3."""
    _not_bool(value, name)
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be whole, found {value!r}")
    if least is not None and whole < least:
        raise ValueError(f"{name} must be at least {least}, found {value!r}")
    return whole


def _real(value, name: str, positive: bool = False, unit: bool = False) -> float:
    """value as a float, above 0 when positive (else at least 0) and at most 1 when unit (else
    finite): the one rule for a real parameter.  A bool, str, None or NaN is refused, with no numpy call."""
    _not_bool(value, name)
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, found {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int no float holds lies outside every range
        real = math.inf
    if not ((real > 0 if positive else real >= 0) and (real <= 1 if unit else real < math.inf)):
        closed = "lie in (0, 1]" if positive else "lie in [0, 1]"
        rule = closed if unit else "be positive and finite" if positive else "be finite and nonnegative"
        raise ValueError(f"{name} must {rule}, found {value!r}")
    return real


def _whole_array(values, name: str) -> np.ndarray:
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
        object.__setattr__(self, "x_indices", _whole_array(self.x_indices, "x indices"))
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
        object.__setattr__(self, "bound_b", _real(self.bound_b, "bound_b"))
        if np.any(np.abs(self.y_values) > self.bound_b):
            raise ValueError("every |y| must be at most bound_b")
        x, p = self.x_indices, self.probabilities
        k = int(x.max()) + 1
        if np.unique(x).size != k:
            raise ValueError("x indices must cover 0..K-1 without gaps")
        object.__setattr__(self, "marginal_x", _freeze(np.bincount(x, weights=p, minlength=k), np.float64))

    @property
    def num_design_points(self) -> int:
        return self.marginal_x.size


def _fits(size: int, data, what: str) -> None:
    """Refuse what, tabulated on size design points, unless it fits the data:
    the one rule for a design.  A problem takes exactly the K its marginal
    holds, so no value is ignored; any other measure, such as a sample, which
    need not hit every design point, takes any size past its largest x index."""
    if isinstance(data, DiscreteProblem):
        if size != data.num_design_points:
            raise ValueError(
                f"{what} of {size} values does not fit a problem of {data.num_design_points} design points"
            )
    elif size <= data.x_indices.max():
        raise ValueError(f"{what} of {size} values does not fit data reaching design point {data.x_indices.max()}")


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


@dataclass(frozen=True, eq=False)
class SampleSet(Measure):
    """n draws, as the count of each atom (x_indices[i], y_values[i]), and the
    seed that produced them, in [0, 2**64) (`_seed`); atom i has mass counts[i] / n."""

    probabilities: np.ndarray = field(init=False)
    counts: np.ndarray
    seed: int
    n: int = field(init=False)

    def __post_init__(self):
        counts = _whole_array(self.counts, "counts")
        n = int(counts.sum())
        if counts.size == 0 or counts.min() < 0 or n < 1:
            raise ValueError("counts must be nonnegative, with at least one draw")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "seed", _seed(self.seed))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "probabilities", counts / n)
        super().__post_init__()


def _seed(value, name: str = "seed") -> int:
    """value as a Philox key word in [0, 2**64), after the count rule (`_whole`): the one rule for a
    seed or a replication.  True and 2.5 are refused, which Philox would read as 1 and truncate to 2."""
    word = _whole(value, name)
    if not 0 <= word < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), found {word!r}")
    return word


def _draw(problem: DiscreteProblem, n: int, seed: int, replications: range) -> list[np.ndarray]:
    """Atom counts of one size-n dataset per replication, for arguments its caller has checked.

    One Philox bit generator serves every row: before each its state is set
    to the key words (seed, replication) with counter 0 and an empty buffer,
    so a row is the first multinomial of Generator(Philox(key=words)),
    whatever rows came before it.  Building a Philox per row would seed it first.
    """
    bit_generator = np.random.Philox(0)  # its state is replaced before every row
    generator = np.random.Generator(bit_generator)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    rows = []
    for replication in replications:
        state["state"]["key"] = (seed, replication)
        bit_generator.state = state
        rows.append(generator.multinomial(n, problem.probabilities))
    return rows


def draw_count_matrix(problem: DiscreteProblem, n: int, seed: int, replications: range) -> np.ndarray:
    """Atom counts of one size-n dataset per replication, shape (replications,
    atoms): replication r's row is the first multinomial of the Philox stream
    keyed (seed, r), so any range of a seed's replications gives the same rows.

    replications is a nonempty range, so n, the seed and its smallest and
    largest replication are checked once, and the matrix once with the checks
    a `SampleSet` runs on each sample's counts; the atoms are already checked.
    """
    n, seed = _whole(n, "sample size", 1), _seed(seed)
    if not isinstance(replications, range) or not replications:
        raise ValueError(f"replications must be a nonempty range, found {replications!r}")
    for end in (replications[0], replications[-1]):
        _seed(end, "replication")
    counts = np.array(_draw(problem, n, seed, replications), dtype=np.int64)
    if counts.min() < 0:
        raise ValueError("counts must be nonnegative")
    if (counts.sum(axis=1) != n).any():
        raise ValueError(f"every row of counts must sum to the sample size {n}")
    if (np.abs((counts / n).sum(axis=1) - 1.0) > PROB_SUM_TOL).any():
        raise ValueError("every row of counts / n must sum to 1")
    return counts


def sample(problem: DiscreteProblem, n: int, seed: int) -> SampleSet:
    """n i.i.d. draws from the problem's law, replication 0 of the seed: its atoms, with their draw counts."""
    return SampleSet(problem.x_indices, problem.y_values, draw_count_matrix(problem, n, seed, range(1))[0], seed)


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

