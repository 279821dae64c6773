"""Localized empirical-process suprema, the fixed point of a complexity
bound, and the two-sided empirical/population risk comparison on segments.

The localized class is a segment's excess-loss class: the excess losses
L_theta of the points theta of the segment, tabulated on the (x, y) atoms of
a discrete problem, so P L_theta and P_n L_theta are exact dot products with
the atom probabilities and the sampled atom frequencies.  Its star hull
scales each L_theta by alpha in [0, 1], and the localized set keeps only
scalings with P(alpha L_theta) <= lambda.

The population and empirical means of L_theta are quadratics in theta.
Every supremum over theta in [0, 1] used here is of a piecewise quadratic or
rational function, so it is attained at 0, 1, or a closed-form breakpoint or
stationary point; the suprema are evaluated exactly on those candidates, for
all datasets and segments at once.  Each evaluator stacks the quadratics
whose vertices and roots it needs as coefficient planes a, b and c, each of
shape (quadratics, *batch), and finds every candidate in one root pass,
written candidate-major as (candidates, *batch): each candidate's plane is
contiguous, and the max over candidates is one reduction over the first
axis.  So an evaluator makes a fixed number of numpy calls whatever the
batch.

The two-sided comparison reads one evaluator: a dataset's smallest
violation-free level, the sup of 2|P L - P_n L| over the closed set of
segment points where |P L - P_n L| >= P L / 2.  isomorphism_check counts a
dataset as violating when that level exceeds gamma, and calibrate_c0 takes
an order statistic of the same levels, so a c0 calibrated on a draw meets
its target when checked on that draw.

Dataset r of a Monte Carlo run is replication rep_offset + r of the seed,
row r of model.draw_count_matrix(problem, n, seed, range(rep_offset,
rep_offset + reps)), so (problem, n, reps, seed, rep_offset) fixes every
dataset.  Every argument is checked by `model`'s rules before a cache is
read, where a seed of True would find the draw of 1.  Callers sweep levels
on one draw (x levels in the isomorphism check, localization levels in
localized_sup), and the level enters after the draw, so the module keeps
three caches, each of which gives the bits of a fresh computation:
- one per draw: the last call's atom counts (_rep_counts);
- one per (segment, problem) pair: the segment's excess loss tabulated on
  the atoms as a quadratic basis, and its population quadratic, which do not
  depend on the draw (_segment_loss_basis, the last BASIS_CACHE_SIZE pairs);
- one per (family, draw): the family's quadratics and each dataset's needed
  level (_dataset_levels), so checks at several x find them once.
localized_sup evaluates one segment's table against the cached draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import Dictionary, DiscreteProblem, Segment, _real, _seed, _whole, combine, draw_count_matrix
from .solver import erm_segment

# fixed-point search bracket and the relative width at which bisection stops
FIXED_POINT_FLOOR = 1e-300
FIXED_POINT_CEILING = 1e12
FIXED_POINT_REL_TOL = 1e-9
# segment loss bases kept, one per (segment, problem) pair
BASIS_CACHE_SIZE = 256


@dataclass(frozen=True, eq=False)
class LocalizedClass:
    """A segment's excess-loss class together with its localization level."""

    segment: Segment
    level_lambda: float

    def __post_init__(self):
        object.__setattr__(self, "level_lambda", _real(self.level_lambda, "level_lambda", positive=True))


def segment_excess_loss_class(segment: Segment, level: float) -> LocalizedClass:
    return LocalizedClass(segment, level)


@functools.lru_cache(maxsize=1)
def _rep_counts(problem: DiscreteProblem, n: int, reps: int, seed: int, rep_offset: int) -> np.ndarray:
    """Sampled atom counts, shape (reps, atoms); row r is replication rep_offset + r of the seed.

    The last call's read-only result is reused by the next call with equal
    arguments; a problem compares by identity, and the cache holds it.
    """
    counts = draw_count_matrix(problem, n, seed, range(rep_offset, rep_offset + reps))
    counts.setflags(write=False)
    return counts


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def _segment_loss_basis(segment: Segment, problem: DiscreteProblem) -> tuple[np.ndarray, np.ndarray]:
    """Atom-wise quadratic basis of the excess loss along the segment, and its population quadratic.

    With g_theta = g_j + theta (g_i - g_j) and g_star the population segment
    minimizer, the excess loss at an atom is a(z) theta^2 + b(z) theta + c(z).
    Returns the coefficients (a, b, c) on the last axis, shape (atoms, 3),
    and P L_theta's, problem.probabilities @ basis, shape (3,).  A segment
    must fit the problem's design, as `solver.erm_segment` checks first.

    The table depends on the segment and the problem only, so it is built
    once per pair: both arrays are read-only and cached, keyed by identity
    (segments and problems compare by identity), for the last
    BASIS_CACHE_SIZE pairs.
    """
    _, g_star = erm_segment(segment, problem)
    x = problem.x_indices
    y = problem.y_values
    u = segment.endpoint_j[x]
    v = (segment.endpoint_i - segment.endpoint_j)[x]
    basis = np.stack([v * v, -2.0 * v * (y - u), (y - u) ** 2 - (y - g_star[x]) ** 2], axis=-1)
    pop = problem.probabilities @ basis
    basis.setflags(write=False)
    pop.setflags(write=False)
    return basis, pop


def _poly(q, theta: np.ndarray) -> np.ndarray:
    """(a theta + b) theta + c for the coefficient planes q = (a, b, c), each
    broadcasting against the candidate-major theta; one array is allocated."""
    a, b, c = q
    value = a * theta
    value += b
    value *= theta
    value += c
    return value


def _thetas(vertex, roots) -> np.ndarray:
    """Candidate thetas, candidate-major, shape (2 + v + 2k, *batch).

    vertex = (a, b) are the coefficient planes, each (v, *batch), of the
    quadratics whose vertices are candidates, and roots = (a, b, c) the
    planes, each (k, *batch), of those whose real roots are.  Slots 0 and 1
    hold theta = 0 and 1, then come the v vertices -b / 2a, the k roots
    (-b - sqrt(b^2 - 4ac)) / 2a, or -c / b for a line, and the k roots
    (-b + sqrt(b^2 - 4ac)) / 2a, each group written by one divide.  A point
    that does not exist is NaN or infinite, and a point outside [0, 1] is
    left there: each caller decides what such a candidate means.
    """
    va, vb = vertex
    a, b, c = roots
    v, k = va.shape[0], a.shape[0]
    theta = np.empty((2 + v + 2 * k,) + a.shape[1:])
    theta[0] = 0.0
    theta[1] = 1.0
    lower = theta[2 + v : 2 + v + k]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(-vb, 2.0 * va, out=theta[2 : 2 + v])
        minus_b = -b
        root = np.sqrt(b * b - 4.0 * a * c)
        two_a = 2.0 * a
        np.divide(minus_b - root, two_a, out=lower)
        np.divide(-c, b, out=lower, where=a == 0.0)
        np.divide(minus_b + root, two_a, out=theta[2 + v + k :])
    return theta


def _planes(q: np.ndarray):
    """The coefficient planes (a, b, c) of quadratics q[..., (a, b, c)]: views, one per coefficient."""
    return q[..., 0], q[..., 1], q[..., 2]


def _segment_star_sup(pop: np.ndarray, diff: np.ndarray, level: float) -> np.ndarray:
    """sup over theta, alpha of alpha |D(theta)| with alpha PL(theta) <= level.

    pop = coefficients of P L_theta, diff = coefficients of (P - P_n) L_theta,
    on the last axis; diff's leading axes are the batch, and pop broadcasts
    to it.  The optimal alpha is min(1, level / PL).  Where PL <= level the
    objective |D| peaks at the vertex of D or a root of PL - level;
    elsewhere it is level |D| / PL, stationary at the roots of the numerator
    of (D / PL)', whose cubic term cancels.  D, PL - level and that numerator
    are stacked as coefficient planes of shape (3, *batch), so one root pass
    finds every candidate.  A candidate outside [0, 1] is clipped onto it:
    theta = 0 and 1 are candidates already.
    """
    pa, pb, pc = _planes(pop)
    da, db, dc = _planes(diff)
    q = np.empty((3, 3) + diff.shape[:-1])
    a, b, c = q
    a[0], b[0], c[0] = da, db, dc
    a[1], b[1] = pa, pb
    np.subtract(pc, level, out=c[1])
    np.subtract(da * pb, db * pa, out=a[2])
    np.multiply(2.0, da * pc - dc * pa, out=b[2])
    np.subtract(db * pc, dc * pb, out=c[2])
    theta = _thetas((a, b), (a, b, c))
    np.maximum(theta, 0.0, out=theta)
    np.minimum(theta, 1.0, out=theta)
    value = _poly((a[1], b[1], pc), theta)
    np.maximum(value, level, out=value)
    np.divide(level, value, out=value)
    deviation = _poly((a[0], b[0], c[0]), theta)
    value *= np.abs(deviation, out=deviation)
    # NaN candidates, points that do not exist, are skipped by np.fmax
    return np.fmax.reduce(value, axis=0)


def localized_sup(
    cls: LocalizedClass,
    problem: DiscreteProblem,
    n: int,
    reps: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of E sup |(P - P_n) h| over the localized star hull.

    Population quantities are exact; only the sample is random.  Replication r
    draws its sampled atom counts from the Philox stream keyed (seed, r), so
    estimates at different levels with the same seed share datasets and are
    exactly monotone in the level.  Returns (estimate, standard error).
    """
    # a standard error needs at least 2 replications
    reps, n, seed = _whole(reps, "reps", 2), _whole(n, "n", 1), _seed(seed)
    basis, pop = _segment_loss_basis(cls.segment, problem)
    emp = _rep_counts(problem, n, reps, seed, 0) @ basis / n
    return _mean_and_std_error(_segment_star_sup(pop, pop - emp, cls.level_lambda))


def _mean_and_std_error(values: np.ndarray) -> tuple[float, float]:
    """np.mean(values) and np.std(values, ddof=1) / sqrt(n), bit for bit.

    The same reductions and divisions in numpy's own order, without the
    wrappers of `np.mean` and `np.std`, which cost more than the arithmetic on
    a few values.
    """
    n = values.size
    mean = np.add.reduce(values) / n
    dev = values - mean
    return float(mean), math.sqrt(float(np.add.reduce(dev * dev)) / (n - 1)) / math.sqrt(n)


def fixed_point(bound) -> float:
    """Smallest lambda with bound(lambda) <= lambda / 8, by log-space bisection.

    Requires bound(lambda)/lambda non-increasing (the star-hull property),
    which makes the crossing predicate monotone; the property is spot-checked
    on a geometric grid.  Returns the bracket floor when even the floor
    already satisfies the inequality (e.g. bound identically 0).  A bound
    value that is NaN or infinite raises ValueError: every comparison with a
    NaN is False, so the search would return a bracket end as if it crossed.
    """
    def checked(lam: float) -> float:
        value = bound(lam)
        if not math.isfinite(value):
            raise ValueError(f"bound({lam!r}) is {value!r}, not finite")
        return value

    lo, hi = FIXED_POINT_FLOOR, FIXED_POINT_CEILING
    if checked(lo) <= lo / 8.0:
        return lo
    while checked(hi) > hi / 8.0:
        hi *= 8.0
        if hi > 1e300:
            raise ValueError("no crossing of lambda/8 found in the search bracket")

    probes = np.geomspace(max(lo, hi * 1e-12), hi, 8)
    ratios = [checked(t) / t for t in probes]
    for left, right in zip(ratios, ratios[1:]):
        if right > left * (1.0 + 1e-9) + 1e-300:
            raise ValueError("bound(lambda)/lambda is not non-increasing; not a star-hull bound")

    low, high = lo, hi
    while high / low > 1.0 + FIXED_POINT_REL_TOL:
        mid = math.sqrt(low * high)
        if checked(mid) <= mid / 8.0:
            high = mid
        else:
            low = mid
    return high


def _gamma(x: float, b: float, N: int, n: int, c0: float) -> float:
    """Union-bound localization level c0 b^2 (x + 2 log N) / n for N net points, on
    arguments its callers have checked (`_net_size`, `model._real`, `DiscreteProblem`)."""
    return c0 * b * b * (x + 2.0 * math.log(N)) / n


@dataclass(frozen=True)
class IsomorphismReport:
    """Violation tally for the two-sided excess-risk comparison on segments.

    A trial counts as a violation when any tested segment contains a point
    whose empirical/population excess-risk deviation is at least half its
    excess risk and above half the level gamma; the first comparison is not
    strict, so a tie there counts.  erm_checked counts the
    non-violating trials, on which the segment ERM's population excess is
    additionally compared against the level; erm_implication_failures should
    be 0 whenever the comparison logic is sound.

    gamma_or_rho holds the level gamma; the field keeps its name because the
    CLI and the benchmark read it.
    """

    x: float
    trials: int
    violations: int
    bound: float
    gamma_or_rho: float
    erm_checked: int = 0
    erm_implication_failures: int = 0
    resolution_limited: bool = False

    @property
    def violation_rate(self) -> float:
        return self.violations / self.trials if self.trials else 0.0


def _needed_level(pop: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Smallest level that avoids violation on this segment and dataset.

    The deviation |D| must exceed both PL/2 and level/2 to violate, so the
    needed level is the sup of 2|D| over the closed region {|D| >= PL/2}: at
    0, 1, the vertex of D, or a root of D -+ PL/2 on the region's boundary.
    D -+ PL/2 are stacked as coefficient planes of shape (2, *batch), diff's
    leading axes, so one root pass finds their roots; the candidates are
    theta = 0, 1, the vertex of D and those four roots.  A candidate outside
    [0, 1] becomes NaN, which np.fmax skips: clipped, a root would mark an
    endpoint that lies outside the region.
    """
    da, db, dc = _planes(diff)
    ha, hb, hc = _planes(0.5 * pop)
    q = np.empty((3, 2) + diff.shape[:-1])
    a, b, c = q
    np.subtract(da, ha, out=a[0])
    np.add(da, ha, out=a[1])
    np.subtract(db, hb, out=b[0])
    np.add(db, hb, out=b[1])
    np.subtract(dc, hc, out=c[0])
    np.add(dc, hc, out=c[1])
    theta = _thetas((da[None], db[None]), (a, b, c))
    np.copyto(theta, np.nan, where=(theta < 0.0) | (theta > 1.0))
    d = _poly((da, db, dc), theta)
    np.abs(d, out=d)
    # theta = 0, 1 and the vertex of D count only inside the region (a NaN
    # vertex stays NaN); the four roots lie on its boundary and count even
    # where rounding puts |D| an ulp below PL/2
    outside = d[:3] < 0.5 * _poly(_planes(pop), theta[:3])
    d *= 2.0
    np.copyto(d[:3], 0.0, where=outside)
    return np.fmax.reduce(d, axis=0)


def _net_size(segments: tuple, n, reps, net_size) -> tuple[int, int, int]:
    """(N, n, reps) as checked ints, N the net size in the level's union bound
    (the number of segments when net_size is None), for a nonempty family."""
    if not segments:
        raise ValueError("at least one segment is required")
    N = len(segments) if net_size is None else _whole(net_size, "num_net_functions", 1)
    return N, _whole(n, "n", 1), _whole(reps, "reps", 1)


@functools.lru_cache(maxsize=1)
def _dataset_levels(segments: tuple, problem: DiscreteProblem, n: int, reps: int, seed: int, rep_offset: int):
    """The draw shared by isomorphism_check and calibrate_c0.

    Returns the population segment quadratics, shape (segments, 3), the
    empirical ones on reps size-n datasets from _rep_counts, shape
    (reps, segments, 3), and each dataset's smallest violation-free level,
    the max of _needed_level over segments, shape (reps,); all read-only.
    The next call with the same segments (compared by identity), problem, n,
    reps, seed and rep_offset, which fix every dataset, reuses the result.
    """
    flat = np.hstack([_segment_loss_basis(segment, problem)[0] for segment in segments])
    counts = _rep_counts(problem, n, reps, seed, rep_offset)
    pop = (problem.probabilities @ flat).reshape(len(segments), 3)
    emp = (counts @ flat / n).reshape(reps, len(segments), 3)
    needed = np.max(_needed_level(pop, pop - emp), axis=1)
    for array in (pop, emp, needed):
        array.setflags(write=False)
    return pop, emp, needed


def isomorphism_check(
    segments,
    problem: DiscreteProblem,
    n: int,
    x: float,
    c0: float,
    reps: int,
    seed: int,
    num_net_functions: int | None = None,
    rep_offset: int = 0,
) -> IsomorphismReport:
    """Monte Carlo check of the two-sided comparison over a family of segments.

    Each replication draws a fresh size-n dataset, computes the exact
    population and empirical excess-loss quadratics for every segment, and
    counts as a violation when its smallest violation-free level exceeds
    gamma: some theta has |P L - P_n L| >= P L / 2 and > gamma / 2.  On
    non-violating datasets the empirical segment minimizer's population excess
    is compared to gamma, with a slack of 1e-12 b^2 for rounding, which
    scales with the data.  Replication r uses the Philox stream keyed
    (seed, rep_offset + r), so a run may be split into chunks without changing
    its outcome.
    """
    b, segments = problem.bound_b, tuple(segments)
    N, n, reps = _net_size(segments, n, reps, num_net_functions)
    seed, rep_offset, x, c0 = _seed(seed), _whole(rep_offset, "rep_offset", 0), _real(x, "x"), _real(c0, "c0")
    level = _gamma(x, b, N, n, c0)
    pop, emp, needed = _dataset_levels(segments, problem, n, reps, seed, rep_offset)

    violated = needed > level
    ea, eb = emp[..., 0], emp[..., 1]
    theta_hat = np.where(ea > 0.0, np.clip(-eb / (2.0 * np.where(ea > 0.0, ea, 1.0)), 0.0, 1.0), 0.0)
    erm_excess = np.max(_poly(_planes(pop), theta_hat), axis=1)
    violations = int(np.count_nonzero(violated))
    erm_checked = reps - violations
    erm_failures = int(np.count_nonzero(~violated & (erm_excess > level + 1e-12 * b * b)))
    bound = 4.0 * math.exp(-x)
    return IsomorphismReport(
        x=x,
        trials=reps,
        violations=violations,
        bound=bound,
        gamma_or_rho=level,
        erm_checked=erm_checked,
        erm_implication_failures=erm_failures,
        # with fewer than 1/bound trials the target rate cannot be resolved;
        # reported, not fatal
        resolution_limited=bound < 1.0 and reps * bound < 1.0,
    )


def calibrate_c0(
    segments,
    problem: DiscreteProblem,
    n: int,
    x_levels,
    reps: int,
    seed: int,
    num_net_functions: int | None = None,
    target_scale: float = 1.0,
) -> float:
    """Smallest c0 whose level keeps the violation rate at or below the target.

    Each calibration dataset's smallest violation-free level, the quantity
    isomorphism_check compares with gamma, does not depend on c0.  Per x
    level the required level is the order statistic of those levels that
    leaves floor(target * reps) datasets above it, at rate
    target = target_scale * min(1, 4 exp(-x)), and c0 is raised ulp by ulp
    until gamma, as it rounds, reaches that level.  So isomorphism_check at
    the returned c0 on the calibration draw (same seed, rep_offset 0) finds at
    most floor(target * reps) violations at every x.  The result is the max
    over x levels.  The value is an empirical calibration for a reference
    family, not a universal constant.

    A level whose target rate is 1 (any rate meets it) or whose gamma is 0
    for every c0 constrains nothing and is skipped; when every level is
    skipped there is nothing to calibrate, and ValueError is raised before
    any dataset is drawn.
    """
    x_levels = tuple(_real(x, "x") for x in x_levels)
    if not x_levels:
        raise ValueError("at least one x level is required")
    target_scale = _real(target_scale, "target_scale", positive=True, unit=True)
    b, segments = problem.bound_b, tuple(segments)
    N, n, reps = _net_size(segments, n, reps, num_net_functions)
    seed = _seed(seed)
    constraints = []
    for x in x_levels:
        denom = _gamma(x, b, N, n, 1.0)
        allowed = int(math.floor(target_scale * min(1.0, 4.0 * math.exp(-x)) * reps))
        if allowed < reps and denom > 0:
            constraints.append((x, denom, allowed))
    if not constraints:
        raise ValueError("nothing to calibrate: every x level has a target violation rate of 1 or a gamma of 0")
    _, _, needed = _dataset_levels(segments, problem, n, reps, seed, 0)
    order = np.sort(needed)[::-1]

    c0 = 0.0
    for x, denom, allowed in constraints:
        level_req = float(order[allowed])
        c = level_req / denom
        while _gamma(x, b, N, n, c) < level_req:
            c = math.nextafter(c, math.inf)
        c0 = max(c0, c)
    return c0


def random_net_segments(
    dictionary: Dictionary,
    m: int,
    num_functions: int,
    num_segments: int,
    seed: int,
) -> list[Segment]:
    """Segments between averages of m uniform random dictionary rows.

    Draws num_functions such averages, then num_segments distinct index
    pairs among them, all reproducibly from the seed.
    """
    # a segment joins 2 functions
    m, num_functions = _whole(m, "m", 1), _whole(num_functions, "num_functions", 2)
    num_segments = _whole(num_segments, "num_segments", 1)
    rng = np.random.default_rng(_seed(seed))
    size_m = dictionary.size_M
    functions = [
        combine(dictionary, np.bincount(rng.integers(0, size_m, size=m), minlength=size_m) / m)
        for _ in range(num_functions)
    ]
    pairs = [(i, j) for i in range(num_functions) for j in range(i + 1, num_functions)]
    if num_segments > len(pairs):
        raise ValueError("more segments requested than distinct pairs available")
    chosen = rng.choice(len(pairs), size=num_segments, replace=False)
    return [Segment(functions[pairs[k][0]], functions[pairs[k][1]]) for k in chosen]
