"""Localized empirical-process suprema, peeling, fixed points, and the
two-sided empirical/population risk comparison on segments.

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
whose vertices and roots it needs and finds every candidate in one root
pass, so it makes a fixed number of numpy calls whatever the batch.

The two-sided comparison reads one evaluator: a dataset's smallest
violation-free level, the sup of 2|P L - P_n L| over the closed set of
segment points where |P L - P_n L| >= P L / 2.  isomorphism_check counts a
dataset as violating when that level exceeds gamma, and calibrate_c0 takes
an order statistic of the same levels, so a c0 calibrated on a draw meets
its target when checked on that draw.

Dataset r of a Monte Carlo run is the atom counts model.draw_counts(problem,
n, [seed, rep_offset + r]), so (problem, n, reps, seed, rep_offset) fixes
every dataset.  Callers sweep levels on one draw (x levels in the isomorphism
check, localization levels in localized_sup), so calls with equal arguments
share one draw: the last atom counts and the last segment quadratics are kept
and reused.  Only the level changes between such calls, and the level enters
after the draw, so a shared draw gives the same bits as a fresh one.  A
segment's population loss basis, the excess loss tabulated on the atoms,
does not depend on the draw at all; it is tabulated once per (segment,
problem) pair and kept for every later draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import Dictionary, DiscreteProblem, Segment, combine, draw_count_matrix
from .solver import erm_segment

# peeling stops once a term is below this fraction of the running sum, or
# raises after PEEL_MAX_TERMS shells
PEEL_TRUNCATE_REL = 1e-15
PEEL_MAX_TERMS = 300
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
        if not 0 < self.level_lambda < math.inf:
            raise ValueError(f"level_lambda must be positive and finite, found {self.level_lambda}")


def segment_excess_loss_class(segment: Segment, level: float) -> LocalizedClass:
    return LocalizedClass(segment, level)


@functools.lru_cache(maxsize=1)
def _rep_counts(problem: DiscreteProblem, n: int, reps: int, seed: int, rep_offset: int) -> np.ndarray:
    """Sampled atom counts, shape (reps, atoms); row r is draw_counts(problem, n, [seed, rep_offset + r]).

    The last call's read-only result is reused by the next call with equal
    arguments; a problem compares by identity, and the cache holds it.
    """
    counts = draw_count_matrix(problem, n, [[seed, rep_offset + rep] for rep in range(reps)])
    counts.setflags(write=False)
    return counts


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def _segment_loss_basis(segment: Segment, problem: DiscreteProblem) -> np.ndarray:
    """Atom-wise quadratic basis of the excess loss along the segment.

    With g_theta = g_j + theta (g_i - g_j) and g_star the population segment
    minimizer, the excess loss at an atom is a(z) theta^2 + b(z) theta + c(z).
    Returns the coefficients (a, b, c) on the last axis, shape (atoms, 3).

    The basis depends on the segment and the problem only, so it is
    tabulated once per pair: the result is read-only and cached, keyed by
    identity (segments and problems compare by identity), for the last
    BASIS_CACHE_SIZE pairs.
    """
    _, g_star = erm_segment(segment, problem)
    x = problem.x_indices
    y = problem.y_values
    u = segment.endpoint_j[x]
    v = (segment.endpoint_i - segment.endpoint_j)[x]
    basis = np.stack([v * v, -2.0 * v * (y - u), (y - u) ** 2 - (y - g_star[x]) ** 2], axis=-1)
    basis.setflags(write=False)
    return basis


@functools.lru_cache(maxsize=1)
def _segment_coefficients(segments: tuple, problem: DiscreteProblem, n: int, reps: int, seed: int, rep_offset: int):
    """Excess-loss quadratics: population, shape (segments, 3), and empirical
    on reps size-n datasets from _rep_counts, shape (reps, segments, 3).

    Both arrays are read-only.  The last call's result is reused by the next
    call with the same segments (compared by identity), problem, n, reps,
    seed and rep_offset: those fix every dataset, so a reused result equals
    a recomputed one bit for bit.
    """
    basis = np.stack([_segment_loss_basis(seg, problem) for seg in segments], axis=1)
    flat = basis.reshape(basis.shape[0], -1)
    counts = _rep_counts(problem, n, reps, seed, rep_offset)
    pop = (problem.probabilities @ flat).reshape(basis.shape[1:])
    emp = (counts @ flat / n).reshape(counts.shape[:1] + basis.shape[1:])
    pop.setflags(write=False)
    emp.setflags(write=False)
    return pop, emp


def _poly(q: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Quadratics q[..., (a, b, c)] at theta[..., k]."""
    a, b, c = (q[..., i, None] for i in range(3))
    return (a * theta + b) * theta + c


def _points(q: np.ndarray, out: np.ndarray) -> None:
    """Vertex and real roots of the quadratics q[..., (a, b, c)], written to out[..., 3].

    A point that does not exist (no vertex of a line, complex roots, the
    second root of a line) is NaN or infinite.  The caller ignores divide
    and invalid floating-point errors.
    """
    a, b, c = q[..., 0], q[..., 1], q[..., 2]
    line = a == 0.0
    minus_b = -b
    root = np.sqrt(b * b - 4.0 * a * c)
    two_a = 2.0 * a
    np.divide(minus_b, two_a, out=out[..., 0])
    np.divide(minus_b - root, two_a, out=out[..., 1])
    np.divide(-c, b, out=out[..., 1], where=line)
    np.divide(minus_b + root, two_a, out=out[..., 2])
    np.copyto(out[..., 2], np.nan, where=line)


def _thetas(q: np.ndarray) -> np.ndarray:
    """Candidate thetas for k stacked quadratics q[..., k, (a, b, c)], shape (..., 2 + 3k).

    Slots 0 and 1 hold theta = 0 and 1; slots 2 + 3j .. 4 + 3j hold the
    vertex and roots of quadratic j, all found in one pass.  A point outside
    [0, 1], or one that does not exist, is NaN.  Every candidate lies in
    [0, 1], so a max over candidates never exceeds the supremum over [0, 1];
    NaN candidates are skipped by np.fmax.
    """
    theta = np.empty(q.shape[:-2] + (2 + 3 * q.shape[-2],))
    theta[..., 0] = 0.0
    theta[..., 1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        _points(q, theta[..., 2:].reshape(q.shape))
    np.copyto(theta, np.nan, where=(theta < 0.0) | (theta > 1.0))
    return theta


def _stacked(pop: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """An empty (..., 3, 3) array for three quadratics on the broadcast batch of pop and diff."""
    return np.empty(np.broadcast_shapes(pop.shape, diff.shape)[:-1] + (3, 3))


def _max(values: np.ndarray) -> np.ndarray:
    """Max over the candidate axis, skipping NaN candidates."""
    return np.fmax.reduce(values, axis=-1)


def _segment_star_sup(pop: np.ndarray, diff: np.ndarray, level: float) -> np.ndarray:
    """sup over theta, alpha of alpha |D(theta)| with alpha PL(theta) <= level.

    pop = coefficients of P L_theta, diff = coefficients of (P - P_n) L_theta.
    The optimal alpha is min(1, level / PL).  Where PL <= level the objective
    |D| peaks at the vertex of D or a root of PL - level; elsewhere it is
    level |D| / PL, stationary at the roots of the numerator of (D / PL)',
    whose cubic term cancels.  The three quadratics D, PL - level and that
    numerator are stacked, so one root pass finds every candidate.
    """
    pa, pb, pc = pop[..., 0], pop[..., 1], pop[..., 2]
    da, db, dc = diff[..., 0], diff[..., 1], diff[..., 2]
    q = _stacked(pop, diff)
    q[..., 0, :] = diff
    q[..., 1, :] = pop
    q[..., 1, 2] -= level
    np.subtract(da * pb, db * pa, out=q[..., 2, 0])
    np.multiply(2.0, da * pc - dc * pa, out=q[..., 2, 1])
    np.subtract(db * pc, dc * pb, out=q[..., 2, 2])
    theta = _thetas(q)
    return _max(level / np.maximum(_poly(pop, theta), level) * np.abs(_poly(diff, theta)))


def localized_sup(
    cls: LocalizedClass,
    problem: DiscreteProblem,
    n: int,
    reps: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of E sup |(P - P_n) h| over the localized star hull.

    Population quantities are exact; only the sample is random.  Replication r
    draws its sampled atom counts from a stream derived from (seed, r), so
    estimates at different levels with the same seed share datasets and are
    exactly monotone in the level.  Returns (estimate, standard error).
    """
    if reps < 2:
        raise ValueError("at least 2 replications are required for a standard error")
    if n < 1:
        raise ValueError("n must be at least 1")
    pop, emp = _segment_coefficients((cls.segment,), problem, n, reps, seed, 0)
    return _mean_and_std_error(_segment_star_sup(pop, pop - emp, cls.level_lambda)[:, 0])


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


def rademacher_segment_bound(b: float, mu: float, n: int) -> float:
    """Localized complexity ceiling 8 b sqrt(mu / n) for a segment class."""
    if mu < 0 or n < 1:
        raise ValueError("mu must be nonnegative and n at least 1")
    return 8.0 * b * math.sqrt(mu / n)


def peeling_bound(per_level, lam: float) -> float:
    """sum_i 2^{-i} per_level(2^{i+1} lambda) over dyadic shells.

    per_level must make the weighted series converge (any c sqrt(mu) shape
    does); divergence is detected from a non-decreasing positive term and
    raised rather than summed forever.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    total = 0.0
    prev = math.inf
    for i in range(PEEL_MAX_TERMS):
        mu = 2.0 ** (i + 1) * lam
        if not math.isfinite(mu):
            raise ValueError("peeling levels overflowed before the series converged")
        term = 2.0 ** (-i) * float(per_level(mu))
        if term < 0 or not math.isfinite(term):
            raise ValueError("per_level must return finite nonnegative values")
        if i > 0 and term > 0 and term >= prev:
            raise ValueError("peeling series does not converge: terms are not decreasing")
        total += term
        if term <= PEEL_TRUNCATE_REL * total:
            return total
        prev = term
    raise ValueError("peeling series did not converge within the term cap")


def fixed_point(bound) -> float:
    """Smallest lambda with bound(lambda) <= lambda / 8, by log-space bisection.

    Requires bound(lambda)/lambda non-increasing (the star-hull property),
    which makes the crossing predicate monotone; the property is spot-checked
    on a geometric grid.  Returns the bracket floor when even the floor
    already satisfies the inequality (e.g. bound identically 0).
    """
    lo, hi = FIXED_POINT_FLOOR, FIXED_POINT_CEILING
    if bound(lo) <= lo / 8.0:
        return lo
    while bound(hi) > hi / 8.0:
        hi *= 8.0
        if hi > 1e300:
            raise ValueError("no crossing of lambda/8 found in the search bracket")

    probes = np.geomspace(max(lo, hi * 1e-12), hi, 8)
    ratios = [bound(t) / t for t in probes]
    for left, right in zip(ratios, ratios[1:]):
        if right > left * (1.0 + 1e-9) + 1e-300:
            raise ValueError("bound(lambda)/lambda is not non-increasing; not a star-hull bound")

    low, high = lo, hi
    while high / low > 1.0 + FIXED_POINT_REL_TOL:
        mid = math.sqrt(low * high)
        if bound(mid) <= mid / 8.0:
            high = mid
        else:
            low = mid
    return high


def gamma(x: float, b: float, N: int, n: int, c0: float) -> float:
    """Union-bound localization level c0 b^2 (x + 2 log N) / n for N net points."""
    if N < 1 or n < 1:
        raise ValueError("N and n must be at least 1")
    if not (0 <= x < math.inf and 0 <= b < math.inf and 0 <= c0 < math.inf):
        raise ValueError("x, b, and c0 must be finite and nonnegative")
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

    @property
    def rate_std_error(self) -> float:
        if not self.trials:
            return 0.0
        p = self.violation_rate
        return math.sqrt(p * (1.0 - p) / self.trials)


# _needed_level's candidate slots in _thetas over the stack (D, D - PL/2, D + PL/2):
# the roots of D and the vertices of D -+ PL/2 are not candidates, and the
# roots of D -+ PL/2 lie on the region's boundary
_NEEDED_UNUSED = [3, 4, 5, 8]
_NEEDED_EDGES = [6, 7, 9, 10]


def _needed_level(pop: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Smallest level that avoids violation on this segment and dataset.

    The deviation |D| must exceed both PL/2 and level/2 to violate, so the
    needed level is the sup of 2|D| over the closed region {|D| >= PL/2}: at
    0, 1, the vertex of D, or a root of D -+ PL/2 on the region's boundary.
    D, D - PL/2 and D + PL/2 are stacked, so one root pass finds them all.
    """
    q = _stacked(pop, diff)
    half = 0.5 * pop
    q[..., 0, :] = diff
    np.subtract(diff, half, out=q[..., 1, :])
    np.add(diff, half, out=q[..., 2, :])
    theta = _thetas(q)
    theta[..., _NEEDED_UNUSED] = np.nan
    d = np.abs(_poly(diff, theta))
    member = d >= 0.5 * _poly(pop, theta)
    # the roots are region members even where rounding puts |D| an ulp below PL/2
    member[..., _NEEDED_EDGES] = True
    return _max(np.where(member, 2.0 * d, 0.0))


def _net_size(segments: tuple, reps: int, net_size) -> int:
    """N, the net size in the level's union bound, once the family and the
    rep count are checked; callers check their levels with it before drawing."""
    if not segments:
        raise ValueError("at least one segment is required")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    return net_size if net_size is not None else len(segments)


def _dataset_levels(segments: tuple, problem: DiscreteProblem, n: int, reps: int, seed: int, rep_offset: int):
    """The draw shared by isomorphism_check and calibrate_c0.

    Returns the population and empirical segment quadratics and, per
    dataset, its smallest violation-free level, the max of _needed_level
    over segments, shape (reps,).
    """
    pop, emp = _segment_coefficients(segments, problem, n, reps, seed, rep_offset)
    return pop, emp, np.max(_needed_level(pop, pop - emp), axis=1)


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
    scales with the data.  Replication r uses the stream derived from
    (seed, rep_offset + r), so a run may be split into chunks without changing
    its outcome.
    """
    b, segments = problem.bound_b, tuple(segments)
    level = gamma(x, b, _net_size(segments, reps, num_net_functions), n, c0)
    pop, emp, needed = _dataset_levels(segments, problem, n, reps, seed, rep_offset)

    violated = needed > level
    ea, eb = emp[..., 0], emp[..., 1]
    theta_hat = np.where(ea > 0.0, np.clip(-eb / (2.0 * np.where(ea > 0.0, ea, 1.0)), 0.0, 1.0), 0.0)
    erm_excess = np.max(_poly(pop, theta_hat[..., None])[..., 0], axis=1)
    violations = int(np.count_nonzero(violated))
    erm_checked = reps - violations
    erm_failures = int(np.count_nonzero(~violated & (erm_excess > level + 1e-12 * b * b)))
    bound = 4.0 * math.exp(-x)
    return IsomorphismReport(
        x=float(x),
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
    x_levels = tuple(x_levels)
    if not x_levels:
        raise ValueError("at least one x level is required")
    if not 0 < target_scale <= 1:
        raise ValueError("target_scale must be in (0, 1]")
    b, segments = problem.bound_b, tuple(segments)
    N = _net_size(segments, reps, num_net_functions)
    constraints = []
    for x in x_levels:
        denom = gamma(x, b, N, n, 1.0)
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
        while gamma(x, b, N, n, c) < level_req:
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
    if m < 1:
        raise ValueError("m must be at least 1")
    if num_functions < 2:
        raise ValueError("need at least 2 functions to form segments")
    rng = np.random.default_rng(seed)
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
