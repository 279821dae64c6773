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
all datasets and segments at once.

Dataset r of a Monte Carlo run is the atom counts model.draw_counts(problem,
n, [seed, rep_offset + r]), so (problem, n, reps, seed, rep_offset) fixes
every dataset.  Callers sweep levels on one draw (x levels in the isomorphism
check, localization levels in localized_sup), so calls with equal arguments
share one draw: the last atom counts and the last segment quadratics are kept
and reused.  Only the level changes between such calls, and the level enters
after the draw, so a shared draw gives the same bits as a fresh one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import Dictionary, DiscreteProblem, Segment, combine, draw_counts
from .solver import erm_segment

# peeling stops once a term is below this fraction of the running sum, or
# raises after PEEL_MAX_TERMS shells
PEEL_TRUNCATE_REL = 1e-15
PEEL_MAX_TERMS = 300
# fixed-point search bracket and the relative width at which bisection stops
FIXED_POINT_FLOOR = 1e-300
FIXED_POINT_CEILING = 1e12
FIXED_POINT_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LocalizedClass:
    """A segment's excess-loss class together with its localization level."""

    segment: Segment
    level_lambda: float

    def __post_init__(self):
        if not self.level_lambda > 0:
            raise ValueError("level_lambda must be positive")


def segment_excess_loss_class(segment: Segment, level: float) -> LocalizedClass:
    return LocalizedClass(segment, level)


@functools.lru_cache(maxsize=1)
def _rep_counts(problem: DiscreteProblem, n: int, reps: int, seed: int, rep_offset: int) -> np.ndarray:
    """Sampled atom counts, shape (reps, atoms); row r is draw_counts(problem, n, [seed, rep_offset + r]).

    The last call's read-only result is reused by the next call with equal
    arguments; a problem compares by identity, and the cache holds it.
    """
    counts = np.array([draw_counts(problem, n, [seed, rep_offset + rep]) for rep in range(reps)])
    counts.setflags(write=False)
    return counts


def _segment_loss_basis(segment: Segment, problem: DiscreteProblem) -> np.ndarray:
    """Atom-wise quadratic basis of the excess loss along the segment.

    With g_theta = g_j + theta (g_i - g_j) and g_star the population segment
    minimizer, the excess loss at an atom is a(z) theta^2 + b(z) theta + c(z).
    Returns the coefficients (a, b, c) on the last axis, shape (atoms, 3).
    """
    _, g_star = erm_segment(segment, problem)
    x = problem.x_indices
    y = problem.y_values
    u = segment.endpoint_j[x]
    v = (segment.endpoint_i - segment.endpoint_j)[x]
    return np.stack([v * v, -2.0 * v * (y - u), (y - u) ** 2 - (y - g_star[x]) ** 2], axis=-1)


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
    counts = _rep_counts(problem, n, reps, seed, rep_offset)
    pop = np.tensordot(problem.probabilities, basis, axes=1)
    emp = np.tensordot(counts, basis, axes=1) / n
    pop.setflags(write=False)
    emp.setflags(write=False)
    return pop, emp


def _poly(q: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Quadratics q[..., (a, b, c)] at theta[..., k]."""
    a, b, c = (q[..., i, None] for i in range(3))
    return (a * theta + b) * theta + c


def _points(q: np.ndarray) -> np.ndarray:
    """Vertex and real roots of the quadratics q[..., (a, b, c)], shape (..., 3).

    A point that does not exist (no vertex of a line, complex roots, the
    second root of a line) is NaN or infinite.
    """
    a, b, c = q[..., 0], q[..., 1], q[..., 2]
    out = np.empty(q.shape)
    line = a == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(b * b - 4.0 * a * c)
        two_a = 2.0 * a
        np.divide(-b, two_a, out=out[..., 0])
        np.divide(-b - root, two_a, out=out[..., 1])
        np.divide(-c, b, out=out[..., 1], where=line)
        np.divide(-b + root, two_a, out=out[..., 2])
    out[..., 2][line] = np.nan
    return out


def _candidates(*points: np.ndarray) -> np.ndarray:
    """theta in {0, 1} plus every listed point in [0, 1]; the rest become NaN.

    points are arrays (..., k) whose leading axes broadcast together.  Every
    candidate lies in [0, 1], so a max over candidates never exceeds the
    supremum over [0, 1]; NaN candidates are skipped by np.fmax.
    """
    lead = np.broadcast_shapes(*(p.shape[:-1] for p in points))
    pts = np.concatenate(
        [np.broadcast_to([0.0, 1.0], lead + (2,))] + [np.broadcast_to(p, lead + p.shape[-1:]) for p in points],
        axis=-1,
    )
    return np.where((pts >= 0.0) & (pts <= 1.0), pts, np.nan)


def _max(values: np.ndarray) -> np.ndarray:
    """Max over the candidate axis, skipping NaN candidates."""
    return np.fmax.reduce(values, axis=-1)


def _segment_star_sup(pop: np.ndarray, diff: np.ndarray, level: float) -> np.ndarray:
    """sup over theta, alpha of alpha |D(theta)| with alpha PL(theta) <= level.

    pop = coefficients of P L_theta, diff = coefficients of (P - P_n) L_theta.
    The optimal alpha is min(1, level / PL).  Where PL <= level the objective
    |D| peaks at the vertex of D or a root of PL - level; elsewhere it is
    level |D| / PL, stationary at the roots of the numerator of (D / PL)',
    whose cubic term cancels.
    """
    pa, pb, pc = pop[..., 0], pop[..., 1], pop[..., 2]
    da, db, dc = diff[..., 0], diff[..., 1], diff[..., 2]
    ratio = np.empty(np.broadcast_shapes(pop.shape, diff.shape))
    np.subtract(da * pb, db * pa, out=ratio[..., 0])
    np.multiply(2.0, da * pc - dc * pa, out=ratio[..., 1])
    np.subtract(db * pc, dc * pb, out=ratio[..., 2])
    theta = _candidates(_points(diff), _points(pop - [0.0, 0.0, level]), _points(ratio))
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
    sups = _segment_star_sup(pop, pop - emp, cls.level_lambda)[:, 0]
    estimate = float(np.mean(sups))
    std_error = float(np.std(sups, ddof=1) / math.sqrt(reps))
    return estimate, std_error


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
    whose empirical/population excess-risk deviation exceeds half the max of
    the excess risk and the level gamma.  erm_checked counts the
    non-violating trials, on which the segment ERM's population excess is
    additionally compared against the level; erm_implication_failures should
    be 0 whenever the comparison logic is sound.

    gamma_or_rho holds the level gamma; the field keeps its name because the
    CLI, the scripts and the benchmark read it.
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


def _max_deficit(pop: np.ndarray, diff: np.ndarray, level: float) -> np.ndarray:
    """sup over theta of |D(theta)| - max(PL(theta), level) / 2.

    The function is quadratic between the roots of D and of PL - level; on each
    piece it peaks at an end, the vertex of D, or a vertex of +-2D - PL.
    """
    theta = _candidates(
        _points(diff), _points(pop - [0.0, 0.0, level]), _points(2.0 * diff - pop), _points(-2.0 * diff - pop)
    )
    return _max(np.abs(_poly(diff, theta)) - 0.5 * np.maximum(_poly(pop, theta), level))


def _needed_level(pop: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Smallest level that avoids violation on this segment and dataset.

    The deviation |D| must exceed both PL/2 and level/2 to violate, so the
    needed level is the sup of 2|D| over the closed region {|D| >= PL/2}: at
    0, 1, the vertex of D, or a root of D -+ PL/2 on the region's boundary.
    """
    edges = np.concatenate([_points(diff - 0.5 * pop)[..., 1:], _points(diff + 0.5 * pop)[..., 1:]], axis=-1)
    theta = _candidates(_points(diff)[..., :1], edges)
    d = np.abs(_poly(diff, theta))
    member = d >= 0.5 * _poly(pop, theta)
    # the roots are region members even where rounding puts |D| an ulp below PL/2
    member[..., -edges.shape[-1]:] = True
    return _max(np.where(member, 2.0 * d, 0.0))


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
    looks for any theta violating |P L - P_n L| <= max(P L, gamma)/2, exactly,
    over the breakpoints and stationary points of the deficit.  On
    non-violating datasets the empirical segment minimizer's population excess
    is compared to gamma.  Replication r uses the stream derived from
    (seed, rep_offset + r), so a run may be split into chunks without changing
    its outcome.
    """
    segments = tuple(segments)
    if not segments:
        raise ValueError("at least one segment is required")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    N = num_net_functions if num_net_functions is not None else len(segments)
    level = gamma(x, problem.bound_b, N, n, c0)
    pop, emp = _segment_coefficients(segments, problem, n, reps, seed, rep_offset)

    violated = np.any(_max_deficit(pop, pop - emp, level) > 0.0, axis=1)
    ea, eb = emp[..., 0], emp[..., 1]
    theta_hat = np.where(ea > 0.0, np.clip(-eb / (2.0 * np.where(ea > 0.0, ea, 1.0)), 0.0, 1.0), 0.0)
    erm_excess = np.max(_poly(pop, theta_hat[..., None])[..., 0], axis=1)
    violations = int(np.count_nonzero(violated))
    erm_checked = reps - violations
    erm_failures = int(np.count_nonzero(~violated & (erm_excess > level + 1e-12)))
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

    For each calibration dataset the minimal violation-free level is computed
    once (it does not depend on c0); the per-x requirement is then an order
    statistic of those levels at rate target_scale * min(1, 4 exp(-x)).  The
    result is the max over x levels.  The value is an empirical calibration
    for a reference family, not a universal constant.
    """
    segments = tuple(segments)
    x_levels = tuple(x_levels)
    if not segments:
        raise ValueError("at least one segment is required")
    if not x_levels:
        raise ValueError("at least one x level is required")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if not 0 < target_scale <= 1:
        raise ValueError("target_scale must be in (0, 1]")
    N = num_net_functions if num_net_functions is not None else len(segments)
    pop, emp = _segment_coefficients(segments, problem, n, reps, seed, 0)
    order = np.sort(np.max(_needed_level(pop, pop - emp), axis=1))[::-1]

    c0 = 0.0
    for x in x_levels:
        denom = gamma(x, problem.bound_b, N, n, 1.0)
        target = target_scale * min(1.0, 4.0 * math.exp(-x))
        allowed = int(math.floor(target * reps))
        if allowed >= reps:
            continue
        level_req = float(order[allowed])
        if denom > 0:
            c0 = max(c0, level_req / denom)
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
