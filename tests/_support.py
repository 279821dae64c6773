"""Shared generators, brute-force oracles, reference solvers and the
weights.csv writer for the test suite.

The reference solvers read data only through the fields of a
`cvxagg.model.Measure` (`x_indices`, `y_values`, `probabilities`), so each
works on a SampleSet and on a DiscreteProblem alike.  `exhaustive_sample`
builds a sample from atom counts, and `pairs` from a list of pairs, each
drawn once, as `csvio.read_samples` does.  `lstsq_minimize_fw` is the hull
solver as it was before its corrective step ran on an updated QR factor, and
`net_gap` scans a grid of the hull for the m-net's approximation gap.

The proof's own arithmetic, which the library never runs, is here too, so
the acceptance criteria can check it against its closed forms: the
excess-loss moments behind the Bernstein step (`excess_loss_mean`,
`excess_loss_second_moment`), the net count and its (2eM/m)^m bound
(`net_cardinality_bound`), the segment class's 8 b sqrt(mu / n) ceiling
(`rademacher_segment_bound`) and the sum over dyadic shells
(`peeling_bound`).  `rate_std_error` is the binomial standard error that
criterion 8 allows an isomorphism check's violation rate.

`_segment_star_sup` and `_needed_level` at the end are slot-major versions
of the segment-sup evaluators, the reference that `cvxagg.localization`'s
candidate-major kernel must match bit for bit, and `batch_of_one_sup` is
`localized_sup` evaluated as a family of one segment, whose bits the
one-segment path must keep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cvxagg import localization
from cvxagg.model import Dictionary, DiscreteProblem, SampleSet, SimplexWeights, _fits, combine, draw_count_matrix
from cvxagg.risk import empirical_risk, population_risk, variance_term
from cvxagg.solver import ErmSolution, SolverConfig, erm_segment
from cvxagg.sparsify import enumerate_net


def random_problem(rng, K=3, b=1.0, atoms_per_x=2) -> DiscreteProblem:
    """Random discrete joint law: K design points, a few y atoms at each."""
    total = K * atoms_per_x
    probs = rng.dirichlet(np.ones(total))
    probs = probs / probs.sum()
    x = np.repeat(np.arange(K), atoms_per_x)
    y = rng.uniform(-b, b, size=total)
    return DiscreteProblem(x, y, probs, bound_b=b)


def random_dictionary(rng, M, K, b=1.0) -> Dictionary:
    return Dictionary(rng.uniform(-b, b, size=(M, K)))


def random_weights(rng, M) -> SimplexWeights:
    return SimplexWeights(rng.dirichlet(np.ones(M)))


def exhaustive_sample(problem: DiscreteProblem) -> SampleSet:
    """A sample whose empirical frequencies reproduce integer-multiple atom
    probabilities exactly: the problem's atoms, each counted n p_i times.

    Only valid when every probability is an integer multiple of 1/n for the
    implied n; callers construct problems that satisfy this.
    """
    n_units = round(1.0 / problem.probabilities.min())
    counts = np.round(problem.probabilities * n_units).astype(int)
    assert abs(float(counts.sum() / n_units) - 1.0) < 1e-12
    return SampleSet(problem.x_indices, problem.y_values, counts, seed=0)


def pairs(x, y) -> SampleSet:
    """The sample of the pairs (x[i], y[i]), each drawn once."""
    return SampleSet(x, y, np.ones(len(x), dtype=int), seed=0)


def enumerated_sparsified_risk(w, m, dictionary, problem) -> float:
    """Expected risk of the m-fold average by brute force over all index
    sequences, weighted by the product of the draw probabilities."""
    weights = w.weights if isinstance(w, SimplexWeights) else np.asarray(w, float)
    M = dictionary.size_M
    total = 0.0
    for sequence in itertools.product(range(M), repeat=m):
        prob = math.prod(weights[j] for j in sequence)
        if prob == 0.0:
            continue
        counts = np.bincount(sequence, minlength=M)
        total += prob * population_risk(combine(dictionary, counts / m), problem)
    return total


def net_gap(dictionary: Dictionary, problem: DiscreteProblem, m: int) -> tuple[float, float]:
    """(gap, ceiling): the least risk over the m-net minus the least over the
    hull, and variance_term / m at the hull minimizer.

    The hull minimum is a grid scan at a resolution of at least 48 steps per
    coordinate, divisible by m, through the same combine/population_risk
    path as the net points, so every net point reappears bitwise among the
    grid candidates and the gap is nonnegative in floating point, not just
    in exact arithmetic.  Guarded, as the grid is, to M <= 4.
    """
    if dictionary.size_M > 4:
        raise ValueError("net gap evaluation is limited to dictionaries with at most 4 functions")
    M = dictionary.size_M
    net_min = min(population_risk(combine(dictionary, row), problem) for row in enumerate_net(M, m))
    hull_min, best = np.inf, None
    for row in enumerate_net(M, m * max(1, -(-48 // m))):
        value = population_risk(combine(dictionary, row), problem)
        if value < hull_min:
            hull_min, best = value, row
    return net_min - hull_min, variance_term(SimplexWeights(best), dictionary, problem) / m


def excess_loss_mean(f: np.ndarray, f_star: np.ndarray, problem: DiscreteProblem) -> float:
    """R(f) - R(f_star); the excess risk when f_star minimizes over the class."""
    return population_risk(f, problem) - population_risk(f_star, problem)


def excess_loss_second_moment(f: np.ndarray, f_star: np.ndarray, problem: DiscreteProblem) -> float:
    """Exact second moment of the excess loss (y-f)^2 - (y-f_star)^2."""
    f, f_star = np.asarray(f, dtype=np.float64), np.asarray(f_star, dtype=np.float64)
    _fits(f.size, problem, "a function")
    _fits(f_star.size, problem, "a function")
    x, y = problem.x_indices, problem.y_values
    diff = (y - f[x]) ** 2 - (y - f_star[x]) ** 2
    return float(problem.probabilities @ (diff * diff))


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


# peeling stops once a term is below this fraction of the running sum, or
# raises after PEEL_MAX_TERMS shells
PEEL_TRUNCATE_REL = 1e-15
PEEL_MAX_TERMS = 300


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


def rate_std_error(report) -> float:
    """Binomial standard error of an `IsomorphismReport`'s violation rate; 0
    for a report of no trials."""
    if not report.trials:
        return 0.0
    p = report.violation_rate
    return math.sqrt(p * (1.0 - p) / report.trials)


def _hull_gradient(dictionary: Dictionary, measure, w: np.ndarray) -> np.ndarray:
    """Gradient in w of the measure's squared risk of w @ dictionary.values."""
    F = dictionary.values[:, measure.x_indices]
    resid = measure.y_values - w @ F
    return -2.0 * (F @ (measure.probabilities * resid))


def erm_oracle(dictionary: Dictionary, data, grid_resolution: int) -> ErmSolution:
    """Exhaustive minimization over the simplex grid; a test oracle.

    Guarded to M <= 4 because the grid has C(r + M - 1, M - 1) points.  The
    returned risk is within 4 b^2 M / grid_resolution of the true hull
    minimum for b-bounded data.
    """
    if dictionary.size_M > 4:
        raise ValueError("grid oracle is limited to dictionaries with at most 4 functions")
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be at least 1")
    W = enumerate_net(dictionary.size_M, grid_resolution)
    resid = data.y_values - (W @ dictionary.values)[:, data.x_indices]
    w = W[int(np.argmin((resid * resid) @ data.probabilities))]
    grad = _hull_gradient(dictionary, data, w)
    return ErmSolution(
        weights=SimplexWeights(w),
        empirical_risk=max(empirical_risk(w @ dictionary.values, data), 0.0),
        duality_gap=max(float(grad @ w) - float(grad.min()), 0.0),
        iterations=W.shape[0],
        converged=True,
        stop_reason="exhaustive",
        kkt_solves=0,
        drop_steps=0,
    )


def gap_tolerance(A: np.ndarray, target: np.ndarray, config: SolverConfig) -> float:
    """The duality-gap tolerance of ||w @ A - target||^2: config.tolerance
    times the data's scale, the largest of ||target||^2 and every row's
    ||A_j||^2, or NaN, which no gap meets, when that scale is not finite.
    Worked out here apart from the solver, to check its stop rule."""
    scale = np.append(np.einsum("ij,ij->i", A, A), target @ target).max()
    return config.tolerance * float(scale) if scale < math.inf else math.nan


def lstsq_minimize_fw(A: np.ndarray, target: np.ndarray, config: SolverConfig):
    """Fully corrective Frank-Wolfe for ||w @ A - target||^2 with a fresh
    `np.linalg.lstsq` on the active set's affine hull at every corrective
    step; a reference for `solver._minimize_fw`, with its relative stop rule
    (`gap_tolerance`).

    Returns (support, u, gap, iterations, stop_reason, kkt_solves,
    drop_steps) with the active set as an index array.
    """
    tolerance = gap_tolerance(A, target, config)
    start = int(np.argmin(np.einsum("ij,ij->i", A, A) - 2.0 * (A @ target)))
    support = np.array([start])
    u = np.array([1.0])
    g = A[start]
    best_value = float((g - target) @ (g - target))
    stop_reason = "max_iterations"
    kkt_solves = 0
    drop_steps = 0

    for iterations in range(1, config.max_iterations + 1):
        grad = 2.0 * (A @ (g - target))
        s = int(np.argmin(grad))
        gap = float(grad[support] @ u) - float(grad[s])
        if gap <= tolerance:
            stop_reason = "gap"
            break
        if s in support:
            stop_reason = "repeat_vertex"
            break

        support = np.append(support, s)
        u = np.append(u, 0.0)
        done = False
        while not done:
            rows = A[support]
            z = np.linalg.lstsq((rows[1:] - rows[0]).T, target - rows[0], rcond=None)[0]
            v = np.concatenate([[1.0 - z.sum()], z])
            kkt_solves += 1
            if support[-1] == s and v[-1] <= 0.0:
                d = -u
                d[-1] += 1.0
                step_values = d @ rows
                curv = float(step_values @ step_values)
                step = 1.0 if curv <= 0.0 else min(1.0, gap / (2.0 * curv))
                u = u * (1.0 - step)
                u[-1] += step
                done = True
            elif v.min() >= -1e-12:
                u = np.maximum(v, 0.0)
                done = True
            else:
                drop_steps += 1
                blocked = v < 0.0
                ratios = u[blocked] / (u[blocked] - v[blocked])
                u = u + float(ratios.min()) * (v - u)
                u[u <= 1e-14] = 0.0
            keep = u > 0.0
            support, u = support[keep], u[keep]

        u = u / u.sum()
        g = u @ A[support]
        value = float((g - target) @ (g - target))
        if value >= best_value:
            stop_reason = "no_descent"
            break
        best_value = value

    grad = 2.0 * (A @ (g - target))
    gap = max(float(grad[support] @ u) - float(grad.min()), 0.0)
    return support, u, gap, iterations, stop_reason, kkt_solves, drop_steps


@dataclass(frozen=True, eq=False)
class ConstrainedSolution:
    """Projected-gradient minimizer over a caller-supplied closed convex set."""

    coefficients: np.ndarray
    risk: float
    fixed_point_residual: float
    iterations: int
    converged: bool


def erm_constrained(
    dictionary: Dictionary,
    data,
    project,
    config: SolverConfig | None = None,
    fixed_point_tol: float = 1e-12,
) -> ConstrainedSolution:
    """Accelerated projected gradient over an arbitrary closed convex set.

    `project` must be an exact Euclidean projection onto the feasible set; it
    may return a raw vector or SimplexWeights.  Iterates until the
    projected-gradient fixed-point residual falls below fixed_point_tol
    (scaled) or the iteration cap is reached; non-convergence is flagged, not
    raised.
    """
    cfg = config or SolverConfig()
    F = dictionary.values[:, data.x_indices]
    M = dictionary.size_M

    def value(w: np.ndarray) -> float:
        return empirical_risk(w @ dictionary.values, data)

    def gradient(w: np.ndarray) -> np.ndarray:
        return _hull_gradient(dictionary, data, w)

    def proj(v: np.ndarray) -> np.ndarray:
        out = project(v)
        out = getattr(out, "weights", out)
        return np.asarray(out, dtype=np.float64)

    # the Hessian is 2 F diag(p) F', so its top eigenvalue is a Lipschitz constant
    L = max(2.0 * float(np.linalg.eigvalsh((F * data.probabilities) @ F.T)[-1]), 1e-12)
    w = proj(np.zeros(M))
    f_w = value(w)
    y = w.copy()
    t = 1.0
    converged = False
    residual = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        w_next = proj(y - gradient(y) / L)
        f_next = value(w_next)
        if f_next > f_w:
            # momentum overshoot: restart from the plain descent step
            w_next = proj(w - gradient(w) / L)
            f_next = value(w_next)
            t = 1.0
        residual = float(np.linalg.norm(w_next - proj(w_next - gradient(w_next) / L)))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = w_next + ((t - 1.0) / t_next) * (w_next - w)
        w, f_w, t = w_next, f_next, t_next
        if residual <= fixed_point_tol * (1.0 + float(np.linalg.norm(w))):
            converged = True
            break
    return ConstrainedSolution(
        coefficients=w,
        risk=max(empirical_risk(w @ dictionary.values, data), 0.0),
        fixed_point_residual=residual,
        iterations=iterations,
        converged=converged,
    )


def project_simplex(v) -> SimplexWeights:
    """Euclidean projection onto the probability simplex.

    Points already on the simplex are returned unchanged, which makes the
    projection exactly idempotent.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("input must be a nonempty 1-D vector")
    if np.all(v >= 0.0) and abs(float(v.sum()) - 1.0) <= 1e-12:
        return SimplexWeights(v)
    u = np.sort(v)[::-1]
    cumsum = np.cumsum(u)
    ranks = np.arange(1, v.size + 1)
    feasible = u + (1.0 - cumsum) / ranks > 0.0
    rho = int(np.nonzero(feasible)[0][-1])
    shift = (1.0 - cumsum[rho]) / (rho + 1.0)
    return SimplexWeights(np.maximum(v + shift, 0.0))


def project_box(v, lower, upper) -> np.ndarray:
    """Euclidean projection onto the box [lower, upper] (scalars or vectors)."""
    v = np.asarray(v, dtype=np.float64)
    lower = np.broadcast_to(np.asarray(lower, dtype=np.float64), v.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=np.float64), v.shape)
    if np.any(lower > upper):
        raise ValueError("box lower bounds exceed upper bounds")
    return np.clip(v, lower, upper)


def write_weights(weights: SimplexWeights, path) -> None:
    """weights.csv as the CLI reads it: index,weight."""
    rows = [f"{j},{float(w)!r}" for j, w in enumerate(weights.weights)]
    Path(path).write_text("\n".join(["index,weight", *rows]) + "\n")


# Slot-major reference for the segment-sup evaluators: the quadratics stacked
# as q[..., quadratic, (a, b, c)], the candidates on the last axis.  Every
# element takes the formula, in the order, of cvxagg.localization's
# candidate-major kernel, so the two must agree bit for bit.


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


def batch_of_one_sup(segment, problem: DiscreteProblem, n: int, reps: int, seed: int, level: float):
    """localized_sup's (estimate, standard error), with the segment evaluated as a family of one.

    The segment's (atoms, 3) loss basis is stacked to (atoms, 1, 3), its
    quadratics are evaluated at (1, 3) and (reps, 1, 3), and column 0 of the
    (reps, 1) suprema is averaged.
    """
    _, g_star = erm_segment(segment, problem)
    x, y = problem.x_indices, problem.y_values
    u = segment.endpoint_j[x]
    v = (segment.endpoint_i - segment.endpoint_j)[x]
    loss = np.stack([v * v, -2.0 * v * (y - u), (y - u) ** 2 - (y - g_star[x]) ** 2], axis=-1)
    flat = np.stack([loss], axis=1).reshape(loss.shape[0], 3)
    counts = draw_count_matrix(problem, n, seed, range(reps))
    pop = (problem.probabilities @ flat).reshape(1, 3)
    emp = (counts @ flat / n).reshape(reps, 1, 3)
    sups = localization._segment_star_sup(pop, pop - emp, level)[:, 0]
    return float(np.mean(sups)), float(np.std(sups, ddof=1) / math.sqrt(reps))
