"""Empirical risk minimization over the simplex, segments, and convex sets.

The hull solver is Frank-Wolfe with away steps and exact line search.  The
empirical (or population) squared risk is a quadratic w' G w - 2 c' w + k in
the weights, where G, c, k are sufficient statistics of the data, so every
iteration costs O(M) after an O(K M^2) setup.  Termination is certified by
the linear-minimization duality gap, which upper bounds the suboptimality of
the returned iterate.

Solvers read only design indices, y values, and (for population objectives)
atom probabilities; they never look at a problem's bound_b.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import risk
from .model import Dictionary, SampleSet, Segment, SimplexWeights


@dataclass(frozen=True)
class SolverConfig:
    """Frank-Wolfe stopping rule: duality-gap tolerance and iteration cap."""

    max_iterations: int = 100_000
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True, eq=False)
class ErmSolution:
    """Certified minimizer over the simplex.

    duality_gap is the Frank-Wolfe gap at the returned weights, recomputed
    from scratch, so empirical_risk - duality_gap lower bounds the true
    minimum.  `converged` is False when the iteration cap was hit first; the
    solution is still returned, flagged.
    """

    weights: SimplexWeights
    empirical_risk: float
    duality_gap: float
    iterations: int
    converged: bool
    history: tuple | None = None


@dataclass(frozen=True, eq=False)
class ConstrainedSolution:
    """Projected-gradient minimizer over a caller-supplied closed convex set."""

    coefficients: np.ndarray
    risk: float
    fixed_point_residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class _Quadratic:
    gram: np.ndarray
    linear: np.ndarray
    constant: float

    def value(self, w: np.ndarray) -> float:
        return float(w @ self.gram @ w - 2.0 * (self.linear @ w) + self.constant)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * (self.gram @ w - self.linear)


def _quadratic_from_sample(dictionary: Dictionary, samples: SampleSet) -> _Quadratic:
    F = dictionary.values
    K = dictionary.num_design_points
    x = samples.x_indices
    if x.max() >= K:
        raise ValueError("sample refers to design points outside the dictionary")
    n = samples.n
    freq = np.bincount(x, minlength=K) / n
    ymass = np.bincount(x, weights=samples.y_values, minlength=K) / n
    const = float(samples.y_values @ samples.y_values) / n
    return _Quadratic((F * freq) @ F.T, F @ ymass, const)


def _quadratic_from_problem(dictionary: Dictionary, problem) -> _Quadratic:
    F = dictionary.values
    K = dictionary.num_design_points
    x = np.asarray(problem.x_indices)
    if int(x.max()) >= K:
        raise ValueError("problem refers to design points outside the dictionary")
    p = np.asarray(problem.probabilities, dtype=np.float64)
    y = np.asarray(problem.y_values, dtype=np.float64)
    px = np.bincount(x, weights=p, minlength=K)
    ymass = np.bincount(x, weights=p * y, minlength=K)
    const = float(p @ (y * y))
    return _Quadratic((F * px) @ F.T, F @ ymass, const)


def _quadratic(dictionary: Dictionary, data) -> _Quadratic:
    if isinstance(data, SampleSet):
        return _quadratic_from_sample(dictionary, data)
    return _quadratic_from_problem(dictionary, data)


def _risk_of(f: np.ndarray, data) -> float:
    if isinstance(data, SampleSet):
        return risk.empirical_risk(f, data)
    return risk.population_risk(f, data)


def _restricted_minimum(G: np.ndarray, c: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Affine minimizer of w'Gw - 2c'w over {sum w_S = 1, w off-support = 0}.

    The KKT system is consistent even when the restricted Gram is singular
    (null directions of the Gram never carry a linear term), so lstsq returns
    an exact minimizer.
    """
    k = support.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * G[np.ix_(support, support)]
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([2.0 * c[support], [1.0]])
    solution = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return solution[:k]


def _minimize_fw(quad: _Quadratic, config: SolverConfig, record_history: bool):
    """Fully corrective Frank-Wolfe on the simplex.

    Each outer iteration adds the vertex named by the linear-minimization
    oracle, then re-optimizes exactly over the convex hull of the active
    vertices (affine KKT solves with line-search drops, as in min-norm-point
    methods).  On a quadratic this terminates in finitely many vertex
    additions, so tight duality-gap tolerances are reachable even when the
    Gram matrix is rank deficient.
    """
    G, c = quad.gram, quad.linear
    M = c.size
    vertex_values = np.diag(G) - 2.0 * c
    start = int(np.argmin(vertex_values))
    support = [start]
    u = np.array([1.0])
    w = np.zeros(M)
    w[start] = 1.0
    history = [quad.value(w)] if record_history else None
    tol = config.tolerance
    converged = False
    iterations = 0
    best_value = quad.value(w)

    for iterations in range(1, config.max_iterations + 1):
        grad = quad.gradient(w)
        s = int(np.argmin(grad))
        gap = float(grad @ w) - float(grad[s])
        if gap <= tol:
            converged = True
            break
        if s in support:
            # w is already affine-optimal on its face, so a repeat vertex can
            # only be floating-point noise; no further progress is possible.
            break

        support.append(s)
        u = np.append(u, 0.0)
        while True:
            added = support.index(s) if s in support else None
            v = _restricted_minimum(G, c, np.array(support))
            if added is not None and v[added] <= 0.0:
                # rounding starved the new vertex; take a plain line-search
                # step toward it instead of cycling
                d = -u.copy()
                d[added] += 1.0
                curv = float(d @ G[np.ix_(support, support)] @ d)
                step = 1.0 if curv <= 0.0 else min(1.0, gap / (2.0 * curv))
                u = u * (1.0 - step)
                u[added] += step
                break
            if v.min() >= -1e-12:
                u = np.maximum(v, 0.0)
                break
            blocked = v < 0.0
            ratios = u[blocked] / (u[blocked] - v[blocked])
            gamma = float(ratios.min())
            u = u + gamma * (v - u)
            u[u <= 1e-14] = 0.0
            keep = u > 0.0
            support = [j for j, kept in zip(support, keep) if kept]
            u = u[keep]

        keep = u > 0.0
        support = [j for j, kept in zip(support, keep) if kept]
        u = u[keep]
        u = u / u.sum()
        w = np.zeros(M)
        w[support] = u
        value = quad.value(w)
        if record_history:
            history.append(value)
        if value >= best_value:
            # no measurable descent left; stop rather than stall
            break
        best_value = value

    grad = quad.gradient(w)
    gap = max(float(grad @ w) - float(grad.min()), 0.0)
    if gap <= tol:
        converged = True
    return w, gap, iterations, converged, history


def erm_convex_hull(
    dictionary: Dictionary,
    data,
    config: SolverConfig | None = None,
    record_history: bool = False,
) -> ErmSolution:
    """Minimize the squared risk over the convex hull of the dictionary.

    `data` is a SampleSet (empirical risk) or a DiscreteProblem (exact
    population risk).  Ties in the linear-minimization oracle break to the
    lowest dictionary index, so the output is deterministic.
    """
    cfg = config or SolverConfig()
    quad = _quadratic(dictionary, data)
    w, gap, iterations, converged, history = _minimize_fw(quad, cfg, record_history)
    f = w @ dictionary.values
    return ErmSolution(
        weights=SimplexWeights(w),
        empirical_risk=max(_risk_of(f, data), 0.0),
        duality_gap=gap,
        iterations=iterations,
        converged=converged,
        history=tuple(history) if history is not None else None,
    )


def simplex_grid(size_m: int, resolution: int) -> np.ndarray:
    """All weight vectors with coordinates in {0, 1/r, ..., 1}, lexicographic."""
    if size_m == 1:
        return np.ones((1, 1))
    bars = np.array(
        list(itertools.combinations(range(resolution + size_m - 1), size_m - 1)),
        dtype=np.int64,
    )
    padded = np.hstack(
        [
            np.full((bars.shape[0], 1), -1, dtype=np.int64),
            bars,
            np.full((bars.shape[0], 1), resolution + size_m - 1, dtype=np.int64),
        ]
    )
    counts = np.diff(padded, axis=1) - 1
    return counts / resolution


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
    quad = _quadratic(dictionary, data)
    W = simplex_grid(dictionary.size_M, grid_resolution)
    vals = np.einsum("ij,ij->i", W @ quad.gram, W) - 2.0 * (W @ quad.linear)
    best = int(np.argmin(vals))
    w = W[best]
    grad = quad.gradient(w)
    gap = max(float(grad @ w) - float(grad.min()), 0.0)
    f = w @ dictionary.values
    return ErmSolution(
        weights=SimplexWeights(w),
        empirical_risk=max(_risk_of(f, data), 0.0),
        duality_gap=gap,
        iterations=W.shape[0],
        converged=True,
    )


def erm_segment(segment: Segment, data) -> tuple[float, np.ndarray]:
    """Closed-form risk minimizer over a segment.

    theta_hat = <y - g_j, g_i - g_j> / ||g_i - g_j||^2 under the data measure,
    clamped to [0, 1]; degenerate segments (endpoints equal a.e.) return
    theta = 0 by convention.
    """
    if isinstance(data, SampleSet):
        x = data.x_indices
        if x.max() >= segment.endpoint_i.size:
            raise ValueError("sample refers to design points outside the segment endpoints")
        gj = segment.endpoint_j[x]
        d = segment.endpoint_i[x] - gj
        den = float(d @ d) / data.n
        num = float((data.y_values - gj) @ d) / data.n
    else:
        x = np.asarray(data.x_indices)
        p = np.asarray(data.probabilities, dtype=np.float64)
        y = np.asarray(data.y_values, dtype=np.float64)
        gj = segment.endpoint_j[x]
        d = segment.endpoint_i[x] - gj
        den = float(p @ (d * d))
        num = float(p @ ((y - gj) * d))
    theta = 0.0 if den <= 0.0 else min(1.0, max(0.0, num / den))
    return theta, segment.at(theta)


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
    quad = _quadratic(dictionary, data)
    M = quad.linear.size

    def proj(v: np.ndarray) -> np.ndarray:
        out = project(v)
        out = getattr(out, "weights", out)
        return np.asarray(out, dtype=np.float64)

    eigs = np.linalg.eigvalsh(quad.gram)
    L = max(2.0 * float(eigs[-1]), 1e-12)
    w = proj(np.zeros(M))
    f_w = quad.value(w)
    y = w.copy()
    t = 1.0
    converged = False
    residual = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        w_next = proj(y - quad.gradient(y) / L)
        f_next = quad.value(w_next)
        if f_next > f_w:
            # momentum overshoot: restart from the plain descent step
            w_next = proj(w - quad.gradient(w) / L)
            f_next = quad.value(w_next)
            t = 1.0
        residual = float(np.linalg.norm(w_next - proj(w_next - quad.gradient(w_next) / L)))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = w_next + ((t - 1.0) / t_next) * (w_next - w)
        w, f_w, t = w_next, f_next, t_next
        if residual <= fixed_point_tol * (1.0 + float(np.linalg.norm(w))):
            converged = True
            break
    f = w @ dictionary.values
    return ConstrainedSolution(
        coefficients=w,
        risk=max(_risk_of(f, data), 0.0),
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
