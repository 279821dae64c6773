"""Risk minimization over the convex hull of a dictionary and over segments.

The hull solver is Frank-Wolfe with away steps and exact line search.  The
squared risk is a quadratic w' G w - 2 c' w + k in the weights, where G, c, k
are sufficient statistics of the data, so every iteration costs O(M) after an
O(K M^2) setup.  Termination is certified by the linear-minimization duality
gap, which upper bounds the suboptimality of the returned iterate.

The data is any weighted-atom measure (see `model`): solvers read only its
`x_indices`, `y_values` and `probabilities`, so a sample gives the empirical
risk minimizer and a problem the population one.  They never look at a
problem's bound_b.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import risk
from .model import Dictionary, Segment, SimplexWeights


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
class _Quadratic:
    gram: np.ndarray
    linear: np.ndarray
    constant: float

    def value(self, w: np.ndarray) -> float:
        return float(w @ self.gram @ w - 2.0 * (self.linear @ w) + self.constant)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * (self.gram @ w - self.linear)


def _quadratic(dictionary: Dictionary, measure) -> _Quadratic:
    F = dictionary.values
    K = dictionary.num_design_points
    x, y, p = measure.x_indices, measure.y_values, measure.probabilities
    if x.max() >= K:
        raise ValueError("data refers to design points outside the dictionary")
    px = np.bincount(x, weights=p, minlength=K)
    ymass = np.bincount(x, weights=p * y, minlength=K)
    const = float(p @ (y * y))
    return _Quadratic((F * px) @ F.T, F @ ymass, const)


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

    `data` is a weighted-atom measure: a sample (empirical risk) or a
    problem (exact population risk).  Ties in the linear-minimization
    oracle break to the lowest dictionary index, so the output is
    deterministic.
    """
    cfg = config or SolverConfig()
    quad = _quadratic(dictionary, data)
    w, gap, iterations, converged, history = _minimize_fw(quad, cfg, record_history)
    f = w @ dictionary.values
    return ErmSolution(
        weights=SimplexWeights(w),
        empirical_risk=max(risk.empirical_risk(f, data), 0.0),
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


def erm_segment(segment: Segment, data) -> tuple[float, np.ndarray]:
    """Closed-form risk minimizer over a segment.

    theta_hat = <y - g_j, g_i - g_j> / ||g_i - g_j||^2 under the data measure,
    clamped to [0, 1]; degenerate segments (endpoints equal a.e.) return
    theta = 0 by convention.
    """
    x, y, p = data.x_indices, data.y_values, data.probabilities
    if x.max() >= segment.endpoint_i.size:
        raise ValueError("data refers to design points outside the segment endpoints")
    gj = segment.endpoint_j[x]
    d = segment.endpoint_i[x] - gj
    den = float(p @ (d * d))
    num = float(p @ ((y - gj) * d))
    theta = 0.0 if den <= 0.0 else min(1.0, max(0.0, num / den))
    return theta, segment.at(theta)
