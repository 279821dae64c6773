"""Risk minimization over the convex hull of a dictionary and over segments.

The hull solver is fully corrective Frank-Wolfe.  The squared risk of the
weights w depends on them only through the fitted values f = w @ F on the K
design points, so the solver works there: with the data's mass px and
label mass ymass on each design point, every iteration costs O(M K) time and
the solver holds O(M K) memory, with no M x M Gram matrix.  Termination is
certified by the linear-minimization duality gap, which upper bounds the
suboptimality of the returned iterate.

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
    minimum.  `converged` says whether that gap meets the tolerance; an
    unconverged solution is still returned, flagged.

    stop_reason says why the iteration loop ended: "gap" (the certificate met
    the tolerance), "repeat_vertex" (the oracle named an active vertex, so
    rounding blocks further progress), "no_descent" (the corrective step did
    not lower the risk) or "max_iterations".  kkt_solves counts the
    corrective affine solves.
    """

    weights: SimplexWeights
    empirical_risk: float
    duality_gap: float
    iterations: int
    converged: bool
    stop_reason: str
    kkt_solves: int
    history: tuple | None = None


@dataclass(frozen=True, eq=False)
class _Quadratic:
    """The squared risk of w @ F, kept on the K design points.

    With f = w @ F the fitted values, the risk is f'(px f) - 2 ymass'f + k and
    its gradient in w is 2 (F (px f) - F ymass), so no M x M Gram is formed.
    """

    values: np.ndarray
    mass: np.ndarray
    ymass: np.ndarray
    linear: np.ndarray
    constant: float

    def value(self, f: np.ndarray) -> float:
        return float(f @ (self.mass * f) - 2.0 * (self.ymass @ f) + self.constant)

    def gradient(self, f: np.ndarray) -> np.ndarray:
        return 2.0 * (self.values @ (self.mass * f) - self.linear)

    def fitted(self, support, u: np.ndarray) -> np.ndarray:
        return u @ self.values[support]

    def gram(self, support) -> np.ndarray:
        """The Gram block of the functions in support."""
        rows = self.values[support]
        return (rows * self.mass) @ rows.T


def _quadratic(dictionary: Dictionary, measure) -> _Quadratic:
    F = dictionary.values
    K = dictionary.num_design_points
    x, y, p = measure.x_indices, measure.y_values, measure.probabilities
    if x.max() >= K:
        raise ValueError("data refers to design points outside the dictionary")
    px = np.bincount(x, weights=p, minlength=K)
    ymass = np.bincount(x, weights=p * y, minlength=K)
    const = float(p @ (y * y))
    return _Quadratic(F, px, ymass, F @ ymass, const)


def _restricted_minimum(quad: _Quadratic, support: np.ndarray) -> np.ndarray:
    """Affine minimizer of w'Gw - 2c'w over {sum w_S = 1, w off-support = 0}.

    The KKT system is consistent even when the restricted Gram is singular
    (null directions of the Gram never carry a linear term), so lstsq returns
    an exact minimizer.  The Gram rows are divided by the power of two nearest
    above the block's largest diagonal entry, so at any data scale they stay
    comparable to the unit constraint row and lstsq's rank cutoff keeps it.
    """
    k = support.size
    block = quad.gram(support)
    _, exponent = np.frexp(block.diagonal().max())
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = np.ldexp(2.0 * block, -exponent)
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([np.ldexp(2.0 * quad.linear[support], -exponent), [1.0]])
    solution = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return solution[:k]


def _minimize_fw(quad: _Quadratic, config: SolverConfig, record_history: bool):
    """Fully corrective Frank-Wolfe on the simplex.

    Each outer iteration adds the vertex named by the linear-minimization
    oracle, then re-optimizes exactly over the convex hull of the active
    vertices (affine KKT solves with line-search drops, as in min-norm-point
    methods).  On a quadratic this terminates in finitely many vertex
    additions, so tight duality-gap tolerances are reachable even when the
    Gram matrix is rank deficient.  The iterate's fitted values f = w @ F
    are carried along, so an iteration costs one O(MK) gradient.
    """
    F = quad.values
    M = F.shape[0]
    vertex_values = (F * F) @ quad.mass - 2.0 * quad.linear
    start = int(np.argmin(vertex_values))
    support = [start]
    u = np.array([1.0])
    w = np.zeros(M)
    w[start] = 1.0
    f = F[start]
    best_value = quad.value(f)
    history = [best_value] if record_history else None
    tol = config.tolerance
    converged = False
    stop_reason = "max_iterations"
    kkt_solves = 0
    iterations = 0

    for iterations in range(1, config.max_iterations + 1):
        grad = quad.gradient(f)
        s = int(np.argmin(grad))
        gap = float(grad @ w) - float(grad[s])
        if gap <= tol:
            converged = True
            stop_reason = "gap"
            break
        if s in support:
            # w is already affine-optimal on its face, so a repeat vertex can
            # only be floating-point noise; no further progress is possible.
            stop_reason = "repeat_vertex"
            break

        support.append(s)
        u = np.append(u, 0.0)
        while True:
            added = support.index(s) if s in support else None
            v = _restricted_minimum(quad, np.array(support))
            kkt_solves += 1
            if added is not None and v[added] <= 0.0:
                # rounding starved the new vertex; take a plain line-search
                # step toward it instead of cycling
                d = -u.copy()
                d[added] += 1.0
                g = quad.fitted(support, d)
                curv = float(g @ (quad.mass * g))
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
        f = quad.fitted(support, u)
        value = quad.value(f)
        if record_history:
            history.append(value)
        if value >= best_value:
            # no measurable descent left; stop rather than stall
            stop_reason = "no_descent"
            break
        best_value = value

    grad = quad.gradient(f)
    gap = max(float(grad @ w) - float(grad.min()), 0.0)
    if gap <= tol:
        converged = True
    return w, gap, iterations, converged, history, stop_reason, kkt_solves


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
    w, gap, iterations, converged, history, stop_reason, kkt_solves = _minimize_fw(quad, cfg, record_history)
    f = w @ dictionary.values
    return ErmSolution(
        weights=SimplexWeights(w),
        empirical_risk=max(risk.empirical_risk(f, data), 0.0),
        duality_gap=gap,
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
        kkt_solves=kkt_solves,
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
