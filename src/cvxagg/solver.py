"""Risk minimization over the convex hull of a dictionary and over segments.

The hull solver is fully corrective Frank-Wolfe.  The squared risk of the
weights w depends on them only through the fitted values on the K design
points, so it is a least-squares problem there: with px the data's mass on
each design point and ymass its label mass, the risk is
||w @ A - target||^2 plus a constant, where A = F * sqrt(px) and
target = ymass / sqrt(px).  Every iteration costs O(M K) time and the solver
holds O(M K) memory, with no M x M Gram matrix.  Termination is certified by
the linear-minimization duality gap, which upper bounds the suboptimality of
the returned iterate.

The data is any weighted-atom measure (see `model`): solvers read only its
`x_indices`, `y_values` and `probabilities`, so a sample gives the empirical
risk minimizer and a problem the population one.  They never look at a
problem's bound_b.
"""

from __future__ import annotations

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
    corrective least-squares solves, and drop_steps those of them whose
    minimizer had a negative weight: the iterate then moved toward it only
    as far as the simplex boundary and dropped the vertex that reached 0.
    """

    weights: SimplexWeights
    empirical_risk: float
    duality_gap: float
    iterations: int
    converged: bool
    stop_reason: str
    kkt_solves: int
    drop_steps: int


def _least_squares(dictionary: Dictionary, measure) -> tuple[np.ndarray, np.ndarray]:
    """A and target with risk(w) = ||w @ A - target||^2 + a constant.

    Design points the data gives no mass get a zero column in A and a zero
    target.
    """
    F = dictionary.values
    K = dictionary.num_design_points
    x, y, p = measure.x_indices, measure.y_values, measure.probabilities
    if x.max() >= K:
        raise ValueError("data refers to design points outside the dictionary")
    root = np.sqrt(np.bincount(x, weights=p, minlength=K))
    ymass = np.bincount(x, weights=p * y, minlength=K)
    target = np.divide(ymass, root, out=np.zeros(K), where=root > 0.0)
    return F * root, target


def _restricted_minimum(rows: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimizer of ||u @ rows - target|| over the affine hull sum(u) = 1.

    With u = (1 - sum z, z) the problem is unconstrained least squares in z
    on the differences rows[1:] - rows[0].  lstsq returns an exact minimizer
    even when those differences are rank deficient, and its rank cutoff is
    relative to their largest singular value, so the step is the same at any
    data scale.
    """
    z = np.linalg.lstsq((rows[1:] - rows[0]).T, target - rows[0], rcond=None)[0]
    return np.concatenate([[1.0 - z.sum()], z])


def _minimize_fw(A: np.ndarray, target: np.ndarray, config: SolverConfig):
    """Fully corrective Frank-Wolfe on the simplex for ||w @ A - target||^2.

    Each outer iteration adds the vertex named by the linear-minimization
    oracle, then re-optimizes exactly over the convex hull of the active
    vertices (unconstrained least squares on their affine hull, with
    line-search drops, as in Wolfe's min-norm-point method).  On a quadratic
    this terminates in finitely many vertex additions, so tight duality-gap
    tolerances are reachable even when A is rank deficient.  The active set
    and its weights are carried as arrays, with the newest vertex last, and
    so are the fitted values g = u @ A[support]; an iteration costs one
    O(MK) gradient.
    """
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
        if gap <= config.tolerance:
            stop_reason = "gap"
            break
        if s in support:
            # u is already affine-optimal on its face, so a repeat vertex can
            # only be floating-point noise; no further progress is possible.
            stop_reason = "repeat_vertex"
            break

        support = np.append(support, s)
        u = np.append(u, 0.0)
        done = False
        while not done:
            rows = A[support]
            v = _restricted_minimum(rows, target)
            kkt_solves += 1
            if support[-1] == s and v[-1] <= 0.0:
                # rounding starved the new vertex; take a plain line-search
                # step toward it instead of cycling
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
            # no measurable descent left; stop rather than stall
            stop_reason = "no_descent"
            break
        best_value = value

    grad = 2.0 * (A @ (g - target))
    gap = max(float(grad[support] @ u) - float(grad.min()), 0.0)
    return support, u, gap, iterations, stop_reason, kkt_solves, drop_steps


def erm_convex_hull(
    dictionary: Dictionary,
    data,
    config: SolverConfig | None = None,
) -> ErmSolution:
    """Minimize the squared risk over the convex hull of the dictionary.

    `data` is a weighted-atom measure: a sample (empirical risk) or a
    problem (exact population risk).  Ties in the linear-minimization
    oracle break to the lowest dictionary index, so the output is
    deterministic.
    """
    cfg = config or SolverConfig()
    support, u, gap, iterations, stop_reason, kkt_solves, drop_steps = _minimize_fw(
        *_least_squares(dictionary, data), cfg
    )
    w = np.zeros(dictionary.size_M)
    w[support] = u
    f = w @ dictionary.values
    return ErmSolution(
        weights=SimplexWeights(w),
        empirical_risk=max(risk.empirical_risk(f, data), 0.0),
        duality_gap=gap,
        iterations=iterations,
        converged=gap <= cfg.tolerance,
        stop_reason=stop_reason,
        kkt_solves=kkt_solves,
        drop_steps=drop_steps,
    )


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
