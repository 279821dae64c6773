"""Shared generators, brute-force oracles, reference solvers and CSV writers
for the test suite.

The reference solvers read data only through the fields of a
`cvxagg.model.Measure` (`x_indices`, `y_values`, `probabilities`), so each
works on a SampleSet and on a DiscreteProblem alike.  `exhaustive_sample`
builds a sample from atom counts, and `pairs` from a list of pairs, each
drawn once, as `csvio.read_samples` does.  `lstsq_minimize_fw` is the hull
solver as it was before its corrective step ran on an updated QR factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cvxagg.model import Dictionary, DiscreteProblem, SampleSet, SimplexWeights, combine
from cvxagg.risk import empirical_risk, population_risk
from cvxagg.solver import ErmSolution, SolverConfig
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


def lstsq_minimize_fw(A: np.ndarray, target: np.ndarray, config: SolverConfig):
    """Fully corrective Frank-Wolfe for ||w @ A - target||^2 with a fresh
    `np.linalg.lstsq` on the active set's affine hull at every corrective
    step; a reference for `solver._minimize_fw`.

    Returns (support, u, gap, iterations, stop_reason, kkt_solves,
    drop_steps) with the active set as an index array.
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


def write_problem(problem: DiscreteProblem, path) -> None:
    """problem.csv as the CLI reads it: x_index,y_value,probability,bound_b."""
    rows = [
        f"{int(x)},{float(y)!r},{float(p)!r},{problem.bound_b!r}"
        for x, y, p in zip(problem.x_indices, problem.y_values, problem.probabilities)
    ]
    Path(path).write_text("\n".join(["x_index,y_value,probability,bound_b", *rows]) + "\n")


def write_weights(weights: SimplexWeights, path) -> None:
    """weights.csv as the CLI reads it: index,weight."""
    rows = [f"{j},{float(w)!r}" for j, w in enumerate(weights.weights)]
    Path(path).write_text("\n".join(["index,weight", *rows]) + "\n")
