"""Risk minimization over the convex hull of a dictionary and over segments.

The hull solver is fully corrective Frank-Wolfe.  The squared risk of the
weights w depends on them only through the fitted values on the K design
points, so it is a least-squares problem there: with px the data's mass on
each design point and ymass its label mass, the risk is
||w @ A - target||^2 plus a constant, where A = F * sqrt(px) and
target = ymass / sqrt(px).  The corrective step, least squares on the active
vertices' affine hull, runs on a QR factor of the active face that is
updated as vertices enter and leave (Wolfe's min-norm-point method keeps such
a triangular factor), so an iteration costs one O(M K) gradient plus O(K |S|)
for the factor, and the solver holds O(M K) memory, with no M x M
Gram matrix.  Termination is certified by the linear-minimization duality gap,
which upper bounds the suboptimality of the returned iterate.

The data is any weighted-atom measure (see `model`): solvers read only its
`x_indices`, `y_values` and `probabilities`, so a sample gives the empirical
risk minimizer and a problem the population one.  They never look at a
problem's bound_b.
"""

from __future__ import annotations

import math
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
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, found {self.tolerance}")


@dataclass(frozen=True, eq=False)
class ErmSolution:
    """Certified minimizer over the simplex.

    duality_gap is the Frank-Wolfe gap at the returned weights, recomputed
    from scratch, so empirical_risk - duality_gap lower bounds the true
    minimum.  `converged` says whether that gap meets the tolerance; an
    unconverged solution is still returned, flagged.

    stop_reason says why the iteration loop ended: "gap" (the certificate met
    the tolerance), "repeat_vertex" (the oracle named a vertex that is active
    or numerically in the span of the active face, so rounding blocks
    further progress), "no_descent" (the corrective step did not lower the
    risk) or "max_iterations".  kkt_solves counts the corrective
    least-squares solves, and drop_steps those of them whose minimizer had a
    negative weight: the iterate then moved toward it only as far as the
    simplex boundary and dropped the vertex that reached 0.
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


_EPS = float(np.finfo(float).eps)
_ZERO = np.zeros(1)


class _Face:
    """The active vertices, with a QR factor of their affine hull kept current.

    With base vertex a0 = A[support[0]], the k = |S| - 1 differences
    D = (A[support[1:]] - a0).T (K x k) are kept as D = Q R, with Q's columns
    orthonormal and R upper triangular, together with c = Q.T (target - a0)
    and T = R^-1.  For a capacity of C columns, row i of `rows` is
    [R[i, :C] | T[:C, i] | c[i] | Q[:, i]]: a deletion rotates rows i and
    i + 1 of R, c and Q.T and columns i and i + 1 of T by the same Givens
    rotation, so one 2 x 2 product updates all four.  The face starts at one
    vertex and changes only by `append` and `drop`; the factor is never
    computed from scratch.  `indices` and `vertices` hold the active
    indices, base first and newest last, and the rows A[support], and
    `offset` is target - a0.  `active` is the length-M membership mask of
    the support, kept by `append` and `drop`, so testing a vertex costs one
    lookup.  A face has at most C = min(K, M - 1) differences (a
    K-dimensional span, M distinct vertices), so the buffers are allocated
    once at that capacity, as is the 2 x 2 `rotation`: memory
    O(K min(K, M) + M), within the order of A.
    """

    def __init__(self, A: np.ndarray, target: np.ndarray, start: int):
        K, C = A.shape[1], min(A.shape[1], A.shape[0] - 1)
        self.A, self.target, self.K, self.capacity = A, target, K, C
        self.k = 0
        self.rows = np.zeros((C, 2 * C + 1 + K))
        self.indices = np.zeros(C + 1, dtype=np.intp)
        self.vertices = np.zeros((C + 1, K))
        self.active = np.zeros(A.shape[0], dtype=bool)
        self.rotation = np.empty((2, 2))
        self.indices[0] = start
        self.vertices[0] = A[start]
        self.active[start] = True
        self.offset = target - A[start]

    @property
    def support(self) -> np.ndarray:
        """The active vertex indices, base first and newest last."""
        return self.indices[: self.k + 1]

    def append(self, s: int) -> bool:
        """Add the inactive vertex s as the last column, by Gram-Schmidt: O(K k).

        The residual is orthogonalized a second time when the first pass
        cancelled more than half of the difference's squared norm.  Returns
        False, and leaves the factor as it was, when the new difference is
        numerically in the span of the others: its residual is at most
        K eps times its norm, a cutoff free of the data's scale.
        """
        K, k = self.K, self.k
        if k == K:
            return False
        C = self.capacity
        Qt = self.rows[:k, 2 * C + 1 :]
        d = self.A[s] - self.vertices[0]
        w = Qt @ d
        r = d - w @ Qt
        # x.dot(x) is the BLAS dot that x @ x calls, with less dispatch
        dd, rr = float(d.dot(d)), float(r.dot(r))
        if rr < 0.5 * dd:
            again = Qt @ r
            r -= again @ Qt
            w += again
            rr = float(r.dot(r))
        if rr <= (K * _EPS) ** 2 * dd:
            return False
        B, rho = self.rows, math.sqrt(rr)
        row = B[k]
        row[:] = 0.0
        row[k] = rho
        np.divide(w @ B[:k, C : C + k], -rho, out=row[C : C + k])
        row[C + k] = 1.0 / rho
        np.divide(r, rho, out=row[2 * C + 1 :])
        row[2 * C] = row[2 * C + 1 :] @ self.offset
        B[:k, k] = w
        B[:k, C + k] = 0.0
        self.indices[k + 1] = s
        self.vertices[k + 1] = self.A[s]
        self.active[s] = True
        self.k = k + 1
        return True

    def drop(self, positions: list) -> None:
        """Remove the vertices at these support positions (ascending), each O(K k).

        A vertex p > 0 takes column p - 1 of D out of the factor.  When the
        base a0 leaves, a1 becomes the base and D loses its column 0 while
        every other column shifts by a1 - a0 = D[:, 0] = R[0, 0] Q e0; Q stays,
        R and c lose R[0, 0] from their row 0, and T without its row 0 is
        still a left inverse because T[1:, 0] = 0.  Either way, the deleted
        column leaves R upper Hessenberg from that column on, and Givens
        rotations restore its triangle (Gill, Golub, Murray and Saunders 1974).
        """
        B, I, V, C, G = self.rows, self.indices, self.vertices, self.capacity, self.rotation
        for p in reversed(positions):
            j, k = max(p - 1, 0), self.k
            self.active[I[p]] = False
            if p == 0:
                B[0, 1:k] -= B[0, 0]
                B[0, 2 * C] -= B[0, 0]
                self.offset = self.target - V[1]
            # delete column j of R, row j of T (column j of T.T) and vertex p
            B[:k, j : k - 1] = B[:k, j + 1 : k]
            B[:k, C + j : C + k - 1] = B[:k, C + j + 1 : C + k]
            I[p:k] = I[p + 1 : k + 1]
            V[p:k] = V[p + 1 : k + 1]
            # rotate rows i and i + 1 to zero the new subdiagonal entry (i + 1, i)
            for i in range(j, k - 1):
                a, b = B[i : i + 2, i].tolist()
                h = math.hypot(a, b)
                G[0, 0] = G[1, 1] = a / h
                G[0, 1] = b / h
                G[1, 0] = -b / h
                B[i : i + 2, i:] = G @ B[i : i + 2, i:]
                B[i + 1, i] = 0.0
            self.k = k - 1

    def minimizer(self) -> np.ndarray:
        """Minimizer of ||u @ A[support] - target|| over the affine hull sum(u) = 1.

        With u = (1 - sum z, z) this is least squares in z on D, solved by
        the triangular product z = R^-1 c, O(k^2), written straight into the
        returned vector.
        """
        k, C = self.k, self.capacity
        v = np.empty(k + 1)
        np.matmul(self.rows[:k, 2 * C], self.rows[:k, C : C + k], out=v[1:])
        v[0] = 1.0 - np.add.reduce(v[1:])
        return v

    def point(self, u: np.ndarray) -> np.ndarray:
        """The fitted values u @ A[support]."""
        return u @ self.vertices[: self.k + 1]


def _minimize_fw(A: np.ndarray, target: np.ndarray, config: SolverConfig):
    """Fully corrective Frank-Wolfe on the simplex for ||w @ A - target||^2.

    Each outer iteration adds the vertex named by the linear-minimization
    oracle, then re-optimizes exactly over the convex hull of the active
    vertices (least squares on their affine hull, with line-search drops, as
    in Wolfe's min-norm-point method).  On a quadratic this terminates in
    finitely many vertex additions, so tight duality-gap tolerances are
    reachable even when A is rank deficient.

    The active vertices are carried as a `_Face`: a QR factor of their
    difference matrix that an entering vertex extends by one Gram-Schmidt
    column and a leaving one, the base vertex included, shrinks by Givens
    rotations, each O(K |S|).  A corrective step is then the product of the
    kept triangular inverse R^-1 with c, O(|S|^2), on top of the iteration's
    O(MK) gradient.  Each iteration forms the residual g - target of its
    fitted values g once: its squared norm is the value, and A @ (2 resid)
    the next gradient, where doubling is exact.  An entering vertex whose
    difference is numerically in the span of the face's differences ends
    the solve with "repeat_vertex", as an active one (`face.active`) does:
    in exact arithmetic a vertex with a positive gap is affinely independent
    of an affine-optimal face, so only rounding names it.
    """
    start = int((np.einsum("ij,ij->i", A, A) - 2.0 * (A @ target)).argmin())
    face = _Face(A, target, start)
    u = np.array([1.0])
    resid = A[start] - target
    best_value = float(resid.dot(resid))
    stop_reason = "max_iterations"
    kkt_solves = 0
    drop_steps = 0

    # np.minimum.reduce and np.add.reduce are ndarray.min and .sum without
    # their Python wrappers, which cost more than the work at small K
    for iterations in range(1, config.max_iterations + 1):
        grad = A @ (2.0 * resid)
        s = int(grad.argmin())
        gap = float(grad[face.indices[: face.k + 1]] @ u) - float(grad[s])
        if gap <= config.tolerance:
            stop_reason = "gap"
            break
        if face.active[s] or not face.append(s):
            # u is already affine-optimal on its face, so a vertex on that
            # face can only be named by floating-point noise; no further
            # progress is possible.
            stop_reason = "repeat_vertex"
            break

        u = np.concatenate((u, _ZERO))
        done = False
        while not done:
            v = face.minimizer()
            kkt_solves += 1
            if face.indices[face.k] == s and v[-1] <= 0.0:
                # rounding starved the new vertex; take a plain line-search
                # step toward it instead of cycling
                d = -u
                d[-1] += 1.0
                step_values = face.point(d)
                curv = float(step_values.dot(step_values))
                step = 1.0 if curv <= 0.0 else min(1.0, gap / (2.0 * curv))
                u = u * (1.0 - step)
                u[-1] += step
                done = True
            elif np.minimum.reduce(v) >= -1e-12:
                u = np.maximum(v, 0.0)
                done = True
            else:
                drop_steps += 1
                blocked = v < 0.0
                ratios = u[blocked] / (u[blocked] - v[blocked])
                u = u + float(np.minimum.reduce(ratios)) * (v - u)
                u[u <= 1e-14] = 0.0
            # not `min(u) <= 0`: a NaN weight leaves the face as a zero does
            if not np.minimum.reduce(u) > 0.0:
                keep = u > 0.0
                face.drop(np.flatnonzero(~keep).tolist())
                u = u[keep]

        u = u / np.add.reduce(u)
        resid = face.point(u) - target
        value = float(resid.dot(resid))
        if value >= best_value:
            # no measurable descent left; stop rather than stall
            stop_reason = "no_descent"
            break
        best_value = value

    grad = A @ (2.0 * resid)
    gap = max(float(grad[face.indices[: face.k + 1]] @ u) - float(np.minimum.reduce(grad)), 0.0)
    return face, u, gap, iterations, stop_reason, kkt_solves, drop_steps


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
    face, u, gap, iterations, stop_reason, kkt_solves, drop_steps = _minimize_fw(
        *_least_squares(dictionary, data), cfg
    )
    w = np.zeros(dictionary.size_M)
    w[face.support] = u
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
