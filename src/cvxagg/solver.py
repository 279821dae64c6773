"""Risk minimization over the convex hull of a dictionary and over segments.

The hull solver is fully corrective Frank-Wolfe.  The squared risk of the
weights w depends on them only through the fitted values on the K design
points, so it is a least-squares problem there: with px the data's mass on
each design point and ymass its label mass, the risk is
||w @ A - target||^2 plus a constant, where A = F * sqrt(px) and
target = ymass / sqrt(px).  The corrective step, least squares on the active
vertices' affine hull, runs on a QR factor of the active face that is
updated as vertices enter and leave (Wolfe's min-norm-point method keeps such
a triangular factor), so an iteration costs one O(M K) gradient plus O(K C)
for the factor, C = min(K, M - 1), and the solver holds O(M K) memory, with
no M x M Gram matrix.  Termination is certified by the linear-minimization
duality gap, which upper bounds the suboptimality of the returned iterate.

The solver is batched: `erm_convex_hull_blocks` solves many datasets, each
on its own dictionary of any K and M, given as blocks of datasets that share
a dictionary and atoms, one probability row per dataset, and returns each
block's weights as one matrix and its solves' statistics by `ErmSolution`
field name.  It solves the datasets of one K and one C
together, in rounds of one iteration of every dataset still running, so the
per-call cost of numpy is paid once per round instead of once per dataset,
and it holds each dictionary uncopied.  `erm_convex_hull`, one block
of one dataset returned as an `ErmSolution`, serves the CLI and the
population oracle.  The contract is
that a dataset's weights, gap, counters and stop reason have the same bits
in any batch, so results never depend on how the work was split.  Two
things keep it.  Every product is taken per dataset: `np.matmul` over a
stack makes one BLAS call per dataset, of shapes that depend on that
dataset alone, whereas one GEMM over the batch rounds a row differently
from the same row multiplied alone (on OpenBLAS with one thread, all 153 rows tried at K in {16, 64, 256},
M in {16, 256, 512} and 2 to 10 rows differed from the row's GEMV, and no
row of a stacked matmul or of np.einsum differed; the stacked matmul took
about half np.einsum's time at these sizes).  And every dataset's face is
padded to the capacity C, never to the batch's largest face, so the lengths
it is reduced over do not depend on the others.  Dictionaries of different
M share a batch only through the oracle's gradient rows, padded to the
largest M with +inf, which never wins an argmin.

The data is any `model.Measure`: solvers read only its `x_indices`,
`y_values` and `probabilities`, so a sample (atoms weighted by their draw
counts) gives the empirical risk minimizer and a problem the population
one.  They never look at a problem's bound_b.  A dictionary or segment must
fit the data's design (`model._fits`), checked once per block of datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import risk
from .model import Dictionary, Measure, Segment, SimplexWeights, _fits, _real, _whole, combine, simplex_rows


@dataclass(frozen=True)
class SolverConfig:
    """Frank-Wolfe stopping rule: duality-gap tolerance and iteration cap.

    The tolerance is relative to each dataset's own scale: a solve meets it
    when its gap is at most tolerance * max(||target||^2, max_j ||A_j||^2),
    the largest squared norm of the least-squares target and of the vertices
    A_j = F_j * sqrt(px) (see the module docstring).  Rescaling (F, y) by s
    multiplies both the gap and that scale by s^2, so "converged" means the
    same at every data scale.  Data and dictionary bounded by b have a scale
    of at most b^2, so at b = 1 the test is never looser than gap <=
    tolerance.  A scale that is not finite meets no tolerance.
    """

    max_iterations: int = 100_000
    tolerance: float = 1e-8

    def __post_init__(self):
        # a cap of 2.5 would never equal the iteration count, so it is refused
        object.__setattr__(self, "max_iterations", _whole(self.max_iterations, "max_iterations", 1))
        object.__setattr__(self, "tolerance", _real(self.tolerance, "tolerance", positive=True))


@dataclass(frozen=True, eq=False)
class ErmSolution:
    """Certified minimizer over the simplex.

    duality_gap is the Frank-Wolfe gap at the returned weights, recomputed
    from scratch, so empirical_risk - duality_gap lower bounds the true
    minimum.  `converged` says whether that gap meets the tolerance, taken
    relative to the data's scale (see `SolverConfig`); an unconverged
    solution is still returned, flagged.

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


def _least_squares(K: int, blocks) -> tuple[np.ndarray, np.ndarray]:
    """root[b] and target[b] with risk_b(w) = ||(w @ F) * root[b] - target[b]||^2
    + a constant, for each dataset b of a batch on K design points.

    blocks are (atoms, probabilities) pairs: row r of the (reps, atoms)
    matrix probabilities is one dataset's mass on the atoms' x_indices (each
    below K, as the caller checked) and y_values, block by block, row by row.
    root = sqrt(px) and target = ymass / root on the K design points, so the
    rows of A = F * root are the vertices.  Design points the data gives no
    mass get a zero root and a zero target.  One bincount pair serves the
    batch: dataset b's design indices are offset by b K, and the bincount
    reads the atoms in order within a dataset and the datasets in order, so
    each bin sums its own dataset's atoms in their order, and row b has the
    bits of that dataset's bincount alone.
    """
    reps = [P.shape[0] for _, P in blocks]
    B = sum(reps)
    x = np.concatenate([np.tile(atoms.x_indices, r) for (atoms, _), r in zip(blocks, reps)])
    x += np.repeat(np.arange(0, B * K, K), np.repeat([atoms.x_indices.size for atoms, _ in blocks], reps))
    p = np.concatenate([P.ravel() for _, P in blocks])
    y = np.concatenate([np.tile(atoms.y_values, r) for (atoms, _), r in zip(blocks, reps)])
    root = np.sqrt(np.bincount(x, weights=p, minlength=B * K)).reshape(B, K)
    ymass = np.bincount(x, weights=p * y, minlength=B * K).reshape(B, K)
    target = np.divide(ymass, root, out=np.zeros((B, K)), where=root > 0.0)
    return root, target


_EPS = float(np.finfo(float).eps)


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[b] . y[b] for every rep b."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _vecmat(x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """x[b] @ Y[b] for every rep b, or x[b] @ Y for a shared 2-D Y."""
    return np.matmul(x[:, None, :], Y)[:, 0]


def _matvec(Y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Y[b] @ x[b] for every rep b."""
    return np.matmul(Y, x[:, :, None])[:, :, 0]


def _runs(which: np.ndarray) -> list:
    """(g, lo, hi) for each maximal run of reps lo..hi - 1 on dictionary g."""
    edges = [0, *(np.flatnonzero(which[1:] != which[:-1]) + 1).tolist(), which.size]
    return [(int(which[lo]), lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if lo < hi]


def _rows(F, runs: list, s: np.ndarray) -> np.ndarray:
    """Row s[i] of rep i's dictionary for every rep i: one gather per run."""
    out = np.empty((s.size, F[0].shape[1]))
    for g, lo, hi in runs:
        out[lo:hi] = F[g][s[lo:hi]]
    return out


def _by_dictionary(x: np.ndarray, Y: list, runs: list, width: int) -> np.ndarray:
    """x[b] @ Y[g] for every rep b, g its dictionary: one stacked product per
    run of reps on one dictionary, so each rep's product is the one it gets
    alone.  Each row is padded to `width` columns with +inf, which never
    wins an argmin over the row."""
    out = np.empty((x.shape[0], width))
    for g, lo, hi in runs:
        m = Y[g].shape[1]
        out[lo:hi, :m] = _vecmat(x[lo:hi], Y[g])
        if m < width:
            out[lo:hi, m:] = np.inf
    return out


# the stop reasons by the int8 codes the solver returns, read by erm_convex_hull
# and the per-cell tally of `experiments`; 0 is a rep still iterating
_STOP_REASONS = ("", "gap", "repeat_vertex", "no_descent", "max_iterations")
_GAP, _REPEAT, _NO_DESCENT, _MAX_ITERATIONS = 1, 2, 3, 4


class _Face:
    """Each rep's active vertices, with a QR factor of their affine hull kept current.

    F holds G dictionaries of K columns and one capacity C (below),
    uncopied, and rep b's is F[which[b]]; `runs` lists the runs of reps on
    one dictionary.  Rep b's
    vertices are the rows of A_b = F[which[b]] * root[b] and its target is
    target[b].  Per rep, with base
    vertex a0 = A_b[support[0]], the k = |S| - 1 differences
    D = (A_b[support[1:]] - a0).T (K x k) are kept as D = Q R, with Q's
    columns orthonormal and R upper triangular, together with c = Q.T (target
    - a0) and T = R^-1.  For a capacity of C columns, row i of rep b's block
    `rows[b]` is [R[i, :C] | T[:C, i] | c[i] | Q[:, i]]: a deletion rotates
    rows i and i + 1 of R, c and Q.T and columns i and i + 1 of T by the same
    Givens rotation.  The face starts at one vertex per rep and changes only
    by `append` and `drop`; the factor is never computed from scratch.
    `indices` and `vertices` hold the active indices, base first and newest
    last, and the rows A_b[support]; slots past k may still hold a dropped
    vertex, so a vertex is on the face when slots 0..k hold it.

    Every rep's buffers are padded to the capacity C = min(K, M - 1) (a face
    has at most C differences: a K-dimensional span, M distinct vertices),
    which every dictionary of the batch shares, never to the batch's largest
    face: rows, R columns and T columns past a rep's k are exactly zero, as
    are the solver's weights past its support, so every product a rep takes
    part in has shapes fixed by its own dictionary's (M, K) and by C alone.
    `z` = T c, the corrective minimizer's free part, is kept with the
    factor.  Memory is O(B K C), within the order of the batch's data.
    """

    def __init__(self, F, which: np.ndarray, root: np.ndarray, target: np.ndarray, start: np.ndarray):
        B, K = root.shape
        C = min(K, F[0].shape[0] - 1)
        self.F, self.which, self.root, self.target, self.K, self.capacity = F, which, root, target, K, C
        self.runs = _runs(which)
        self.k = np.zeros(B, dtype=np.intp)
        self.rows = np.zeros((B, C, 2 * C + 1 + K))
        self.indices = np.zeros((B, C + 1), dtype=np.intp)
        self.vertices = np.zeros((B, C + 1, K))
        self.indices[:, 0] = start
        self.vertices[:, 0] = _rows(F, self.runs, start) * root
        self.z = np.zeros((B, C))

    def keep(self, mask: np.ndarray) -> None:
        """Keep only the reps where mask is set; the dictionaries stay.

        which, root and target become new arrays, so the caller's are never
        written; the face's own buffers move the kept reps to their front and
        become views of that prefix, so they are not allocated again."""
        m = int(np.count_nonzero(mask))
        self.which, self.root, self.target = (x[mask] for x in (self.which, self.root, self.target))
        for name in ("k", "rows", "indices", "vertices", "z"):
            buf = getattr(self, name)
            buf[:m] = buf[mask]
            setattr(self, name, buf[:m])
        self.runs = _runs(self.which)

    def append(self, s: np.ndarray) -> np.ndarray:
        """Add the inactive vertex s[b] as the last column of rep b's face, for
        every rep b, by Gram-Schmidt.

        The residual is orthogonalized twice (classical Gram-Schmidt twice),
        which keeps Q's columns orthonormal to rounding with no per-rep
        branch.  Returns the mask of the reps that took their vertex.  A rep
        refuses it, and keeps its factor as it was, when the new difference
        is numerically in the span of the others: its residual is at most
        64 K eps times its norm, a cutoff free of the data's scale.  A
        factor kept through drops leaves an exactly dependent difference a
        residual of up to a few K eps (4 K eps over 67 000 appends in random
        add and drop sequences; K eps alone let a duplicate of an active
        vertex in, and its R^-1 grew to 1e16), while no independent vertex
        of the default rate grid kept less than 1e8 K eps.
        """
        K, C = self.K, self.capacity
        b, k = np.arange(self.k.size), self.k
        a = _rows(self.F, self.runs, s) * self.root
        d = a - self.vertices[:, 0]
        Qt, T = self.rows[:, :, 2 * C + 1 :], self.rows[:, :, C : 2 * C]
        w = _matvec(Qt, d)
        r = d - _vecmat(w, Qt)
        again = _matvec(Qt, r)
        r -= _vecmat(again, Qt)
        w += again
        dd, rr = _rowdot(d, d), _rowdot(r, r)
        # `rr <= cutoff`, not `rr > cutoff`: a NaN residual is taken, not refused
        refused = (rr <= (64 * K * _EPS) ** 2 * dd) | (k == C)
        offset = self.target - self.vertices[:, 0]
        if refused.any():
            ok = ~refused
            b, k, s, a, w, r, rr, offset, T = (x[ok] for x in (b, k, s, a, w, r, rr, offset, T))
        rho = np.sqrt(rr)
        m = np.arange(b.size)
        row = np.empty((b.size, 2 * C + 1 + K))
        row[:, :C] = 0.0
        row[m, k] = rho
        rho = rho[:, None]
        np.divide(_vecmat(w, T), -rho, out=row[:, C : 2 * C])
        np.divide(r, rho, out=row[:, 2 * C + 1 :])
        row[:, 2 * C] = _rowdot(row[:, 2 * C + 1 :], offset)
        row[m, C + k] = 1.0 / rho[:, 0]
        # z = T c gains the new row's term; the rows above it keep theirs
        term = row[:, 2 * C, None] * row[:, C : 2 * C]
        self.rows[b, :, k] = w  # column k of R above row k; w is 0 from row k on
        self.rows[b, k] = row
        k = k + 1
        self.indices[b, k] = s
        self.vertices[b, k] = a
        self.z[b] += term
        self.k[b] = k
        return ~refused

    def drop(self, b: np.ndarray, positions: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Remove from rep b[i]'s face the vertices at the support positions
        where positions[i] is set, highest first, each O(K k), and return
        weights, whose row i holds a weight per support slot of rep b[i],
        with the same slots removed: the kept weights in support order, then
        zeros.

        A vertex p > 0 takes column p - 1 of D out of the factor.  When the
        base a0 leaves, a1 becomes the base and D loses its column 0 while
        every other column shifts by a1 - a0 = D[:, 0] = R[0, 0] Q e0; Q stays,
        R and c lose R[0, 0] from their row 0, and T without its row 0 is
        still a left inverse because T[1:, 0] = 0.  Either way, the deleted
        column leaves R upper Hessenberg from that column on, and Givens
        rotations restore its triangle (Gill, Golub, Murray and Saunders 1974).
        The row and the columns the face no longer uses are zeroed.

        Each rep rotates its own rows, one 2 x 2 product per rotation, a
        product whose shapes depend on the rep alone.  Drops come in about
        one corrective step in seven, so a loop over the reps that drop
        costs less than batching each rotation across them.
        """
        C, G = self.capacity, np.empty((2, 2))
        for rep, where, U in zip(b.tolist(), positions, weights):
            R, I, V = self.rows[rep], self.indices[rep], self.vertices[rep]
            for p in reversed(where.nonzero()[0].tolist()):
                j, k = max(p - 1, 0), int(self.k[rep])
                if p == 0:
                    R[0, 1:k] -= R[0, 0]
                    R[0, 2 * C] -= R[0, 0]
                # delete column j of R, row j of T (column j of T.T) and vertex p
                R[:k, j : k - 1] = R[:k, j + 1 : k]
                R[:k, C + j : C + k - 1] = R[:k, C + j + 1 : C + k]
                I[p:k] = I[p + 1 : k + 1]
                V[p:k] = V[p + 1 : k + 1]
                U[p:k], U[k] = U[p + 1 : k + 1], 0.0
                # rotate rows i and i + 1 to zero the new subdiagonal entry (i + 1, i)
                for i in range(j, k - 1):
                    x, y = R.item(i, i), R.item(i + 1, i)
                    h = math.hypot(x, y)
                    G[0, 0] = G[1, 1] = x / h
                    G[0, 1] = y / h
                    G[1, 0] = -y / h
                    R[i : i + 2, i:] = G @ R[i : i + 2, i:]
                    R[i + 1, i] = 0.0
                R[k - 1] = 0.0
                R[:k, k - 1] = 0.0
                R[:k, C + k - 1] = 0.0
                self.k[rep] = k - 1
            self.z[rep] = R[:, 2 * C] @ R[:, C : 2 * C]
        return weights

    def minimizer(self, b) -> np.ndarray:
        """Per rep, the minimizer of ||u @ A_b[support] - target|| over the
        affine hull sum(u) = 1, padded with zeros to C + 1 entries.

        With u = (1 - sum z, z) this is least squares in z on D, solved by
        the triangular product z = R^-1 c = T c, which `z` keeps current:
        `append` adds the new row's term and `drop` recomputes it.  `b`
        indexes the reps, or is a slice.
        """
        z = self.z[b]
        v = np.empty((z.shape[0], self.capacity + 1))
        v[:, 1:] = z
        v[:, 0] = 1.0 - np.add.reduce(z, axis=1)
        return v

    def point(self, u: np.ndarray, b=slice(None)) -> np.ndarray:
        """The fitted values u[i] @ A_b[support] of reps b."""
        return _vecmat(u, self.vertices[b])


def _minimize_fw(F, which, root: np.ndarray, target: np.ndarray, config: SolverConfig) -> tuple:
    """Fully corrective Frank-Wolfe on the simplex for
    ||(w @ F[which[b]]) * root[b] - target[b]||^2, for every rep b of a batch
    at once; F is a sequence of G dictionaries of K columns and one capacity
    min(K, M - 1), whose row counts M may differ.

    Each outer iteration adds the vertex named by the linear-minimization
    oracle, then re-optimizes exactly over the convex hull of the active
    vertices (least squares on their affine hull, with line-search drops, as
    in Wolfe's min-norm-point method).  On a quadratic this terminates in
    finitely many vertex additions, so tight duality-gap tolerances are
    reachable even when A is rank deficient.

    The active vertices are carried as a `_Face`: a QR factor of their
    difference matrix that an entering vertex extends by one Gram-Schmidt
    column and a leaving one, the base vertex included, shrinks by Givens
    rotations.  A corrective step is then the product of the kept
    triangular inverse R^-1 with c, on top of the iteration's O(MK)
    gradient.  Each iteration forms the residual resid = g - target of its
    fitted values once: its squared norm is the value, and
    (root * 2 resid) @ F[which[b]].T the next gradient, where doubling is
    exact, so no per-rep A_b is formed and memory is O(B K + G M K).  Each
    gradient is one stacked product per run of reps on one dictionary (a
    block's reps arrive in order, so they form one run), on a transposed
    view of that dictionary: a rep's product has the shapes and memory
    layout it has alone.  Its gradient goes into a row padded to the
    batch's largest M with +inf, so padding never wins the oracle's argmin,
    and its start vertex is taken over its own dictionary's M.  An entering
    vertex whose difference is numerically in the span of the face's
    differences ends the rep's solve with "repeat_vertex", as an active one
    does: in exact arithmetic a vertex with a positive gap is affinely
    independent of an affine-optimal face, so only rounding names it.

    The reps iterate in rounds: one round is one iteration of every rep
    still running, and a rep whose solve has ended leaves the batch, so the
    batch runs as many rounds as its longest solve has iterations, each a
    few dozen numpy calls whatever the batch size.  Every step is
    elementwise, a per-rep product (see the module docstring) or a per-rep
    reduction over a length fixed by its own dictionary's (M, K) and by the
    capacity (see `_Face`), so a rep's
    weights, gap, counters and stop reason have the same bits whichever
    batch it is solved in.  Ties in the linear-minimization oracle break to
    the lowest index.

    Rep b's gap is tested against config.tolerance times its scale, the
    largest of ||target[b]||^2 and every ||A_j||^2 (see `SolverConfig`).
    The ||A_j||^2 are the squared norms the start vertex search already
    takes, so the scale costs one dot product per rep, and it depends on the
    rep's own data and dictionary alone.

    Returns arrays with a row per rep, in order: the (B, largest M) weight
    matrix, whose row b is 0 past rep b's M, and per rep the duality gap,
    whether that gap met its tolerance (the stop rule's own test, read at
    the rep's final weights), iterations, stop code (an int8 index into
    `_STOP_REASONS`), kkt_solves and drop_steps.
    """
    F = [np.ascontiguousarray(f, dtype=float) for f in F]
    which = np.asarray(which, dtype=np.intp)
    root, target = (np.asarray(x, dtype=float, order="C") for x in (root, target))
    B, runs, Ft = root.shape[0], _runs(which), [f.T for f in F]
    width = max(f.shape[0] for f in F)
    mass, pull = root * root, root * target
    start = np.empty(B, dtype=np.intp)
    # labels whose square passes the largest float give an inf scale, whose tolerance below is NaN
    with np.errstate(over="ignore"):
        scale = _rowdot(target, target)
    for g, lo, hi in runs:
        norms = _vecmat(mass[lo:hi], (F[g] * F[g]).T)  # ||A_j||^2 for every row j
        start[lo:hi] = (norms - 2.0 * _vecmat(pull[lo:hi], Ft[g])).argmin(axis=1)
        scale[lo:hi] = np.maximum(scale[lo:hi], norms.max(axis=1))
    del mass, pull  # the start search's working set, (B, K) each
    # NaN where the scale is not finite, so no gap meets it
    tol = np.where(scale < math.inf, config.tolerance * scale, math.nan)
    face = _Face(F, which, root, target, start)
    C = face.capacity
    slots = np.arange(C + 1)
    u = np.zeros((B, C + 1))
    u[:, 0] = 1.0
    resid = face.vertices[:, 0] - target
    with np.errstate(over="ignore"):  # inf where the scale is, as above
        best = _rowdot(resid, resid)
    ids = n = np.arange(B)
    reason = np.zeros(B, dtype=np.intp)
    drop_steps = np.zeros(B, dtype=np.intp)
    support = []  # per finish call: the rows, columns and values of weights
    gaps = np.empty(B)
    converged = np.empty(B, dtype=bool)
    iterations, stops, drops = (np.empty(B, dtype=dtype) for dtype in (np.intp, np.int8, np.intp))

    def finish(stopped, gap, at_gap, s, it):
        """Record the reps where stopped is set and take them out of the batch;
        returns gap, at_gap and s for the reps left.

        A rep stopped on "gap" or "repeat_vertex" in round it, and added a
        vertex in every earlier round; one that stopped on "no_descent" or
        "max_iterations" did so in round it - 1, after adding a vertex in
        each round up to it.  A rep's weights are its u on its support, the
        slots up to its k: a drop leaves the slot past k holding a copy of
        slot k's index, which must not take that slot's weight of 0.
        """
        nonlocal u, resid, best, tol, ids, n, reason, drop_steps
        i = stopped.nonzero()[0]
        rows = ids[i]
        reps, at = (slots <= face.k[i, None]).nonzero()
        support.append((rows[reps], face.indices[i[reps], at], u[i[reps], at]))
        gaps[rows] = np.where(gap[i] < 0.0, 0.0, gap[i])
        converged[rows] = at_gap[i]
        iterations[rows] = np.where(reason[i] <= _REPEAT, it, it - 1)
        stops[rows] = reason[i]
        drops[rows] = drop_steps[i]
        keep = ~stopped
        face.keep(keep)
        u, resid, best, tol, ids, reason, drop_steps = (
            x[keep] for x in (u, resid, best, tol, ids, reason, drop_steps)
        )
        n = np.arange(ids.size)
        return gap[keep], at_gap[keep], s[keep]

    ending = False
    # np.errstate: the drop step's ratios are taken for every weight and kept
    # only where v < 0, and a line search may divide by a zero curvature
    it = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while n.size:
            it += 1
            grad = _by_dictionary(2.0 * face.root * resid, Ft, face.runs, width)
            s = grad.argmin(axis=1)
            gap = _rowdot(grad[n[:, None], face.indices], u) - grad[n, s]
            # a rep whose solve ended last round (no descent, iteration cap)
            # came back only for the gap at its final weights
            repeat = ((face.indices == s[:, None]) & (slots <= face.k[:, None])).any(axis=1)
            at_gap = gap <= tol
            if ending or (at_gap | repeat).any():
                fresh = reason == 0
                reason[fresh & repeat] = _REPEAT
                reason[fresh & at_gap] = _GAP
                gap, at_gap, s = finish(reason != 0, gap, at_gap, s, it)
                if not n.size:
                    break
            taken = face.append(s)
            if not taken.all():
                reason[~taken] = _REPEAT
                gap, at_gap, s = finish(~taken, gap, at_gap, s, it)
                if not n.size:
                    break

            # Wolfe's minor cycles: the first pass takes every rep, later
            # passes the reps whose last one was a drop step
            pending = n
            while pending.size:
                sel = slice(None) if pending is n else pending
                v = face.minimizer(sel)
                k = face.k[sel]
                new = np.maximum(v, 0.0)
                # the usual pass: every support weight of v is positive (v is
                # 0 past the support), so each rep is done and keeps its face
                if (np.add.reduce(v > 0.0, axis=1) > k).all():
                    u[sel] = new
                    break
                up = u[sel]
                done = v.min(axis=1) >= -1e-12
                m = np.arange(pending.size)
                starved = v[m, k] <= 0.0
                if starved.any():
                    # rounding starved the new vertex; take a plain
                    # line-search step toward it instead of cycling
                    starved &= face.indices[pending, k] == s[sel]
                    w = starved.nonzero()[0]
                    d = -up[w]
                    d[m[: w.size], k[w]] += 1.0
                    values = face.point(d, pending[w])
                    curv = _rowdot(values, values)
                    step = np.where(curv <= 0.0, 1.0, np.fmin(1.0, gap[pending[w]] / (2.0 * curv)))
                    line = up[w] * (1.0 - step)[:, None]
                    line[m[: w.size], k[w]] += step
                    new[w] = line
                    done |= starved
                stepping = (~done).nonzero()[0]
                if stepping.size:
                    # a drop step: move toward v until the first weight reaches 0
                    uw, vw = up[stepping], v[stepping]
                    ratio = np.where(vw < 0.0, uw / (uw - vw), np.inf).min(axis=1)
                    moved = uw + ratio[:, None] * (vw - uw)
                    moved[moved <= 1e-14] = 0.0
                    new[stepping] = moved
                    drop_steps[pending[stepping]] += 1
                # a rep with a support weight not > 0 (a NaN leaves the face as
                # a zero does) has fewer than k + 1 positive weights
                leaving = (np.add.reduce(new > 0.0, axis=1) <= k).nonzero()[0]
                if leaving.size:
                    out = ~(new[leaving] > 0.0) & (slots <= k[leaving, None])
                    new[leaving] = face.drop(pending[leaving], out, new[leaving])
                if pending is n:
                    u = new
                else:
                    u[pending] = new
                pending = pending[stepping]

            u /= np.add.reduce(u, axis=1)[:, None]
            resid = face.point(u) - face.target
            value = _rowdot(resid, resid)
            # no measurable descent left; stop rather than stall
            worse = value >= best
            best = value
            capped = it == config.max_iterations
            ending = capped or worse.any()
            if ending:
                reason[:] = np.where(worse, _NO_DESCENT, _MAX_ITERATIONS if capped else 0)
    # the padded weight matrix is made once the face's buffers are freed, so
    # the two are never held at once
    del face
    weights = np.zeros((B, width))
    for rows, columns, values in support:
        weights[rows, columns] = values
    # every added vertex costs one corrective solve, and every drop step one
    # more; a rep that stopped on "gap" or "repeat_vertex" added no vertex in
    # its last round
    kkt_solves = iterations - (stops <= _REPEAT) + drops
    return weights, gaps, converged, iterations, stops, kkt_solves, drops


def erm_convex_hull_blocks(blocks, config: SolverConfig | None = None) -> list:
    """Minimize the squared risk over the convex hull of a dictionary for
    every dataset of every block, as one batched solve per (K, capacity).

    A block is (dictionary, atoms, probabilities): a `Dictionary` of any K
    and M, a `Measure` whose x_indices and y_values the block's datasets
    share, and a (datasets, atoms) matrix whose row r is dataset r's mass on
    them, not checked here: a `Measure`'s probabilities or a row of
    `model.draw_count_matrix` counts / n.  Datasets are grouped by K and face
    capacity min(K, M - 1), in order of first appearance, here and nowhere
    else.  A block with no datasets is refused.  Ties in the
    linear-minimization oracle break to the lowest dictionary index, and a
    dataset's solution has the same bits in any batch (see `_minimize_fw`).

    Returns, per block, a pair: the (datasets, M) weight matrix, checked
    once by `model.simplex_rows`, and the solves' statistics, a dict keyed
    by `ErmSolution`'s field names after weights and empirical_risk
    (duality_gap, iterations, converged, stop_reason, kkt_solves and
    drop_steps, in that order), each an array with an entry per dataset,
    stop_reason's an int8 code into `_STOP_REASONS`.  `converged` is the
    solver's stop rule, gap <= tolerance times the dataset's scale (see
    `SolverConfig`), at the final weights; callers read it rather than
    compare the gap themselves.
    """
    cfg = config or SolverConfig()
    blocks = list(blocks)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (dictionary, atoms, probabilities) in enumerate(blocks):
        if not probabilities.shape[0]:
            raise ValueError(f"block {i} has no datasets: its probability matrix has no rows")
        K = dictionary.num_design_points
        _fits(K, atoms, "a dictionary row")
        groups.setdefault((K, min(K, dictionary.size_M - 1)), []).append(i)
    out = [None] * len(blocks)
    for (K, _), members in groups.items():
        reps = [blocks[i][2].shape[0] for i in members]
        root, target = _least_squares(K, [blocks[i][1:] for i in members])
        weights, gap, converged, iterations, stop, kkt_solves, drop_steps = _minimize_fw(
            [blocks[i][0].values for i in members], np.repeat(np.arange(len(members)), reps), root, target, cfg
        )
        solves = dict(
            duality_gap=gap,
            iterations=iterations,
            converged=converged,
            stop_reason=stop,
            kkt_solves=kkt_solves,
            drop_steps=drop_steps,
        )
        edges = np.cumsum([0, *reps]).tolist()
        for i, lo, hi in zip(members, edges, edges[1:]):
            statistics = {name: x[lo:hi] for name, x in solves.items()}
            out[i] = (simplex_rows(weights[lo:hi, : blocks[i][0].size_M]), statistics)
    return out


def erm_convex_hull(
    dictionary: Dictionary,
    data: Measure,
    config: SolverConfig | None = None,
) -> ErmSolution:
    """Minimize the squared risk over the convex hull of the dictionary.

    `data` is a `Measure`: a sample (empirical risk) or a problem (exact
    population risk).  This is a block of one dataset of
    `erm_convex_hull_blocks`, so it gives the bits that dataset gets in any
    batch.
    """
    cfg = config or SolverConfig()
    ((weights, statistics),) = erm_convex_hull_blocks([(dictionary, data, data.probabilities[None, :])], cfg)
    w = weights[0]
    solves = {name: x.item() for name, x in statistics.items()}
    return ErmSolution(
        weights=SimplexWeights(w),
        empirical_risk=max(risk.empirical_risk(combine(dictionary, w), data), 0.0),
        **{**solves, "stop_reason": _STOP_REASONS[solves["stop_reason"]]},
    )


def erm_segment(segment: Segment, data: Measure) -> tuple[float, np.ndarray]:
    """Closed-form risk minimizer over a segment.

    theta_hat = <y - g_j, g_i - g_j> / ||g_i - g_j||^2 under the data measure,
    clamped to [0, 1]; degenerate segments (endpoints equal a.e.) return
    theta = 0 by convention.
    """
    _fits(segment.endpoint_i.size, data, "a segment")
    x, y, p = data.x_indices, data.y_values, data.probabilities
    gj = segment.endpoint_j[x]
    d = segment.endpoint_i[x] - gj
    den = float(p @ (d * d))
    num = float(p @ ((y - gj) * d))
    theta = 0.0 if den <= 0.0 else min(1.0, max(0.0, num / den))
    return theta, segment.at(theta)
