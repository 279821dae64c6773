"""Problem generators, Monte Carlo trials of hull ERM, and rate reports.

The guarantees being probed are distribution free, so the generators here are
library policy, not a prescribed family: discrete designs with random atom
masses, dictionaries drawn uniformly in [-b, b], and two-point conditional
laws for Y whose mean sits inside the hull, outside it, or at zero.

Determinism contract: every grid cell derives two seeds from the master
seed through stable SHA-256 hashes of its coordinates, one for its problem
and one for its trials, so any subset of the grid reproduces independently
and worker count never changes the output.  Trial rep of a cell is
replication rep of the cell's seed (`model.draw_count_matrix`), a pure
function of (problem, n, cell seed, rep).
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# `sample` and `population_risk` are unused here; perfbench/tracing.py wraps both
from .model import Dictionary, DiscreteProblem, _real, _seed, _whole, draw_count_matrix, sample
from .rates import phi_n, psi_c
from .risk import bayes_risk, population_risk
from .solver import _STOP_REASONS, ErmSolution, SolverConfig, erm_convex_hull, erm_convex_hull_blocks

PROBLEM_KINDS = ("inside-hull", "outside-hull", "pure-noise")
DEFAULT_GRID = tuple((n, M) for n in (64, 256, 1024, 4096) for M in (2, 4, 16, 64, 256))
ORACLE_TOLERANCE = 1e-10
# the most trials `run_grid` solves as one batch, so memory follows it, not R
MAX_BATCH = 2**15


def _check_family(kind: str, b: float, noise: float, b_name: str) -> tuple[float, float]:
    """b and noise as floats, once the one check of a problem family passes: a kind of
    PROBLEM_KINDS, b (named b_name) with b^2 a positive finite float, noise in [0, 1]."""
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"problem_kind must be one of {PROBLEM_KINDS}, found {kind!r}")
    b = _real(b, b_name, positive=True)
    if not 0.0 < b * b < math.inf:
        raise ValueError(f"{b_name} squared must be positive and finite, found {b_name} = {b!r}")
    return b, _real(noise, "noise", unit=True)


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from the string forms of the parts."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of a rate experiment; see the README for file keys."""

    grid: tuple = DEFAULT_GRID
    problem_kind: str = "inside-hull"
    atoms_K: int = 16
    replications: int = 200
    master_seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    x_levels: tuple = (1.0, 2.0)
    bound_b: float = 1.0
    noise: float = 0.5

    def __post_init__(self):
        grid = tuple((_whole(n, "grid entries", 1), _whole(M, "grid entries", 1)) for n, M in self.grid)
        object.__setattr__(self, "grid", grid)
        for name, least in (("atoms_K", 1), ("replications", 1), ("master_seed", None)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, least))
        object.__setattr__(self, "x_levels", tuple(_real(x, "x_levels") for x in self.x_levels))
        if not grid:
            raise ValueError("grid must be nonempty")
        if len(set(grid)) != len(grid):
            raise ValueError("grid entries must be unique")
        bound_b, noise = _check_family(self.problem_kind, self.bound_b, self.noise, "bound_b")
        object.__setattr__(self, "bound_b", bound_b)
        object.__setattr__(self, "noise", noise)


@dataclass(frozen=True, eq=False)
class Trials:
    """ERM trials as spans and columns: spans lists the trials, in order, as
    (cell, lo, hi) runs of replications lo..hi - 1 of one `Cell`, and each
    column is a numpy array with an entry per trial, the stop reason as the
    solver's int8 code.  Iteration yields `TrialRecord`s, whose n, M,
    replication, oracle_risk and seed come from the spans."""

    spans: tuple
    excess_risk: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    stop_reason: np.ndarray
    kkt_solves: np.ndarray
    drop_steps: np.ndarray
    duality_gap: np.ndarray

    def __len__(self) -> int:
        return self.excess_risk.size

    def __iter__(self):
        columns = self.columns().values()
        for cell, reps, rows in self.chunks():
            for rep, (excess, *solve) in zip(reps, zip(*(column[rows].tolist() for column in columns))):
                yield TrialRecord(cell.n, cell.dictionary.size_M, rep, excess, cell.oracle_risk, cell.seed, *solve)

    def columns(self) -> dict:
        """The per-trial columns by name, in order."""
        return {name: x for name, x in _fields(self).items() if name != "spans"}

    def chunks(self):
        """(cell, reps, rows) per run of at most MAX_BATCH trials of one span:
        the replications and the slice of the columns that holds them."""
        start = 0
        for cell, lo, hi in self.spans:
            for rep in range(lo, hi, MAX_BATCH):
                end = min(rep + MAX_BATCH, hi)
                yield cell, range(rep, end), slice(start + rep - lo, start + end - lo)
            start += hi - lo


# one trial of a `Trials`, its fields in order: trials.csv's columns, then the solve's counters
_RECORD = ["n", "M", "replication", "excess_risk", "oracle_risk", "seed"]
_RECORD += [f.name for f in dataclasses.fields(Trials)][2:]
TrialRecord = dataclasses.make_dataclass("TrialRecord", _RECORD, frozen=True, namespace={"__module__": __name__})


@dataclass(frozen=True)
class PointSummary:
    """Excess-risk statistics for one (n, M) cell, and its trials' hull solves
    summed up in `solver`: the iteration median and max, counter totals, a
    stop-reason tally and the largest duality gap."""

    n: int
    M: int
    psi: float
    phi: float
    replications: int
    mean_excess: float
    median_excess: float
    q10: float
    q25: float
    q75: float
    q90: float
    max_excess: float
    solver: dict


@dataclass(frozen=True)
class DeviationRow:
    """Tail frequency of the excess beyond the fitted residual at level x."""

    n: int
    M: int
    x: float
    threshold: float
    frequency: float
    bound: float


def _fields(row) -> dict:
    """A dataclass's fields by name, its values not copied (unlike
    dataclasses.asdict, which deep-copies every solver dict and column)."""
    return {f.name: getattr(row, f.name) for f in dataclasses.fields(row)}


@dataclass(frozen=True, eq=False)
class RateReport:
    """Grid summaries, the constant fitted on even cells, and tail tables.

    c_hat is max(mean excess / (b^2 psi)) over even-indexed grid cells;
    validation_ratios are mean excess / (c_hat b^2 psi) on the odd cells.
    c_hat_phi is the same fit against the older rate curve, kept for
    comparison.  incomplete is set when any trial failed to converge.
    records is the run's `Trials`, one span per grid cell, in grid order.
    """

    points: tuple
    c_hat: float
    c_hat_phi: float
    fit_indices: tuple
    validation_indices: tuple
    validation_ratios: tuple
    deviation: tuple
    incomplete: bool
    bound_b: float
    records: Trials = field(repr=False, default=None)


def make_problem(
    kind: str,
    K: int,
    M: int,
    b: float,
    seed: int,
    noise: float = 0.5,
) -> tuple[DiscreteProblem, Dictionary]:
    """Random K-point design, M uniform dictionary rows, two-point noise for Y.

    The conditional law of Y given X = x is {r(x) - d(x), r(x) + d(x)} with
    equal mass, where the regression function r is a hidden convex combination
    of the dictionary (inside-hull), an independent uniform draw
    (outside-hull), or zero (pure-noise), and d(x) = noise * (b - |r(x)|)
    keeps |Y| <= b.  noise=0 gives a noiseless, hull-realizable problem for
    the inside-hull kind.
    """
    b, noise = _check_family(kind, b, noise, "b")
    K, M = _whole(K, "K", 1), _whole(M, "M", 1)
    rng = np.random.default_rng(_seed(seed))
    px = rng.dirichlet(np.ones(K))
    px = px / px.sum()
    values = rng.uniform(-b, b, size=(M, K))
    if kind == "inside-hull":
        hidden = rng.dirichlet(np.ones(M))
        regression = hidden @ values
    elif kind == "outside-hull":
        regression = rng.uniform(-b, b, size=K)
    else:
        regression = np.zeros(K)
    amplitude = noise * (b - np.abs(regression))
    x_indices = np.repeat(np.arange(K), 2)
    y_values = np.clip(np.stack([regression - amplitude, regression + amplitude], axis=1).ravel(), -b, b)
    probabilities = np.repeat(px / 2.0, 2)
    problem = DiscreteProblem(x_indices, y_values, probabilities, bound_b=b)
    return problem, Dictionary(values)


def population_oracle(dictionary: Dictionary, problem: DiscreteProblem) -> ErmSolution:
    """Minimal population risk over the hull, certified to a duality gap of
    ORACLE_TOLERANCE times the problem's scale (see `SolverConfig`), which is
    at most ORACLE_TOLERANCE b^2 for a dictionary bounded by b as well."""
    cfg = SolverConfig(max_iterations=2_000_000, tolerance=ORACLE_TOLERANCE)
    solution = erm_convex_hull(dictionary, problem, cfg)
    if not solution.converged:
        raise ArithmeticError("population hull solve did not reach its duality-gap target")
    return solution


@dataclass(frozen=True, eq=False)
class Cell:
    """What the trials of one (n, M) grid cell share: the problem, its
    dictionary, the sample size n, the population hull minimum oracle_risk,
    and the seed whose replication rep is trial rep's sample (`make_cell`)."""

    problem: DiscreteProblem
    dictionary: Dictionary
    n: int
    oracle_risk: float
    seed: int


def make_cell(cfg: ExperimentConfig, n: int, M: int) -> Cell:
    """The (n, M) cell of a run of cfg: its problem from `make_problem` at the
    seed hashed out of (master_seed, n, M, "problem"), its hull minimum (the
    Bayes risk, `risk.bayes_risk`, for inside-hull problems, whose regression
    function lies in the hull by construction, a `population_oracle` solve
    otherwise), and its trials' seed, hashed out of (master_seed, n, M)."""
    problem, dictionary = make_problem(
        cfg.problem_kind, cfg.atoms_K, M, cfg.bound_b, derive_seed(cfg.master_seed, n, M, "problem"), cfg.noise
    )
    seed = derive_seed(cfg.master_seed, n, M)
    if cfg.problem_kind == "inside-hull":
        return Cell(problem, dictionary, n, bayes_risk(problem), seed)
    return Cell(problem, dictionary, n, population_oracle(dictionary, problem).empirical_risk, seed)


def run_trials(spans, solver_config: SolverConfig) -> Trials:
    """Draw a size-n sample per trial of the spans, run hull ERM on all of
    them as one batch, and take each exact population excess.

    A span (cell, lo, hi), replications lo..hi - 1 of one `Cell`, is drawn
    as one counts matrix, draw_count_matrix(cell.problem, cell.n, cell.seed,
    range(lo, hi)), which checks the matrix once, and is one block of
    probability rows counts / n over the cell problem's atoms for
    `solver.erm_convex_hull_blocks`, which groups the blocks and checks the
    weight matrices it returns.  Nothing is built per trial: a block's
    excesses, the population risks of its fitted values w @ F minus the
    cell's oracle risk, are one stacked product whose 1-D dots of
    C-contiguous rows give `risk.population_risk`'s bits.  The trials are
    the same for any split of the spans, since a trial's solve has the same
    bits in any batch, those of `erm_convex_hull` on its row of counts alone.
    """
    blocks = [
        (c.dictionary, c.problem, draw_count_matrix(c.problem, c.n, c.seed, range(lo, hi)) / c.n) for c, lo, hi in spans
    ]
    solved = erm_convex_hull_blocks(blocks, solver_config)
    excess = []
    for (cell, _, _), (weights, _) in zip(spans, solved):
        atoms, fitted = cell.problem, np.matmul(weights[:, None, :], cell.dictionary.values)[:, 0]
        resid = atoms.y_values - np.take(fitted, atoms.x_indices, axis=1)  # fitted[:, x] has strided rows
        excess.append(np.matmul((resid * resid)[:, None, :], atoms.probabilities[:, None])[:, 0, 0] - cell.oracle_risk)
    return Trials(
        tuple(spans),
        excess_risk=np.concatenate(excess),
        **{name: np.concatenate([statistics[name] for _, statistics in solved]) for name in solved[0][1]},
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_grid(cfg: ExperimentConfig, out_dir=None, jobs: int = 1) -> RateReport:
    """Run every grid cell, fit the rate constant, and assemble the report.

    Each cell is built once, by `make_cell`; its replications vary only the
    sample.  The cells x R trials, in grid order, are cut into batches of at
    most MAX_BATCH trials, as spans for `run_trials`, after jobs is capped at
    the CPUs the process may use: one worker solves the batches in turn;
    with more, a batch is about a quarter of a worker's share, and no more
    workers start than there are batches.  A batch runs about as many
    Frank-Wolfe rounds as its longest solve has iterations, where
    one-at-a-time solving ran the sum of them.  The columns come in grid,
    then replication order, so the summary reads each as a (cells,
    replications) table whose row i is grid cell i.  A trial's solve has the
    same bits in any batch (see `solver`), so when out_dir is given,
    trials.csv and report.json are written there with bytes identical for
    any worker count.
    """
    jobs = min(_whole(jobs, "jobs", 1), _usable_cpus())
    R = cfg.replications
    cells = [make_cell(cfg, n, M) for n, M in cfg.grid]
    total = len(cells) * R
    step = MAX_BATCH if jobs == 1 else min(MAX_BATCH, math.ceil(total / jobs / 4))
    # batch start..stop - 1 of the flat cells x R trials, as one span per cell it meets
    batches = [
        [(cells[i], max(start - i * R, 0), min(stop - i * R, R)) for i in range(start // R, (stop - 1) // R + 1)]
        for start, stop in ((start, min(start + step, total)) for start in range(0, total, step))
    ]
    args = (run_trials, batches, itertools.repeat(cfg.solver))
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(batches))) if jobs > 1 else None
    columns, start = {}, 0
    with pool or contextlib.nullcontext():
        for batch in pool.map(*args) if pool else map(*args):  # each fills the run's columns at its offset
            for name, column in batch.columns().items():
                if name not in columns:
                    columns[name] = np.empty(total, column.dtype)
                columns[name][start : start + column.size] = column
            start += len(batch)
    records = Trials(tuple((cell, 0, R) for cell in cells), **columns)

    incomplete = not records.converged.all()
    table = {name: column.reshape(len(cfg.grid), R) for name, column in records.columns().items()}
    excess, iterations = table["excess_risk"], table["iterations"]
    mean = np.mean(excess, axis=1)
    quantiles = np.quantile(excess, (0.10, 0.25, 0.75, 0.90), axis=1)
    summary = np.column_stack((mean, np.median(excess, axis=1), *quantiles, np.max(excess, axis=1)))
    median = np.median(iterations, axis=1)
    names = ("iterations_median", "iterations_max", "kkt_solves", "drop_steps", "stop_reasons", "max_duality_gap")
    solver = zip(
        (median.astype(np.int64) if R % 2 else median).tolist(),  # statistics.median's int at odd R
        np.max(iterations, axis=1).tolist(),
        table["kkt_solves"].sum(axis=1).tolist(),
        table["drop_steps"].sum(axis=1).tolist(),
        [{_STOP_REASONS[c]: k for c, k in collections.Counter(row.tolist()).items()} for row in table["stop_reason"]],
        table["duality_gap"].max(axis=1).tolist(),
    )
    points = tuple(
        PointSummary(n, M, psi_c(n, M), phi_n(n, M), R, *row, solver=dict(zip(names, cell)))
        for (n, M), row, cell in zip(cfg.grid, summary.tolist(), solver)
    )

    b2 = cfg.bound_b**2
    psi = np.array([p.psi for p in points])
    phi = np.array([p.phi for p in points])
    fit_idx = tuple(range(0, len(cfg.grid), 2))
    val_idx = tuple(range(1, len(cfg.grid), 2))
    c_hat = max(float(np.max((mean / (b2 * psi))[::2])), 0.0)
    c_hat_phi = max(float(np.max((mean / (b2 * phi))[::2])), 0.0)
    validation_ratios = (mean / (c_hat * b2 * psi))[1::2].tolist() if c_hat > 0 else [0.0] * len(val_idx)

    sizes = np.array([n for n, _ in cfg.grid])
    thresholds = c_hat * b2 * np.maximum(psi[:, None], np.array(cfg.x_levels) / sizes[:, None])
    frequencies = np.count_nonzero(excess[:, None, :] > thresholds[:, :, None], axis=2) / R
    deviation = tuple(
        DeviationRow(n, M, x, threshold, frequency, bound=4.0 * math.exp(-x))
        for (n, M), cell_thresholds, cell_frequencies in zip(cfg.grid, thresholds.tolist(), frequencies.tolist())
        for x, threshold, frequency in zip(cfg.x_levels, cell_thresholds, cell_frequencies)
    )

    report = RateReport(
        points=points,
        c_hat=c_hat,
        c_hat_phi=c_hat_phi,
        fit_indices=fit_idx,
        validation_indices=val_idx,
        validation_ratios=tuple(validation_ratios),
        deviation=deviation,
        incomplete=incomplete,
        bound_b=cfg.bound_b,
        records=records,
    )
    if out_dir is not None:
        write_outputs(report, out_dir)
    return report


def write_outputs(report: RateReport, out_dir) -> None:
    """Write trials.csv (a row per trial, one `Trials.chunks` chunk at a time)
    and report.json, deterministically: the report's fields but records, keys
    sorted, with each summary and deviation row written as its own fields."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    t = report.records
    with open(path / "trials.csv", "w") as handle:
        handle.write("n,M,replication,excess_risk,oracle_risk,seed,converged\n")
        for cell, reps, part in t.chunks():
            n, M, oracle, seed = cell.n, cell.dictionary.size_M, cell.oracle_risk, cell.seed
            rows = zip(reps, t.excess_risk[part].tolist(), t.converged[part].tolist())
            handle.write("".join(f"{n},{M},{rep},{x!r},{oracle!r},{seed},{ok:d}\n" for rep, x, ok in rows))
    fields = {name: value for name, value in _fields(report).items() if name != "records"}
    (path / "report.json").write_text(json.dumps(fields, default=_fields, indent=2, sort_keys=True) + "\n")


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


# the JSON type of each config key whose rule cannot see it, as (check, description):
# `_whole` takes 4.0 as a count, and no rule sees a container's shape
_JSON_TYPES = {
    "grid": (_list_of(lambda cell: _list_of(_integer)(cell) and len(cell) == 2), "a list of integer [n, M] pairs"),
    "atoms_K": (_integer, "an integer"),
    "replications": (_integer, "an integer"),
    "master_seed": (_integer, "an integer"),
    "max_iterations": (_integer, "an integer"),
    "solver": (lambda value: isinstance(value, dict), "an object"),
    "x_levels": (lambda value: isinstance(value, list), "a list"),
}


def _check_keys(raw: dict, cls, what: str) -> None:
    """Every key names a field of cls, and what no rule sees holds: `solver` is an object, `grid` a
    list of integer [n, M] pairs, `x_levels` a list, and the counts and seed JSON integers.  Every
    other value is refused by its rule (`model._whole`, `model._real`, `_check_family`) when the
    config is built, with the rule's message."""
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in raw.items():
        check, description = _JSON_TYPES.get(key, (None, None))
        if check and not check(value):
            raise ValueError(f"{what} key {key!r} must be {description}, found {value!r}")


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON file keyed by the field names."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    _check_keys(raw, ExperimentConfig, "config")
    kwargs = dict(raw)
    if "solver" in kwargs:
        _check_keys(kwargs["solver"], SolverConfig, "solver config")
        kwargs["solver"] = SolverConfig(**kwargs["solver"])
    return ExperimentConfig(**kwargs)


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n")
