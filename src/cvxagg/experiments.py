"""Problem generators, Monte Carlo trials of hull ERM, and rate reports.

The guarantees being probed are distribution free, so the generators here are
library policy, not a prescribed family: discrete designs with random atom
masses, dictionaries drawn uniformly in [-b, b], and two-point conditional
laws for Y whose mean sits inside the hull, outside it, or at zero.

Determinism contract: every random object derives from the master seed
through stable SHA-256 hashes of its coordinates, so any subset of the grid
reproduces independently and worker count never changes the output.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# `sample` is not called here; it stays a module attribute because
# perfbench/tracing.py wraps experiments.sample
from .model import Dictionary, DiscreteProblem, draw_count_matrix, sample
from .rates import phi_n, psi_c
from .risk import bayes_risk, population_risk
from .solver import ErmSolution, SolverConfig, erm_convex_hull, erm_convex_hull_blocks

PROBLEM_KINDS = ("inside-hull", "outside-hull", "pure-noise")
DEFAULT_GRID = tuple((n, M) for n in (64, 256, 1024, 4096) for M in (2, 4, 16, 64, 256))
ORACLE_TOLERANCE = 1e-10


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from the string forms of the parts."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


def _whole(value, name: str) -> int:
    """value as an int, which must equal it: 2.5 is refused, not truncated."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be whole, found {value!r}")
    return whole


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
        grid = tuple((_whole(n, "grid entries"), _whole(M, "grid entries")) for n, M in self.grid)
        object.__setattr__(self, "grid", grid)
        for name in ("atoms_K", "replications", "master_seed"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        object.__setattr__(self, "x_levels", tuple(float(x) for x in self.x_levels))
        if not grid:
            raise ValueError("grid must be nonempty")
        if any(n < 1 or M < 1 for n, M in grid):
            raise ValueError("grid entries must be positive")
        if len(set(grid)) != len(grid):
            raise ValueError("grid entries must be unique")
        if self.problem_kind not in PROBLEM_KINDS:
            raise ValueError(f"problem_kind must be one of {PROBLEM_KINDS}")
        if self.atoms_K < 1:
            raise ValueError("atoms_K must be at least 1")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not 0 < self.bound_b < math.inf:
            raise ValueError(f"bound_b must be positive and finite, found {self.bound_b}")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must lie in [0, 1]")
        if not all(0.0 <= x < math.inf for x in self.x_levels):
            raise ValueError(f"x_levels must be finite and nonnegative, found {list(self.x_levels)}")


@dataclass(frozen=True)
class TrialRecord:
    """One ERM trial: exact population excess risk against the hull optimum,
    and its hull solve's counters (see `solver.ErmSolution`)."""

    n: int
    M: int
    replication: int
    excess_risk: float
    oracle_risk: float
    seed: int
    converged: bool
    iterations: int
    stop_reason: str
    kkt_solves: int
    drop_steps: int
    duality_gap: float


@dataclass(frozen=True)
class PointSummary:
    """Excess-risk statistics for one (n, M) cell, and its trials' hull solves
    summed up in `solver` (see `_solver_statistics`)."""

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
    """A summary row's fields by name, its values not copied (unlike
    dataclasses.asdict, which deep-copies every cell's solver dict)."""
    return {f.name: getattr(row, f.name) for f in dataclasses.fields(row)}


@dataclass(frozen=True, eq=False)
class RateReport:
    """Grid summaries, the constant fitted on even cells, and tail tables.

    c_hat is max(mean excess / (b^2 psi)) over even-indexed grid cells;
    validation_ratios are mean excess / (c_hat b^2 psi) on the odd cells.
    c_hat_phi is the same fit against the older rate curve, kept for
    comparison.  incomplete is set when any trial failed to converge.
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
    records: tuple = field(repr=False, default=())

    def to_json_dict(self) -> dict:
        return {
            "points": [_fields(p) for p in self.points],
            "c_hat": self.c_hat,
            "c_hat_phi": self.c_hat_phi,
            "fit_indices": list(self.fit_indices),
            "validation_indices": list(self.validation_indices),
            "validation_ratios": list(self.validation_ratios),
            "deviation": [_fields(d) for d in self.deviation],
            "incomplete": self.incomplete,
            "bound_b": self.bound_b,
        }


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
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if K < 1 or M < 1:
        raise ValueError("K and M must be at least 1")
    if not 0 < b < math.inf:
        raise ValueError(f"bound_b must be positive and finite, found {b}")
    rng = np.random.default_rng(seed)
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
    """Minimal population risk over the hull, certified to a 1e-10 duality gap.

    `run_grid` calls it for outside-hull and pure-noise cells.  An
    inside-hull problem's regression function lies in the hull by
    construction, so there the hull minimum is the Bayes risk
    (`risk.bayes_risk`), which needs no solve.
    """
    cfg = SolverConfig(max_iterations=2_000_000, tolerance=ORACLE_TOLERANCE)
    solution = erm_convex_hull(dictionary, problem, cfg)
    if not solution.converged:
        raise ArithmeticError("population hull solve did not reach its duality-gap target")
    return solution


@dataclass(frozen=True, eq=False)
class Cell:
    """What the trials of one (n, M) grid cell share: the problem, its
    dictionary, the sample size n, and the population hull minimum
    oracle_risk, computed once per problem."""

    problem: DiscreteProblem
    dictionary: Dictionary
    n: int
    oracle_risk: float


def run_trials(trials, solver_config: SolverConfig) -> list[TrialRecord]:
    """Draw a size-n sample per (cell, replication, seed) trial, run hull ERM
    on all of them as one batch, and record each exact population excess.

    Each run of consecutive trials of one cell is drawn as one counts
    matrix, a row per trial from its own seed's Generator
    (`model.draw_count_matrix`, which checks the matrix once), and is one
    block of probability rows counts / n over the cell problem's atoms for
    `solver.erm_convex_hull_blocks`, which groups the blocks and checks the
    weight matrices it returns.  No sample, weights or solution object is
    built per trial; a trial's excess is the population risk of its
    fitted values w @ F, minus the cell's oracle risk.

    Returns each trial's record, in order.  A trial's solve has the same
    bits in any batch, the bits of erm_convex_hull(cell.dictionary,
    sample(cell.problem, cell.n, seed)), so any split of the trials gives
    the same records.
    """
    runs = [(cell, list(run)) for cell, run in itertools.groupby(trials, key=lambda trial: trial[0])]
    blocks = []
    for cell, run in runs:
        counts = draw_count_matrix(cell.problem, cell.n, [seed for _, _, seed in run])
        blocks.append((cell.dictionary, cell.problem, counts / cell.n))
    records = []
    for (cell, run), (weights, solves) in zip(runs, erm_convex_hull_blocks(blocks, solver_config)):
        for (_, replication, seed), w, (gap, iterations, stop_reason, kkt_solves, drop_steps) in zip(
            run, weights, solves
        ):
            record = TrialRecord(
                n=cell.n,
                M=cell.dictionary.size_M,
                replication=replication,
                excess_risk=population_risk(w @ cell.dictionary.values, cell.problem) - cell.oracle_risk,
                oracle_risk=cell.oracle_risk,
                seed=seed,
                converged=gap <= solver_config.tolerance,
                iterations=iterations,
                stop_reason=stop_reason,
                kkt_solves=kkt_solves,
                drop_steps=drop_steps,
                duality_gap=gap,
            )
            records.append(record)
    return records


def _solver_statistics(records) -> dict:
    """Iteration median and max, counter totals, a stop-reason tally and the
    largest duality gap over a cell's hull solves."""
    iterations = [r.iterations for r in records]
    return {
        "iterations_median": statistics.median(iterations),
        "iterations_max": max(iterations),
        "kkt_solves": sum(r.kkt_solves for r in records),
        "drop_steps": sum(r.drop_steps for r in records),
        "stop_reasons": dict(collections.Counter(r.stop_reason for r in records)),
        "max_duality_gap": max(r.duality_gap for r in records),
    }


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_grid(cfg: ExperimentConfig, out_dir=None, jobs: int = 1) -> RateReport:
    """Run every grid cell, fit the rate constant, and assemble the report.

    One problem is generated per (n, M) cell from a seed hashed out of
    (master_seed, n, M); replications share it and vary only the sample.
    Its hull minimum is the Bayes risk for inside-hull problems and a
    `population_oracle` solve for the other kinds.

    Trials are hull-solved in batches (`run_trials`).  jobs is first
    capped at the CPUs the process may use.  With one worker, every trial
    of the grid forms one batch; with more, the trials, in grid order, are
    cut into batches of about a quarter of a worker's share, and no more
    workers start than there are batches.  A batch runs about as many
    Frank-Wolfe rounds as its longest solve has iterations, where
    one-at-a-time solving ran the sum of them.  The records come in grid
    order, then replication order.  A trial's solve has the same bits in
    any batch (see `solver`), so when out_dir is given, trials.csv and
    report.json are written there with bytes identical for any worker count.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    jobs = min(jobs, _usable_cpus())
    trials = []
    for n, M in cfg.grid:
        problem_seed = derive_seed(cfg.master_seed, n, M, "problem")
        problem, dictionary = make_problem(
            cfg.problem_kind, cfg.atoms_K, M, cfg.bound_b, problem_seed, cfg.noise
        )
        if cfg.problem_kind == "inside-hull":
            oracle_risk = bayes_risk(problem)
        else:
            oracle_risk = population_oracle(dictionary, problem).empirical_risk
        cell = Cell(problem, dictionary, n, oracle_risk)
        trials.extend((cell, rep, derive_seed(cfg.master_seed, n, M, rep)) for rep in range(cfg.replications))

    if jobs == 1:
        records = run_trials(trials, cfg.solver)
    else:
        step = max(1, math.ceil(len(trials) / jobs / 4))
        batches = [trials[start : start + step] for start in range(0, len(trials), step)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(batches))) as pool:
            solved = pool.map(run_trials, batches, itertools.repeat(cfg.solver))
            records = [record for batch in solved for record in batch]

    by_cell: dict[tuple[int, int], list[TrialRecord]] = {key: [] for key in cfg.grid}
    for record in records:
        by_cell[(record.n, record.M)].append(record)
    incomplete = any(not r.converged for r in records)

    points = []
    for n, M in cfg.grid:
        cell = [r.excess_risk for r in by_cell[(n, M)]]
        q10, q25, q75, q90 = np.quantile(cell, (0.10, 0.25, 0.75, 0.90)).tolist()
        points.append(
            PointSummary(
                n=n,
                M=M,
                psi=psi_c(n, M),
                phi=phi_n(n, M),
                replications=len(cell),
                mean_excess=float(np.mean(cell)),
                median_excess=float(statistics.median(cell)),
                q10=q10,
                q25=q25,
                q75=q75,
                q90=q90,
                max_excess=float(np.max(cell)),
                solver=_solver_statistics(by_cell[(n, M)]),
            )
        )

    b2 = cfg.bound_b**2
    fit_idx = tuple(range(0, len(cfg.grid), 2))
    val_idx = tuple(range(1, len(cfg.grid), 2))
    c_hat = max(points[i].mean_excess / (b2 * points[i].psi) for i in fit_idx)
    c_hat = max(c_hat, 0.0)
    c_hat_phi = max(points[i].mean_excess / (b2 * points[i].phi) for i in fit_idx)
    c_hat_phi = max(c_hat_phi, 0.0)
    validation_ratios = tuple(
        points[i].mean_excess / (c_hat * b2 * points[i].psi) if c_hat > 0 else 0.0
        for i in val_idx
    )

    deviation = []
    for (n, M), cell_records in by_cell.items():
        psi = psi_c(n, M)
        for x in cfg.x_levels:
            threshold = c_hat * b2 * max(psi, x / n)
            exceed = sum(1 for r in cell_records if r.excess_risk > threshold)
            deviation.append(
                DeviationRow(
                    n=n,
                    M=M,
                    x=x,
                    threshold=threshold,
                    frequency=exceed / len(cell_records),
                    bound=4.0 * math.exp(-x),
                )
            )

    report = RateReport(
        points=tuple(points),
        c_hat=c_hat,
        c_hat_phi=c_hat_phi,
        fit_indices=fit_idx,
        validation_indices=val_idx,
        validation_ratios=validation_ratios,
        deviation=tuple(deviation),
        incomplete=incomplete,
        bound_b=cfg.bound_b,
        records=tuple(records),
    )
    if out_dir is not None:
        write_outputs(report, out_dir)
    return report


def write_outputs(report: RateReport, out_dir) -> None:
    """Write trials.csv (one row per record) and report.json, deterministically."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    lines = ["n,M,replication,excess_risk,oracle_risk,seed,converged"]
    for r in report.records:
        lines.append(
            f"{r.n},{r.M},{r.replication},{float(r.excess_risk)!r},"
            f"{float(r.oracle_risk)!r},{r.seed},{int(r.converged)}"
        )
    (path / "trials.csv").write_text("\n".join(lines) + "\n")
    (path / "report.json").write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


def _grid_cell(value) -> bool:
    return _list_of(_integer)(value) and len(value) == 2


# the JSON type each config key must have, as (check, description)
_JSON_TYPES = {
    "grid": (_list_of(_grid_cell), "a list of integer [n, M] pairs"),
    "problem_kind": (lambda value: isinstance(value, str), "a string"),
    "atoms_K": (_integer, "an integer"),
    "replications": (_integer, "an integer"),
    "master_seed": (_integer, "an integer"),
    "solver": (lambda value: isinstance(value, dict), "an object"),
    "x_levels": (_list_of(_number), "a list of numbers"),
    "bound_b": (_number, "a number"),
    "noise": (_number, "a number"),
    "max_iterations": (_integer, "an integer"),
    "tolerance": (_number, "a number"),
}


def _check_keys(raw: dict, cls, what: str) -> None:
    """Every key names a field of cls and holds a value of that field's JSON type."""
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in raw.items():
        check, description = _JSON_TYPES[key]
        if not check(value):
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
