"""One run of one cvxagg benchmark workload: set-up, closed loop, output checks.

run.py starts this file as a process of its own, with the checkout's src/ on
PYTHONPATH, and reads the JSON object on the last line of its stdout.
"""

import os

# One BLAS thread, set before numpy loads.  With OpenBLAS's default of one
# thread per core, the same M=1024 Frank-Wolfe solve took 0.011 s or 0.26 s
# from run to run on a 2-core machine (see README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

# This process and its children run on one CPU, so the reference computation
# that rescales their times (Gauge) runs on the same CPU as the work itself.
AVAILABLE_CPUS = sorted(os.sched_getaffinity(0))
os.sched_setaffinity(0, {AVAILABLE_CPUS[-1]})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from cvxagg import cli, csvio, experiments, localization, model  # noqa: E402

import tracing  # noqa: E402

SETUP_REPEATS = 5
# Request i of a run with seed s draws its inputs from seed s * SEED_STRIDE + i.
SEED_STRIDE = 10**6
SOLVE_TOL = 1e-8
# Median wall times of reference_seconds() and child_reference_seconds() on a
# 2-vCPU Xeon at 2.1 GHz with one BLAS thread; see "Reference speed" in README.md.
REFERENCE_S = 0.018
CHILD_REFERENCE_S = 0.15

SIZES = {
    "full": {
        "rate_grid": {"grid": experiments.DEFAULT_GRID, "replications": 10},
        "isomorphism": {"reps": 10, "num_functions": 10, "num_segments": 10},
        "large_m_solve": {"M": 4096, "n": 1024},
    },
    "tiny": {
        "rate_grid": {"grid": ((64, 2), (64, 4), (256, 2), (256, 4)), "replications": 3},
        "isomorphism": {"reps": 3, "num_functions": 4, "num_segments": 3},
        "large_m_solve": {"M": 64, "n": 128},
    },
}


def failed_trials(records) -> int:
    """Trials that did not converge or beat the certified population optimum.

    The oracle's duality gap is certified to 1e-10, so an excess risk below
    -1e-9 cannot be right.
    """
    return sum(1 for r in records if not r.converged or r.excess_risk < -1e-9)


def solve_failures(returncode: int, output: str, F: np.ndarray, x: np.ndarray, y: np.ndarray, tol: float) -> list[str]:
    """Reasons a `cvxagg solve` result is wrong; empty when it passes.

    F is the (M, K) dictionary and (x, y) the sample, both parsed from the
    CSV files the solve read.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        out = json.loads(output)
        w = np.asarray(out["weights"], dtype=float)
        reported = float(out["empirical_risk"])
        gap = float(out["duality_gap"])
        converged = out["converged"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    reasons = []
    if converged is not True:
        reasons.append("not converged")
    if not gap <= tol:
        reasons.append(f"duality gap {gap!r} above tol {tol!r}")
    if w.shape != (F.shape[0],) or not np.all(np.isfinite(w)) or w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-9:
        reasons.append("weights off the simplex")
        return reasons
    resid = y - (w @ F)[x]
    risk = float(resid @ resid) / y.size
    if abs(risk - reported) > 1e-12 * abs(risk):
        reasons.append(f"reported risk {reported!r} but the weights give {risk!r}")
    K = F.shape[1]
    freq = np.bincount(x, minlength=K) / y.size
    ymass = np.bincount(x, weights=y, minlength=K) / y.size
    best_row = float(np.min((F * F) @ freq - 2.0 * (F @ ymass))) + float(y @ y) / y.size
    if reported > best_row + 1e-12 * abs(best_row):
        reasons.append(f"reported risk {reported!r} above the best single row {best_row!r}")
    return reasons


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_REF_RNG = np.random.default_rng(20131217)
_REF_A = _REF_RNG.standard_normal((48, 48)) / 7.0
_REF_V = _REF_RNG.standard_normal(48)
_REF_B = _REF_RNG.standard_normal(1 << 16)
_REF_OUT = np.empty_like(_REF_B)


def reference_seconds() -> float:
    """Wall time of a fixed computation that calls no cvxagg code.

    Interpreter loops, small matrix-vector products and passes over a
    512 KiB array: the kinds of work the in-process workloads do.  Its time tracks how
    fast the machine runs right now, not how fast cvxagg is.
    """
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    x = _REF_V
    for _ in range(3_000):
        x = np.tanh(_REF_A @ x)
    for _ in range(24):
        np.multiply(_REF_B, 1.0000001, out=_REF_OUT)
        _REF_OUT.sum()
    return time.perf_counter() - start


def child_reference_seconds() -> float:
    """Wall time of a fresh interpreter importing numpy, which calls no cvxagg code.

    A `large_m_solve` request is a fresh interpreter too, and its time drifts
    with the machine's speed as this one does, not as reference_seconds() does.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


class RateGrid:
    """run_grid on the default grid, jobs=1: many small-M hull solves."""

    modules = "cvxagg.experiments"
    reference = (reference_seconds, REFERENCE_S)

    def __init__(self, seed, size, tmp):
        self.seed, self.size, self.out = seed, size, tmp / "grid"
        self.ops_per_request = len(size["grid"]) * size["replications"]
        self.digests = {}

    def prepare(self):
        pass  # run_grid draws its own problems from the master seed

    def request(self, i):
        cfg = experiments.ExperimentConfig(
            grid=self.size["grid"],
            replications=self.size["replications"],
            master_seed=self.seed * SEED_STRIDE + i,
        )
        start = time.perf_counter()
        report = experiments.run_grid(cfg, out_dir=self.out, jobs=1)
        latency = time.perf_counter() - start
        if i == 0:
            self.digests = {name: _sha256(self.out / name) for name in ("trials.csv", "report.json")}
        missing = self.ops_per_request - len(report.records)
        return self.ops_per_request, failed_trials(report.records) + missing, latency

    def notes(self):
        return [f"sha256 {name} {digest} (request 0)" for name, digest in self.digests.items()]


class Isomorphism:
    """Criterion-8 fixture: calibrate c0, check x=1,2, localized sups at both levels."""

    modules = "cvxagg.experiments, cvxagg.localization"
    reference = (reference_seconds, REFERENCE_S)
    X_LEVELS = (1.0, 2.0)
    N_SAMPLE = 256

    def __init__(self, seed, size, tmp):
        self.seed, self.size = seed, size
        self.ops_per_request = 5 * size["reps"] * size["num_segments"]
        self.violations = {x: {} for x in self.X_LEVELS}
        self.c0 = None

    def prepare(self):
        self.problem, dictionary = experiments.make_problem("outside-hull", K=6, M=8, b=1.0, seed=self.seed)
        self.segments = localization.random_net_segments(
            dictionary, m=2, num_functions=self.size["num_functions"],
            num_segments=self.size["num_segments"], seed=self.seed + 1,
        )

    def request(self, i):
        reps, N, n = self.size["reps"], self.size["num_functions"], self.N_SAMPLE
        base = self.seed * SEED_STRIDE
        start = time.perf_counter()
        # the same calibration datasets every request, so c0 is one value per run
        c0 = localization.calibrate_c0(
            self.segments, self.problem, n, x_levels=(1.0, 2.0, 3.0, 4.0), reps=reps,
            seed=base + 1, num_net_functions=N, target_scale=0.9,
        )
        if not (math.isfinite(c0) and c0 > 0):
            return self.ops_per_request, self.ops_per_request, time.perf_counter() - start
        self.c0 = c0
        failed = 0
        levels = []
        for x in self.X_LEVELS:
            report = localization.isomorphism_check(
                self.segments, self.problem, n, x, c0, reps=reps, seed=base + 2,
                num_net_functions=N, rep_offset=i * reps,
            )
            failed += report.erm_implication_failures * len(self.segments)
            self.violations[x][i] = (report.violations, report.trials)
            levels.append(report.gamma_or_rho)
        for segment in self.segments:
            for level in levels:
                estimate, _ = localization.localized_sup(
                    localization.segment_excess_loss_class(segment, level),
                    self.problem, n, reps=reps, seed=base + 3 + i,
                )
                if not (math.isfinite(estimate) and estimate >= 0.0):
                    failed += reps
        return self.ops_per_request, failed, time.perf_counter() - start

    def notes(self):
        lines = [f"c0 {self.c0!r}"]
        for x, per_request in self.violations.items():
            violations = sum(v for v, _ in per_request.values())
            trials = sum(t for _, t in per_request.values())
            if not trials:
                continue
            rate = violations / trials
            limit = min(1.0, 4.0 * math.exp(-x)) + 2.0 * math.sqrt(rate * (1.0 - rate) / trials)
            verdict = "PASS" if rate <= limit else "FAIL"
            lines.append(f"violation rate x={x:g}: {violations}/{trials} = {rate:.4f}, limit {limit:.4f} {verdict}")
        return lines


class LargeMSolve:
    """`python -m cvxagg solve` on a K=16, M=4096 dictionary, a fresh sample per solve."""

    modules = "cvxagg.cli"
    reference = (child_reference_seconds, CHILD_REFERENCE_S)

    def __init__(self, seed, size, tmp):
        self.seed, self.size = seed, size
        self.dict_path, self.samples_path, self.out_path = tmp / "dict.csv", tmp / "samples.csv", tmp / "solution.json"
        self.ops_per_request = 1
        self.in_process = False
        self.peak_rss_kib = 0
        self.reasons = []

    def prepare(self):
        self.problem, dictionary = experiments.make_problem("inside-hull", K=16, M=self.size["M"], b=1.0, seed=self.seed)
        csvio.write_dictionary(dictionary, self.dict_path)
        table = np.loadtxt(self.dict_path, delimiter=",", skiprows=1, ndmin=2)
        self.F = table[np.argsort(table[:, 0]), 1:].T.copy()

    def request(self, i):
        csvio.write_samples(model.sample(self.problem, self.size["n"], self.seed * SEED_STRIDE + i), self.samples_path)
        self.out_path.unlink(missing_ok=True)
        argv = ["solve", "--dict", str(self.dict_path), "--samples", str(self.samples_path),
                "--tol", repr(SOLVE_TOL), "--out", str(self.out_path)]
        start = time.perf_counter()
        if self.in_process:
            returncode = cli.main(argv)
        else:
            child = subprocess.Popen([sys.executable, "-m", "cvxagg", *argv], stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            returncode = child.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        latency = time.perf_counter() - start
        rows = np.loadtxt(self.samples_path, delimiter=",", skiprows=1, ndmin=2)
        output = self.out_path.read_text() if self.out_path.exists() else ""
        reasons = solve_failures(returncode, output, self.F, rows[:, 0].astype(np.int64), rows[:, 1], SOLVE_TOL)
        if reasons:
            self.reasons.append(f"solve {i}: " + "; ".join(reasons))
        return 1, int(bool(reasons)), latency

    def notes(self):
        return self.reasons[:5]


WORKLOADS = {"rate_grid": RateGrid, "isomorphism": Isomorphism, "large_m_solve": LargeMSolve}


class Gauge:
    """Rescales wall times to the reference machine's speed.

    The reference computation runs before the first timed interval and after
    each one.  An interval's wall time is multiplied by the reference's
    nominal time over the mean of the two reference times around it, which
    cancels the drift of a shared machine's speed between and within runs
    (README.md).  factor() rescales by the median of all readings instead.
    """

    def __init__(self, reference, nominal_s: float, warmups: int = 3):
        self.reference, self.nominal_s = reference, nominal_s
        for _ in range(warmups):  # the first calls run slower: cold caches, unspecialised bytecode
            reference()
        self.last = reference()
        self.references = [self.last]

    def read(self) -> float:
        now = self.reference()
        self.references.append(now)
        return now

    def scale(self, *seconds: float) -> tuple[float, ...]:
        """The wall times of the interval since the last reading, at reference speed."""
        before, self.last = self.last, self.read()
        factor = self.nominal_s / (0.5 * (before + self.last))
        return tuple(s * factor for s in seconds)

    def factor(self) -> float:
        """The nominal time over the median of all readings so far."""
        return self.nominal_s / statistics.median(self.references)


@dataclass
class Loop:
    """Request counts and times; with a gauge, times are at reference speed."""

    gauge: Gauge | None = None
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    latencies: list = field(default_factory=list)
    wall_elapsed: float = 0.0
    wall_latencies: list = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.elapsed

    @property
    def wall_ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall_elapsed

    def step(self, workload) -> None:
        start = time.perf_counter()
        attempted, failed, latency = run_request(workload, self.requests)
        elapsed = time.perf_counter() - start
        self.wall_elapsed += elapsed
        self.wall_latencies.append(latency)
        if self.gauge is not None:
            elapsed, latency = self.gauge.scale(elapsed, latency)
        self.elapsed += elapsed
        self.attempted += attempted
        self.failed += failed
        self.latencies.append(latency)
        self.requests += 1


def closed_loop(workload, seconds: float, gauge: Gauge) -> Loop:
    """One client: each request starts when the previous one has returned."""
    loop = Loop(gauge)
    start = time.perf_counter()
    while loop.requests == 0 or time.perf_counter() - start < seconds:
        loop.step(workload)
    return loop


def paired_loop(workload, seconds: float, tracer, modules: dict) -> tuple[Loop, Loop]:
    """Run each request twice, untraced and traced, in alternating order.

    Both copies see the same inputs and nearly the same machine state, so
    the two loops' ops_per_s differ by the tracer's cost, not by drift in
    the machine's speed.
    """
    untraced, traced = Loop(), Loop()
    start = time.perf_counter()
    while traced.requests == 0 or time.perf_counter() - start < seconds:
        tracer.request = traced.requests
        order = (untraced, traced) if traced.requests % 2 == 0 else (traced, untraced)
        for loop in order:
            with tracer.installed(modules) if loop is traced else contextlib.nullcontext():
                loop.step(workload)
    return untraced, traced


def run_request(workload, i):
    """A request that raises counts all its operations as failed; the run goes on."""
    start = time.perf_counter()
    try:
        return workload.request(i)
    except Exception:
        traceback.print_exc()
        return workload.ops_per_request, workload.ops_per_request, time.perf_counter() - start


def timed_setup(workload) -> tuple[float, tuple]:
    """Fresh-interpreter imports, input generation and CSV writes, one warm-up request."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import numpy, {workload.modules}"], check=True)
    workload.prepare()
    warm = run_request(workload, 0)
    return time.perf_counter() - start, warm


def tail_latency(latencies) -> tuple[float, float]:
    """The highest percentile with at least 10 samples above it, and that percentile.

    With fewer than 11 samples no percentile qualifies; the maximum is
    returned as the 100th.
    """
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def startup_seconds() -> float:
    """Median wall time of a fresh interpreter importing cvxagg.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cvxagg.cli"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _blas_threads():
    for line in Path("/proc/self/maps").read_text().splitlines():
        if "openblas" in line.lower():
            library = ctypes.CDLL(line.split()[-1])
            for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_"):
                if hasattr(library, symbol):
                    getter = getattr(library, symbol)
                    getter.restype = ctypes.c_int
                    return getter()
    return None


def env_block(root: Path) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True, cwd=root,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the benchmark's checkout need not be a git repository
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "nproc": len(AVAILABLE_CPUS),  # what nproc printed before this process pinned itself
        "pinned_cpu": AVAILABLE_CPUS[-1],
        "python": platform.python_version(),
        "git_commit": commit,
    }


def run(name: str, seed: int, seconds: float, trace: bool, size: str, root: Path, tmp: Path) -> dict:
    workload = WORKLOADS[name](seed, SIZES[size][name], tmp)
    gauge = Gauge(*workload.reference)
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(timed_setup(workload))
        gauge.read()
    # Rescaled by the median of the readings after all five set-ups, which is
    # steadier than the two readings next to any one of them.
    setup_wall = statistics.median(wall for wall, _ in setups)
    setup_s = setup_wall * gauge.factor()
    attempted = sum(warm[0] for _, warm in setups)
    failed = sum(warm[1] for _, warm in setups)
    notes = []
    if not trace:
        loop = closed_loop(workload, seconds, gauge)
        tail, percentile = tail_latency(loop.latencies)
        wall_tail, _ = tail_latency(loop.wall_latencies)
        notes.append(f"latency_tail_s is p{percentile:.1f} of {len(loop.latencies)} requests")
        notes.append(
            f"reference computation median {statistics.median(gauge.references)!r} s over "
            f"{len(gauge.references)} timings of {gauge.reference.__name__} (nominal {gauge.nominal_s!r} s)"
        )
        notes.append(
            f"wall clock: setup_s {setup_wall!r} "
            f"ops_per_s {loop.wall_ops_per_s!r} latency_p50_s {statistics.median(loop.wall_latencies)!r} "
            f"latency_tail_s {wall_tail!r}"
        )
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": loop.ops_per_s,
            "latency_p50_s": statistics.median(loop.latencies),
            "latency_tail_s": tail,
        }
        if isinstance(workload, LargeMSolve):
            metrics["peak_rss_mib"] = workload.peak_rss_kib / 1024.0
        loops = [loop]
    else:
        # In process, so the tracer's wrappers see every call.
        workload.in_process = True
        modules = {"experiments": experiments, "cli": cli, "csvio": csvio, "localization": localization}
        tracer = tracing.Tracer()
        with tracer.installed(modules):
            workload.prepare()
        untraced, traced = paired_loop(workload, seconds, tracer, modules)
        metrics = tracing.layer_metrics(tracer.spans, traced.requests, traced.elapsed)
        metrics["cli.startup_s"] = startup_seconds() if isinstance(workload, LargeMSolve) else 0.0
        metrics["trace.ops_per_s"] = traced.ops_per_s
        metrics["trace.overhead_ops_per_s"] = untraced.ops_per_s - traced.ops_per_s
        spans_path = root / ".perfbench_out" / f"spans-{name}-seed{seed}.jsonl"
        tracer.dump(spans_path)
        notes.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(root)}")
        notes.append(f"untraced ops_per_s {untraced.ops_per_s!r}, traced {traced.ops_per_s!r}")
        loops = [untraced, traced]
    attempted += sum(loop.attempted for loop in loops)
    failed += sum(loop.failed for loop in loops)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes + workload.notes(),
        "env": env_block(root),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args()
    scratch = args.root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, args.root, tmp)
    finally:
        shutil.rmtree(tmp)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
