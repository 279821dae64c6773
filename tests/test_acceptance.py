"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the plain pytest run.
"""

import math
import time

import numpy as np
import pytest

from cvxagg.experiments import (
    ExperimentConfig,
    make_cell,
    make_problem,
    population_oracle,
    run_grid,
    run_trials,
)
from cvxagg.localization import (
    calibrate_c0,
    fixed_point,
    isomorphism_check,
    localized_sup,
    random_net_segments,
    segment_excess_loss_class,
)
from cvxagg.model import (
    Dictionary,
    DiscreteProblem,
    Segment,
    SimplexWeights,
    combine,
    sample,
)
from cvxagg.rates import gap_ratio, phi_n, psi_c
from cvxagg.risk import empirical_risk
from cvxagg.solver import SolverConfig, erm_convex_hull, erm_segment
from cvxagg.sparsify import enumerate_net, expected_sparsified_risk

from _support import (
    enumerated_sparsified_risk,
    erm_oracle,
    excess_loss_mean,
    excess_loss_second_moment,
    net_cardinality_bound,
    net_gap,
    peeling_bound,
    rademacher_segment_bound,
    random_dictionary,
    random_problem,
    random_weights,
    rate_std_error,
)


def _margin(bound: float, value: float, se: float) -> str:
    """How far value lies below bound, in standard errors; the Monte Carlo
    rows below fail under -2."""
    if se > 0:
        return f"margin={(bound - value) / se:+.1f} se"
    return "margin=+inf se" if value <= bound else "margin=-inf se"


def _unfailable(x: float, check: str) -> str:
    """A label for a check at level x whose tail bound 4 exp(-x) is at least
    1: a frequency is at most 1, so that check cannot fail."""
    return f" [{check} cannot fail: 4 exp(-x) >= 1]" if 4.0 * math.exp(-x) >= 1.0 else ""


def _report(num: int, description: str, ok: bool, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {verdict} ({time.time() - started:.1f}s): {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def rate_report():
    cfg = ExperimentConfig(replications=200, master_seed=0)
    return cfg, run_grid(cfg, jobs=4)


def test_criterion_01_sparsified_risk_identity():
    started = time.time()
    ok = True
    rng = np.random.default_rng(1001)
    for _ in range(50):
        M = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        K = int(rng.integers(1, 5))
        p = random_problem(rng, K=K)
        d = random_dictionary(rng, M=M, K=K)
        w = random_weights(rng, M)
        identity = expected_sparsified_risk(w, m, d, p)
        enumerated = enumerated_sparsified_risk(w, m, d, p)
        ok = ok and abs(identity - enumerated) <= 1e-12
    reference_d = Dictionary(np.array([[0.0], [1.0]]))
    reference_p = DiscreteProblem(np.array([0]), np.array([0.5]), np.array([1.0]), 1.0)
    half = SimplexWeights(np.array([0.5, 0.5]))
    ok = ok and abs(expected_sparsified_risk(half, 4, reference_d, reference_p) - 0.0625) <= 1e-15
    _report(1, "sparsified-risk identity matches full enumeration to 1e-12", ok, started)


def test_criterion_02_net_approximation_chain():
    started = time.time()
    ok = True
    rng = np.random.default_rng(1002)
    for _ in range(100):
        M = int(rng.integers(1, 4))
        K = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        b = float(rng.uniform(0.5, 2.0))
        p = random_problem(rng, K=K, b=b)
        d = random_dictionary(rng, M=M, K=K, b=b)
        gap, ceiling = net_gap(d, p, m)
        ok = ok and 0.0 <= gap
        ok = ok and gap <= ceiling + 1e-15
        ok = ok and ceiling <= 4.0 * b * b / m
    _report(2, "0 <= net gap <= variance/m <= 4b^2/m on 100 random problems", ok, started)


def test_criterion_03_net_cardinality():
    started = time.time()
    ok = True
    for M in range(1, 11):
        for m in range(1, 7):
            ok = ok and len(enumerate_net(M, m)) == math.comb(M + m - 1, m)
    # the (2eM/m)^m bound is provable only for m <= M + 1; inside the stated
    # M <= 50, m <= 10 box it is arithmetically false at exactly 7 corners
    # (all with m > M + 1), which the sweep pins down explicitly
    failures = set()
    for M in range(1, 51):
        for m in range(1, 11):
            try:
                exact, bound = net_cardinality_bound(M, m)
            except ArithmeticError:
                failures.add((M, m))
                continue
            ok = ok and exact <= bound
            if m <= M + 1:
                log_exact = math.lgamma(M + m) - math.lgamma(m + 1) - math.lgamma(M)
                log_bound = m * (math.log(2.0) + 1.0 + math.log(M) - math.log(m))
                ok = ok and log_exact <= log_bound + 1e-9
    ok = ok and failures == {(1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (2, 9), (2, 10)}
    ok = ok and all(m > M + 1 for M, m in failures)
    _report(
        3,
        "net counts exact; cardinality bound holds on the provable sub-box "
        "(7 known-false corners with m > M+1 pinned)",
        ok,
        started,
    )


def test_criterion_04_bernstein_condition():
    started = time.time()
    ok = True
    rng = np.random.default_rng(1004)
    cfg = SolverConfig(tolerance=1e-10)
    for _ in range(50):
        M = int(rng.integers(2, 6))
        K = int(rng.integers(2, 6))
        b = float(rng.uniform(0.5, 1.5))
        p = random_problem(rng, K=K, b=b)
        d = random_dictionary(rng, M=M, K=K, b=b)
        f_star = combine(d, erm_convex_hull(d, p, cfg).weights)
        x = p.x_indices
        for _ in range(200):
            f = combine(d, random_weights(rng, M))
            dist2 = float(p.probabilities @ (f[x] - f_star[x]) ** 2)
            mean = excess_loss_mean(f, f_star, p)
            second = excess_loss_second_moment(f, f_star, p)
            ok = ok and mean >= dist2 - 1e-10
            ok = ok and second <= 16.0 * b * b * dist2 + 1e-10
    _report(4, "excess-loss mean/second-moment inequalities on 50x200 hull points", ok, started)


def test_criterion_05_solver_certification():
    started = time.time()
    ok = True
    rng = np.random.default_rng(1005)
    grid_resolution = 32
    for _ in range(200):
        M = int(rng.integers(1, 5))
        K = int(rng.integers(1, 5))
        n = int(rng.integers(1, 51))
        b = float(rng.uniform(0.5, 1.5))
        p = random_problem(rng, K=K, b=b)
        d = random_dictionary(rng, M=M, K=K, b=b)
        s = sample(p, n, seed=int(rng.integers(2**31)))
        fw = erm_convex_hull(d, s)
        oracle = erm_oracle(d, s, grid_resolution)
        grid_error = 4.0 * b * b * M / grid_resolution
        ok = ok and fw.duality_gap <= 1e-8
        ok = ok and fw.converged
        ok = ok and fw.empirical_risk <= oracle.empirical_risk + 1e-6 + 1e-12
        ok = ok and oracle.empirical_risk <= fw.empirical_risk + grid_error + 1e-9

        seg = Segment(rng.uniform(-b, b, K), rng.uniform(-b, b, K))
        theta, minimizer = erm_segment(seg, s)
        xs = np.repeat(s.x_indices, s.counts)
        u = seg.endpoint_j[xs]
        v = seg.endpoint_i[xs] - u
        resid = np.repeat(s.y_values, s.counts) - u
        a2 = float(v @ v) / n
        a1 = -2.0 * float(resid @ v) / n
        a0 = float(resid @ resid) / n
        thetas = np.linspace(0.0, 1.0, 1_000_001)
        scan_min = float(np.min((a2 * thetas + a1) * thetas + a0))
        ok = ok and abs(empirical_risk(minimizer, s) - scan_min) <= 1e-8
    _report(5, "hull solver certified vs grid oracle; segment ERM matches 1e-6 scan", ok, started)


def test_criterion_06_rate_shape_expectation(rate_report):
    started = time.time()
    cfg, report = rate_report
    ok = not report.incomplete
    ok = ok and report.c_hat > 0
    ok = ok and all(ratio <= 2.0 for ratio in report.validation_ratios)
    # against the older rate curve phi >= psi everywhere on this grid, so the
    # fitted constant can only shrink; logged for comparison, and the
    # guaranteed direction asserted
    ok = ok and report.c_hat_phi <= report.c_hat * (1.0 + 1e-12)
    print(
        f"    c_hat={report.c_hat:.4f} c_hat_phi={report.c_hat_phi:.4f} "
        f"max validation ratio={max(report.validation_ratios):.3f}"
    )
    _report(6, "mean excess <= 2 c_hat psi on held-out grid half", ok, started)


def test_criterion_07_deviation_form(rate_report):
    started = time.time()
    _, report = rate_report
    c_hat = report.c_hat
    n, M = 1024, 64
    cfg = ExperimentConfig(grid=((n, M),), replications=1000, master_seed=0)
    cell = run_grid(cfg, jobs=4)
    excesses = np.array([r.excess_risk for r in cell.records])
    psi = psi_c(n, M)
    ok = True
    for x in (1.0, 2.0, 3.0):
        threshold = c_hat * max(psi, x / n)
        freq = float(np.mean(excesses > threshold))
        se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / excesses.size)
        bound = 4.0 * math.exp(-x)
        print(
            f"    x={x}: freq={freq:.4f} bound={bound:.4f} (+2se={2*se:.4f}) "
            f"{_margin(bound, freq, se)}{_unfailable(x, 'this row')}"
        )
        ok = ok and freq <= bound + 2.0 * se
    _report(7, "tail frequencies at (1024, 64) under 4 exp(-x) + 2 SE", ok, started)


def test_criterion_08_isomorphism_violation_rate():
    started = time.time()
    problem, dictionary = make_problem("outside-hull", K=6, M=8, b=1.0, seed=88)
    segments = random_net_segments(dictionary, m=2, num_functions=10, num_segments=10, seed=89)
    n, reps = 256, 2000
    c0 = calibrate_c0(
        segments,
        problem,
        n,
        x_levels=[1.0, 2.0, 3.0, 4.0],
        reps=reps,
        seed=90,
        num_net_functions=10,
        target_scale=0.9,
    )
    ok = c0 > 0
    for x in (1.0, 2.0):
        report = isomorphism_check(
            segments, problem, n, x, c0, reps=reps, seed=91, num_net_functions=10
        )
        limit = min(1.0, 4.0 * math.exp(-x)) + 2.0 * rate_std_error(report)
        print(
            f"    x={x}: rate={report.violation_rate:.4f} bound={4 * math.exp(-x):.4f} "
            f"{_margin(min(1.0, 4.0 * math.exp(-x)), report.violation_rate, rate_std_error(report))} "
            f"erm_failures={report.erm_implication_failures}/{report.erm_checked}{_unfailable(x, 'the rate check')}"
        )
        ok = ok and report.violation_rate <= limit
        ok = ok and report.erm_implication_failures == 0
    _report(8, f"calibrated c0={c0:.3f}: violation rates within bounds, ERM implication holds", ok, started)


def test_criterion_09_localization_bounds():
    started = time.time()
    rng = np.random.default_rng(1009)
    p = random_problem(rng, K=4, b=1.0)
    d = random_dictionary(rng, M=4, K=4, b=1.0)
    seg = Segment(d.values[0], d.values[1])
    n = 256
    ok = True
    for mu in (0.01, 0.04, 0.16):
        est, se = localized_sup(segment_excess_loss_class(seg, mu), p, n=n, reps=400, seed=92)
        ceiling = rademacher_segment_bound(1.0, mu, n)
        print(f"    mu={mu}: estimate={est:.5f} bound={ceiling:.5f} se={se:.5f}")
        ok = ok and est <= ceiling + 3.0 * se

    closed = 8.0 * math.sqrt(2.0) / (1.0 - 2.0**-0.5)
    peel = peeling_bound(lambda mu: 8.0 * math.sqrt(mu / 1.0), 1.0)
    ok = ok and abs(peel - closed * math.sqrt(1.0)) <= 1e-6 * closed

    c = closed
    for n_fp in (100, 4096):
        out = fixed_point(lambda lam: c * math.sqrt(lam / n_fp))
        ok = ok and abs(out - (8.0 * c) ** 2 / n_fp) <= 1e-6 * (8.0 * c) ** 2 / n_fp
    _report(9, "segment sup under 8b sqrt(mu/n); peeling and fixed point closed forms", ok, started)


def test_criterion_10_rate_functions():
    started = time.time()
    ok = abs(psi_c(100, 10) - 0.1) <= 1e-15
    ok = ok and abs(psi_c(100, 100) - 0.18173) <= 1e-5
    ok = ok and abs(phi_n(100, 100) - 0.21460) <= 1e-5
    for n in (4, 16, 64, 256, 1024, 4096):
        M = int(math.isqrt(n))
        ok = ok and psi_c(n, M) == math.sqrt(math.log(math.e * M / math.sqrt(n)) / n)
    # 1000-point grid in the n >= 8 region where the ordering is provable
    n_values = np.unique(np.geomspace(8, 10**6, 50).astype(int))
    m_values = np.unique(np.geomspace(2, 10**6, 25).astype(int))
    count = 0
    for n in n_values:
        for M in m_values:
            ok = ok and gap_ratio(int(n), int(M)) >= 1.0 - 1e-12
            count += 1
    ok = ok and count >= 1000
    _report(10, f"rate values, boundary continuity, gap ratio >= 1 on {count}-point grid", ok, started)


def test_criterion_11_determinism(tmp_path):
    started = time.time()
    cfg = ExperimentConfig(
        grid=((64, 2), (64, 4), (256, 2), (256, 4)), replications=25, master_seed=0
    )
    run_grid(cfg, out_dir=tmp_path / "first", jobs=1)
    run_grid(cfg, out_dir=tmp_path / "second", jobs=1)
    run_grid(cfg, out_dir=tmp_path / "parallel", jobs=4)
    first = (tmp_path / "first" / "trials.csv").read_bytes()
    ok = first == (tmp_path / "second" / "trials.csv").read_bytes()
    ok = ok and first == (tmp_path / "parallel" / "trials.csv").read_bytes()
    ok = ok and (tmp_path / "first" / "report.json").read_bytes() == (
        tmp_path / "parallel" / "report.json"
    ).read_bytes()
    _report(11, "byte-identical trials.csv and report.json across reruns and --jobs", ok, started)


def test_criterion_12_batch_invariance(rate_report):
    # criterion 6's run (jobs=4, capped at the CPUs the process may use) cut
    # its 4 000 trials, in grid order, into batches of 250 at 4 workers (500
    # at 2), each holding trials of cells of different M; the first five
    # trials of every cell, each solved alone, give the same bits and the
    # same solve counters
    started = time.time()
    cfg, report = rate_report
    columns = report.records.columns()
    ok = True
    for i, (n, M) in enumerate(cfg.grid):
        cell = make_cell(cfg, n, M)
        for rep in range(5):
            j = i * cfg.replications + rep
            alone = run_trials([(cell, rep, rep + 1)], cfg.solver)
            ok = ok and all(
                column.tobytes() == columns[name][j : j + 1].tobytes() for name, column in alone.columns().items()
            )
    _report(12, "trials solved alone match the batched rate run bit for bit", ok, started)
