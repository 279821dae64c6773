"""Self-tests of the benchmark; run from the repository root with

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run: they
start the benchmark as a subprocess several times.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import compare  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_runs_on_two_seeds_report_the_declared_metrics(name):
    expected = {m["name"] for m in SPEC["end_to_end"]}
    for seed in (1, 2):
        result = result_of(bench("--workload", name, "--seed", str(seed), "--seconds", "1",
                                 "--trace", "0", "--size", "tiny"))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == expected
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_tiny_run_reports_the_per_layer_metrics(name):
    result = result_of(bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1", "--size", "tiny"))
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_self_times_and_remainder_add_up_to_the_wall_time():
    spans = [
        ["experiments.run_grid", 0.0, 10.0, -1, 0, {}],
        ["model.sample", 1.0, 4.0, 0, 0, {}],
        ["risk.population_risk", 2.0, 3.0, 1, 0, {}],
        ["model.sample", 11.0, 12.0, -1, 0, {}],
        ["localization.random_net_segments", 20.0, 25.0, -1, tracing.SETUP, {}],
    ]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0, 1.0, 5.0]
    metrics = tracing.layer_metrics(spans, requests=1, wall_s=13.0)
    assert metrics["model.sample.calls"] == 2.0
    assert metrics["model.sample.self_s"] == 1.5
    assert metrics["localization.random_net_segments.self_s"] == 5.0
    layers = 7.0 + 2 * 1.5 + 1.0
    assert metrics["trace.unattributed_s"] + layers == pytest.approx(metrics["trace.wall_s"])


def test_gauge_rescales_by_the_reference_times_around_an_interval():
    references = iter([0.01] * 6 + [0.03, 0.01])
    gauge = workload.Gauge(lambda: next(references), nominal_s=0.5, warmups=5)
    assert gauge.scale(2.0, 1.0) == pytest.approx((50.0, 25.0))
    assert gauge.scale(2.0) == pytest.approx((50.0,))
    assert gauge.references == [0.01, 0.03, 0.01]
    assert gauge.factor() == pytest.approx(50.0)


def test_corrupted_solve_output_counts_as_failed(tmp_path, monkeypatch):
    solve = workload.LargeMSolve(5, workload.SIZES["tiny"]["large_m_solve"], tmp_path)
    solve.in_process = True
    solve.prepare()
    assert solve.request(0)[:2] == (1, 0)

    real_main = workload.cli.main

    def shrunk_weights(argv):
        code = real_main(argv)
        payload = json.loads(solve.out_path.read_text())
        payload["weights"] = [0.9 * w for w in payload["weights"]]
        solve.out_path.write_text(json.dumps(payload))
        return code

    monkeypatch.setattr(workload.cli, "main", shrunk_weights)
    assert solve.request(1)[:2] == (1, 1)
    assert "weights off the simplex" in solve.notes()[0]


def test_negative_excess_trial_counts_as_failed(tmp_path, monkeypatch):
    grid = workload.RateGrid(5, workload.SIZES["tiny"]["rate_grid"], tmp_path)
    attempted, failed, _ = grid.request(0)
    assert failed == 0

    real_run_grid = workload.experiments.run_grid

    def one_negative_excess(cfg, out_dir=None, jobs=1):
        report = real_run_grid(cfg, out_dir=out_dir, jobs=jobs)
        records = list(report.records)
        records[0] = dataclasses.replace(records[0], excess_risk=-1e-6)
        return dataclasses.replace(report, records=tuple(records))

    monkeypatch.setattr(workload.experiments, "run_grid", one_negative_excess)
    assert grid.request(1)[:2] == (attempted, 1)


def test_compare_verdicts():
    parent = {seed: 100.0 + seed for seed in range(10)}
    assert compare.verdict(parent, {s: v * 1.5 for s, v in parent.items()}, "higher", 0.1)[0] == "improved"
    assert compare.verdict(parent, {s: v * 0.5 for s, v in parent.items()}, "higher", 0.1)[0] == "regressed"
    assert compare.verdict(parent, dict(parent), "higher", 0.1)[0] == "no worse"
    noisy = {seed: 100.0 * (1 + seed % 2) for seed in range(10)}
    assert compare.verdict(noisy, dict(noisy), "lower", 0.1)[0] == "unresolved"


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "rate_grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert "{" not in completed.stdout
