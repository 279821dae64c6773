"""Spans around calls into cvxagg's modules, and the per-layer metrics made from them.

The tracer replaces module attributes with timing wrappers.  It wraps the
attribute each call site actually looks up: `experiments` and `cli` import
functions by name, so `experiments.sample` is wrapped, not `model.sample`.
Spans stay in memory until the run ends.  Each span is
[name, start, end, parent index, request id, counts].
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time
from pathlib import Path

SETUP = "setup"
ORACLE = "experiments.population_oracle"


def _hull_counts(args, solution):
    size_m = args["dictionary"].size_M
    return {
        "iterations": solution.iterations,
        "unconverged": int(not solution.converged),
        # 8 M^2 bytes: the dense Gram the solver builds, computed from M, not measured.
        "gram_bytes": 8 * size_m * size_m,
    }


def _output_bytes(args, _):
    out = Path(args["out_dir"])
    return {"bytes": sum((out / name).stat().st_size for name in ("trials.csv", "report.json"))}


def _file_bytes(args, _):
    return {"bytes": os.path.getsize(args["path"])}


def _calibration(args, c0):
    return {"evals": args["reps"] * len(args["segments"]), "c0": c0}


def _check_report(args, report):
    return {
        "evals": args["reps"] * len(args["segments"]),
        "violations": report.violations,
        "erm_checked": report.erm_checked,
        "erm_implication_failures": report.erm_implication_failures,
    }


def _sup_evals(args, _):
    return {"evals": args["reps"]}


def _oracle_counts(_, solution):
    return {"iterations": solution.iterations}


# (module name, attribute, layer name, counts from (bound arguments, result))
WRAPPED = (
    ("experiments", "run_grid", "experiments.run_grid", None),
    ("experiments", "make_problem", "experiments.make_problem", None),
    ("experiments", "population_oracle", ORACLE, _oracle_counts),
    ("experiments", "sample", "model.sample", None),
    ("experiments", "erm_convex_hull", "solver.erm_convex_hull", _hull_counts),
    ("experiments", "population_risk", "risk.population_risk", None),
    ("experiments", "write_outputs", "experiments.write_outputs", _output_bytes),
    ("cli", "main", "cli.main", None),
    ("cli", "erm_convex_hull", "solver.erm_convex_hull", _hull_counts),
    ("csvio", "read_dictionary", "csvio.read_dictionary", _file_bytes),
    ("csvio", "read_samples", "csvio.read_samples", _file_bytes),
    ("localization", "random_net_segments", "localization.random_net_segments", None),
    ("localization", "erm_segment", "solver.erm_segment", None),
    ("localization", "calibrate_c0", "localization.calibrate_c0", _calibration),
    ("localization", "isomorphism_check", "localization.isomorphism_check", _check_report),
    ("localization", "localized_sup", "localization.localized_sup", _sup_evals),
)


class Tracer:
    """Records one span per call to a wrapped attribute."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = SETUP
        self._stack: list[int] = []

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap the WRAPPED attributes of modules {name: module} for the block."""
        patched = []
        try:
            for module_name, attr, name, counts in WRAPPED:
                module = modules[module_name]
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(original, name, counts))
                patched.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def _wrap(self, original, name, counts):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if name == "solver.erm_convex_hull" and parent >= 0 and self.spans[parent][0] == ORACLE:
                # the oracle's own hull solve is the oracle's self time
                return original(*args, **kwargs)
            span = [name, time.perf_counter(), None, parent, self.request, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span[5] = counts(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, request, counts in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                "request": request, "counts": counts}) + "\n"
                )


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, requests: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Calls and counts are per request of the closed loop and self times are
    per call, so neither depends on the run length.  A layer called only in
    set-up (random_net_segments, make_problem outside rate_grid) gets its
    self time from the set-up spans.  wall_s is the traced loop's wall time;
    per request, sum(calls * self_s) over layers plus unattributed_s equals
    wall_s.
    """
    own = self_times(spans)
    every: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        every.setdefault(span[0], []).append(i)
    loop = {name: [i for i in group if spans[i][4] != SETUP] for name, group in every.items()}
    first = {name: [i for i in group if spans[i][4] == 0] for name, group in every.items()}

    def calls(name):
        return len(loop.get(name, [])) / requests

    def self_s(name):
        group = loop.get(name) or every.get(name, [])
        return sum(own[i] for i in group) / len(group) if group else 0.0

    def total(name, key, groups):
        # a call that raised has no counts
        return sum(spans[i][5].get(key, 0) for i in groups.get(name, []))

    def mean(name, key):
        group = every.get(name, [])
        return total(name, key, every) / len(group) if group else 0.0

    def us_per_eval(name):
        evals = total(name, "evals", every)
        return 1e6 * sum(own[i] for i in every.get(name, [])) / evals if evals else 0.0

    hull = "solver.erm_convex_hull"
    iterations = [spans[i][5].get("iterations", 0) for i in every.get(hull, [])]
    metrics = {
        "model.sample.calls": calls("model.sample"),
        "model.sample.self_s": self_s("model.sample"),
        "risk.population_risk.self_s": self_s("risk.population_risk"),
        "solver.erm_convex_hull.calls": calls(hull),
        "solver.erm_convex_hull.self_s": self_s(hull),
        "solver.erm_convex_hull.iterations_mean": mean(hull, "iterations"),
        "solver.erm_convex_hull.iterations_max": float(max(iterations, default=0)),
        "solver.erm_convex_hull.unconverged": total(hull, "unconverged", loop) / requests,
        "solver.gram_bytes_computed": mean(hull, "gram_bytes"),
        "solver.erm_segment.self_s": self_s("solver.erm_segment"),
        "experiments.make_problem.self_s": self_s("experiments.make_problem"),
        "experiments.population_oracle.calls": calls(ORACLE),
        "experiments.population_oracle.self_s": self_s(ORACLE),
        "experiments.population_oracle.iterations_mean": mean(ORACLE, "iterations"),
        "experiments.run_grid.self_s": self_s("experiments.run_grid"),
        "experiments.write_outputs.self_s": self_s("experiments.write_outputs"),
        "experiments.write_outputs.bytes": mean("experiments.write_outputs", "bytes"),
        "localization.random_net_segments.self_s": self_s("localization.random_net_segments"),
        "csvio.read_dictionary.self_s": self_s("csvio.read_dictionary"),
        "csvio.read_dictionary.bytes": mean("csvio.read_dictionary", "bytes"),
        "csvio.read_samples.self_s": self_s("csvio.read_samples"),
        "csvio.read_samples.bytes": mean("csvio.read_samples", "bytes"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for entry in ("calibrate_c0", "isomorphism_check", "localized_sup"):
        name = f"localization.{entry}"
        metrics[f"{name}.self_s"] = self_s(name)
        metrics[f"{name}.us_per_eval"] = us_per_eval(name)
    # fingerprints of the first request, which every run with this seed repeats
    calibrations = first.get("localization.calibrate_c0")
    metrics["localization.calibrate_c0.c0"] = float(spans[calibrations[0]][5].get("c0", 0.0)) if calibrations else 0.0
    for key in ("violations", "erm_checked", "erm_implication_failures"):
        metrics[f"localization.isomorphism_check.{key}"] = float(
            total("localization.isomorphism_check", key, first)
        )
    metrics["trace.wall_s"] = wall_s / requests
    covered = sum(own[i] for group in loop.values() for i in group)
    metrics["trace.unattributed_s"] = (wall_s - covered) / requests
    return metrics
