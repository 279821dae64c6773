#!/usr/bin/env python3
"""cvxagg benchmark: run one workload and print its metrics, or compare two result sets.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rate_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

The workload runs in a process of its own (perfbench/workload.py) with the
checkout's src/ on PYTHONPATH and BLAS pinned to one thread.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import compare

WORKLOADS = ("rate_grid", "isomorphism", "large_m_solve")
# The workload process bounds itself by --seconds; this only stops a hung one.
WORKLOAD_TIMEOUT_S = 170.0


def run_workload(args, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    command = [
        sys.executable, str(Path(__file__).with_name("workload.py")),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--root", str(root),
    ]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=root, text=True)
    watchdog = threading.Timer(WORKLOAD_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        output = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        child.stdout.close()
    if child.returncode != 0:
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 2
    outcome = json.loads(output.strip().splitlines()[-1])
    metrics = outcome["metrics"]
    if not args.trace and "peak_rss_mib" not in metrics:
        # the workload process itself did the work; wait4 gives its peak
        metrics["peak_rss_mib"] = usage.ru_maxrss / 1024.0
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 2

    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} size {args.size}")
    print("env " + json.dumps(outcome["env"], sort_keys=True))
    for note in outcome["notes"]:
        print(f"note {note}")
    for name in units:
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    print(f"metric failed_frac {failed / attempted!r} ratio ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if args.record:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "size": args.size, "env": outcome["env"], "notes": outcome["notes"], "result": result,
        }
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input so the self-tests run in seconds")
    parser.add_argument("--record", help="append this run's result, env and notes to a JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two JSON-lines result sets written with --record")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.compare:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        return compare.main(spec, *args.compare)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not (root / "src" / "cvxagg" / "__init__.py").is_file():
        print(f"error: {root} holds no src/cvxagg; run from the root of a cvxagg checkout", file=sys.stderr)
        return 2
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
