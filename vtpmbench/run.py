#!/usr/bin/env python3
"""The vTPM pipeline benchmark: named workloads, end-to-end metrics from an
untraced run, and a per-layer ledger from a separate traced run.

Run from the repository root.  With no arguments it runs every workload,
both runs each, and prints every metric by name with its unit::

    python3 vtpmbench/run.py

One workload, one kind of run (the form a harness uses; the last line of
standard output is one JSON object)::

    python3 vtpmbench/run.py --workload pcr_hot --seed 3 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the layer
ledger.  The exit code is 0 when every output check passed, 1 when one
failed (the JSON says ``"correct": false``), and 2 for bad arguments or a
checkout without the program.  See README.md beside this file for what
each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


#: the workloads, in the order ``all`` runs them (defined in worlds.py)
WORKLOADS = ("pcr_hot", "key_lifecycle", "fleet_churn")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="vTPM pipeline benchmark: end-to-end metrics and a "
        "per-layer ledger for named workloads.",
    )
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",),
                        help="the workload to run (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; every input derives from it")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds the timed pass runs (default 20)")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics only; 1: layer ledger only; default: both",
    )
    parser.add_argument(
        "--size", type=int, default=None,
        help="ops in the fixed window behind the virtual-time and memory "
        "metrics (default: per workload)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.seconds < float("inf"):
        parser.error(f"--seconds must be positive and finite, got {args.seconds}")
    if args.size is not None and args.size <= 0:
        parser.error(f"--size must be positive, got {args.size}")
    return args


def run_workload(bench, world_cls, args, units):
    """Both runs (or the one asked for) of one workload; prints the report.

    Returns ``(metrics, attempted, failed, failure messages)``.
    """
    size = args.size or world_cls.default_size
    print(f"== {world_cls.name} (seed {args.seed}, {args.seconds:g} s, "
          f"window {size} ops)")
    runs = []
    if args.trace in (None, 0):
        runs.append(bench.end_to_end)
    if args.trace in (None, 1):
        runs.append(bench.layer_ledger)
    metrics, attempted, failed, failures = {}, 0, 0, []
    for run in runs:
        try:
            values, lines, a, f, bad = run(world_cls, args.seed, args.seconds, size)
        except bench.BenchError as exc:
            failures.append(f"{world_cls.name}: {exc}")
            continue
        print("\n".join(lines))
        for metric, value in values.items():
            print(f"  {metric:<36} {value:>16.6f} {units[metric]}")
        metrics.update(values)
        attempted, failed = attempted + a, failed + f
        failures += [f"{world_cls.name}: {message}" for message in bad]
    return metrics, attempted, failed, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"vtpmbench: no program at {SRC / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    from worlds import WORKLOADS as WORLDS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(bench.END_TO_END + bench.PER_LAYER)
    report, attempted, failed, failures = {}, 0, 0, []
    for name in names:
        metrics, a, f, bad = run_workload(bench, WORLDS[name], args, units)
        report[name] = metrics
        attempted, failed, failures = attempted + a, failed + f, failures + bad
    for failure in failures:
        print(f"CHECK FAILED {failure}")
    if len(names) == 1:
        wanted = {0: bench.END_TO_END, 1: bench.PER_LAYER}.get(
            args.trace, bench.END_TO_END + bench.PER_LAYER
        )
        metrics = {
            metric: {"value": report[names[0]][metric], "unit": unit}
            for metric, unit in wanted if metric in report[names[0]]
        }
    else:
        metrics = {
            f"{name}.{metric}": {"value": value, "unit": units[metric]}
            for name, values in report.items() for metric, value in values.items()
        }
    correct = not failures and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # String hashing is salted per process, and the salt moves dict layouts
    # and so host timings between otherwise identical runs; pin it.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
