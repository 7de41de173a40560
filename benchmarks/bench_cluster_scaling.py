"""Wall-clock scaling benchmark for the multi-host fleet layer.

Measures what the cluster subsystem adds on top of the single-platform
pipeline: routed commands per second and p99 per-command virtual latency
as the host count grows, plus the cost of a rebalance storm (attested
cross-host migrations per second and virtual time per move).

Run as a script to merge a ``"cluster"`` section into
``BENCH_PIPELINE.json`` at the repo root (existing pipeline keys are
preserved)::

    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py

or as the CI perf-smoke gate, which fails if routed throughput drops
more than 40% below the committed numbers::

    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py --check

As a pytest module it checks machine-speed-independent invariants only:
virtual command cost is placement-invariant, storms actually move
guests, and the committed numbers exist alongside the pipeline's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_PIPELINE.json"

#: the CI gate: a fresh run must reach this fraction of the committed rate
CHECK_FLOOR = 0.60

HOST_COUNTS = (1, 2, 4, 8)
GUESTS = 24
STEPS = 30


def _p99(samples) -> float:
    ordered = sorted(samples)
    return ordered[int(0.99 * (len(ordered) - 1))]


def _measure_shape(hosts: int, guests: int, steps: int) -> dict:
    """One fleet shape: route ``guests * steps`` commands (untraced, then
    traced at the default sampling rate), then storm."""
    from repro.cluster import build_fleet
    from repro.cluster.demo import _storm_moves
    from repro.crypto.random_source import RandomSource
    from repro.harness.builder import fresh_timing_context
    from repro.obs import CountingSink, Tracer, observe
    from repro.sim.timing import get_context
    from repro.tpm.client import extend_wire

    from bench_wallclock_pipeline import TRACE_SAMPLE_RATE

    fresh_timing_context()
    fleet = build_fleet(num_hosts=hosts, seed=77, capacity=guests,
                        name=f"bench{hosts}")
    names = [f"g{i:02d}" for i in range(guests)]
    for name in names:
        fleet.add_guest(name)
    streams = {
        name: RandomSource(f"bench-cluster-{name}".encode()) for name in names
    }

    clock = get_context().clock
    latencies = []
    wall_start = time.perf_counter()
    for _step in range(steps):
        for name in names:
            rng = streams[name]
            wire = extend_wire(rng.randint_below(16), rng.bytes(20))
            before_us = clock.now_us
            fleet.router.send(name, wire)
            latencies.append(clock.now_us - before_us)
    wall_route = time.perf_counter() - wall_start
    commands = guests * steps

    # The same routed workload again with spans on (1-in-N sampled), so
    # the committed numbers record what --trace costs per fleet shape.
    tracer = Tracer(CountingSink(), sample_rate=TRACE_SAMPLE_RATE)
    wall_start = time.perf_counter()
    with observe(tracer=tracer):
        for _step in range(steps):
            for name in names:
                rng = streams[name]
                wire = extend_wire(rng.randint_below(16), rng.bytes(20))
                fleet.router.send(name, wire)
    wall_traced = time.perf_counter() - wall_start

    storm_moves = 0
    storm_wall = 0.0
    storm_virtual_us = 0.0
    if hosts > 1:
        moves = _storm_moves(fleet, names)
        virtual_before = clock.now_us
        wall_start = time.perf_counter()
        records = fleet.migrator.storm(moves)
        storm_wall = time.perf_counter() - wall_start
        storm_virtual_us = clock.now_us - virtual_before
        storm_moves = sum(1 for r in records if r.outcome == "moved")

    return {
        "hosts": hosts,
        "commands": commands,
        "ops_per_sec": round(commands / wall_route, 1),
        "traced_ops_per_sec": round(commands / wall_traced, 1),
        "trace_sample_rate": TRACE_SAMPLE_RATE,
        "p99_virtual_us": round(_p99(latencies), 3),
        "storm_moves": storm_moves,
        "storm_wall_seconds": round(storm_wall, 6),
        "storm_virtual_us_per_move": round(
            storm_virtual_us / storm_moves, 1
        ) if storm_moves else 0.0,
        "moves_per_sec": round(
            storm_moves / storm_wall, 1
        ) if storm_moves and storm_wall else 0.0,
    }


def run_scaling(host_counts=HOST_COUNTS, guests=GUESTS, steps=STEPS,
                repeats: int = 2) -> dict:
    """Best-of-``repeats`` per shape; returns the ``"cluster"`` payload."""
    shapes = []
    for hosts in host_counts:
        best = None
        for _ in range(max(1, repeats)):
            run = _measure_shape(hosts, guests, steps)
            if best is None or run["ops_per_sec"] > best["ops_per_sec"]:
                best = run
        shapes.append(best)
    reference = max(shapes, key=lambda s: s["hosts"])
    return {
        "workload": (
            f"{guests} guests x {steps} steps of routed extends per shape, "
            f"improved mode, then a third-of-the-fleet rebalance storm"
        ),
        "ops_per_sec": reference["ops_per_sec"],
        "shapes": shapes,
    }


def main(argv=None) -> int:
    from repro.cli import positive_int

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--guests", type=positive_int, default=GUESTS)
    parser.add_argument("--steps", type=positive_int, default=STEPS)
    parser.add_argument(
        "--check", action="store_true",
        # argparse %-formats help text, so the rendered "%" is doubled.
        help=f"compare against {RESULT_PATH.name} instead of rewriting it; "
             f"fail if below {CHECK_FLOOR:.0%}% of the committed rate",
    )
    parser.add_argument("--output", type=Path, default=RESULT_PATH)
    args = parser.parse_args(argv)

    payload = run_scaling(guests=args.guests, steps=args.steps)
    for shape in payload["shapes"]:
        line = (
            f"hosts={shape['hosts']:>2}: {shape['ops_per_sec']:>10,.0f} cmds/s "
            f"routed ({shape['traced_ops_per_sec']:,.0f} traced), "
            f"p99 {shape['p99_virtual_us']:.1f} virtual us"
        )
        if shape["storm_moves"]:
            line += (
                f"; storm {shape['storm_moves']} moves at "
                f"{shape['moves_per_sec']:,.0f} moves/s "
                f"({shape['storm_virtual_us_per_move']:,.0f} virtual us/move)"
            )
        print(line)

    if args.check:
        committed = json.loads(args.output.read_text()).get("cluster")
        if committed is None:
            print("no committed cluster numbers in BENCH_PIPELINE.json",
                  file=sys.stderr)
            return 1
        floor = committed["ops_per_sec"] * CHECK_FLOOR
        fresh = payload["ops_per_sec"]
        if fresh < floor:
            print(
                f"PERF REGRESSION: {fresh:,.0f} routed cmds/s is below "
                f"{CHECK_FLOOR:.0%} of the committed "
                f"{committed['ops_per_sec']:,.0f} cmds/s",
                file=sys.stderr,
            )
            return 1
        print(f"cluster perf-smoke OK: {fresh:,.0f} cmds/s >= "
              f"{floor:,.0f} cmds/s floor")
        return 0

    # Merge, never overwrite: the pipeline benchmark owns the other keys.
    merged = json.loads(args.output.read_text()) if args.output.exists() else {}
    merged["cluster"] = payload
    args.output.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"merged cluster section into {args.output}")
    return 0


# -- pytest entry points (machine-speed independent) -------------------------


def test_virtual_command_cost_is_placement_invariant():
    """The same guest scripts cost the same virtual time on any fleet
    shape — sharding across hosts is free in simulated time."""
    one = _measure_shape(hosts=1, guests=6, steps=8)
    two = _measure_shape(hosts=2, guests=6, steps=8)
    assert one["commands"] == two["commands"]
    assert one["p99_virtual_us"] == two["p99_virtual_us"]


def test_storm_actually_moves_guests_and_costs_virtual_time():
    run = _measure_shape(hosts=3, guests=9, steps=4)
    assert run["storm_moves"] >= 1
    assert run["storm_virtual_us_per_move"] > 0.0


def test_committed_cluster_numbers_are_fresh():
    """BENCH_PIPELINE.json carries the cluster section next to the
    pipeline keys it must not clobber."""
    committed = json.loads(RESULT_PATH.read_text())
    assert "pre_overhaul_ops_per_sec" in committed  # pipeline keys intact
    cluster = committed["cluster"]
    assert cluster["ops_per_sec"] > 0
    assert len(cluster["shapes"]) >= 3
    assert all(s["traced_ops_per_sec"] > 0 for s in cluster["shapes"])
    stormed = [s for s in cluster["shapes"] if s["hosts"] > 1]
    assert all(s["storm_moves"] >= 1 for s in stormed)


if __name__ == "__main__":
    raise SystemExit(main())
