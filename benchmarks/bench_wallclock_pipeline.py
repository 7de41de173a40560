"""Wall-clock benchmark of the simulator's own command pipeline.

Unlike every other file in this directory, this one measures *host* time:
how many full-stack vTPM commands per second the harness sustains
(``frontend → ring → backend → manager → monitor → instance → executor``).
The deterministic virtual-time results never depend on host speed; this
rail exists so the harness's own hot path cannot silently regress
(ROADMAP: "as fast as the hardware allows").

Run as a script to (re)generate ``BENCH_PIPELINE.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_wallclock_pipeline.py

or as the CI perf-smoke gate, which fails if throughput drops more than
30% below the committed numbers::

    PYTHONPATH=src python benchmarks/bench_wallclock_pipeline.py --check

As a pytest module it checks the pipeline's *relative* invariants only
(cache hit rate, audit-chain integrity, batching's virtual-time saving),
so test runs stay independent of machine speed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_PIPELINE.json"

#: cmds/s measured on this harness immediately before the fast-path
#: overhaul (authorization cache, parse-once dispatch, buffered audit
#: chaining, charge() fast path): 10k improved-mode PCRRead frames,
#: unbatched.  Kept as the fixed reference the speedup column reports.
PRE_OVERHAUL_OPS_PER_SEC = 12_320.0

#: the CI gate: a fresh run must reach this fraction of the committed rate
CHECK_FLOOR = 0.70

#: absolute gates on a fresh ``--check`` run (the "instrumentation is
#: near-free" contract): bare throughput floor and the worst acceptable
#: overhead for tracing (at the default sampling rate) and supervision
MIN_OPS_PER_SEC = 19_000.0
MAX_TRACE_OVERHEAD_PCT = 15.0
MAX_SUPERVISED_OVERHEAD_PCT = 15.0

#: the sampling rate the traced pass benchmarks — the recommended
#: always-on configuration: 1-in-32 span trees recorded, counters stay
#: exact.  Halving the rate roughly doubles the recording share of the
#: overhead (the skip path is near-free); 1-in-16 lands around twice
#: this gate's headroom on a virtualized host.
TRACE_SAMPLE_RATE = 32


def run_profiles(commands: int = 3_000, batch_sizes=(1, 16),
                 repeats: int = 16) -> dict:
    """Measure the pipeline at each batch size; returns the JSON payload.

    The bare run is unbatched (``batch_sizes[0]``).  Beside it run the
    other batch sizes, one unbatched variant with a span tracer installed
    (counting sink, no retention) at the default head-sampling rate, one
    at rate 1 for the full-recording cost, and one under the resilience
    supervisor.

    Every variant is measured in **pairs** of short slices (``commands``
    each): in each of ``repeats`` rounds, every variant's slice runs back
    to back with a bare slice, bare first in even rounds and second in odd
    ones, and the variant order rotates from round to round.  Each pair
    gives one throughput ratio taken within one host phase (frequency
    scaling, noisy neighbours, pvclock drift move both slices alike), and
    a variant's overhead is the **median** of its per-round ratios.  The
    absolute throughputs (the bare floor gates, the ``runs`` rows) stay
    the ``timeit`` estimate: the second-fastest slice, so one turbo-burst
    outlier cannot set them while a genuine regression slows every slice.
    """
    from repro.harness.profiling import profile_pipeline
    from repro.obs import CountingSink, Tracer

    def measure(variant):
        kind = variant[0]
        if kind == "batch":
            profile = profile_pipeline(
                commands=commands, batch_size=variant[1]
            )
        elif kind == "traced":
            profile = profile_pipeline(
                commands=commands, batch_size=1,
                tracer=Tracer(CountingSink(), sample_rate=TRACE_SAMPLE_RATE),
            )
        elif kind == "traced_full":
            profile = profile_pipeline(
                commands=commands, batch_size=1, tracer=Tracer(CountingSink())
            )
        else:
            # Supervision (health record, breaker and admission hooks on
            # every frame) must cost wall time only, never virtual time.
            profile = profile_pipeline(
                commands=commands, batch_size=1, supervised=True
            )
        if profile.chain_ok is False:
            raise AssertionError("audit chain broke during the benchmark")
        return profile

    bare = ("batch", batch_sizes[0])
    paired = [("batch", b) for b in batch_sizes[1:]]
    paired += [("traced",), ("traced_full",), ("supervised",)]
    slices = {variant: [] for variant in [bare] + paired}
    ratios = {variant: [] for variant in paired}
    for round_no in range(max(1, repeats)):
        shift = round_no % len(paired)
        for variant in paired[shift:] + paired[:shift]:
            order = (bare, variant) if round_no % 2 == 0 else (variant, bare)
            pair = {v: measure(v) for v in order}
            for v, profile in pair.items():
                slices[v].append(profile)
            ratios[variant].append(
                pair[variant].ops_per_sec / pair[bare].ops_per_sec
            )

    def second_fastest(variant):
        ranked = sorted(slices[variant], key=lambda p: p.wall_seconds)
        return ranked[min(1, len(ranked) - 1)]

    runs = [second_fastest(("batch", b)).as_dict() for b in batch_sizes]
    unbatched = runs[0]["ops_per_sec"]
    ratio = {v: statistics.median(r) for v, r in ratios.items()}

    def overhead_pct(variant):
        return round(100.0 * (1.0 - ratio[variant]), 1)

    def paired_ops(variant):
        return round(unbatched * ratio[variant], 1)

    return {
        "workload": (
            f"{commands} PCRRead frames per slice, {repeats} rounds of "
            "back-to-back bare/variant slice pairs (median paired ratio "
            "gates overheads), improved mode, full stack"
        ),
        "pre_overhaul_ops_per_sec": PRE_OVERHAUL_OPS_PER_SEC,
        "ops_per_sec": unbatched,
        "speedup_vs_pre_overhaul": round(
            unbatched / PRE_OVERHAUL_OPS_PER_SEC, 2
        ),
        "trace_sample_rate": TRACE_SAMPLE_RATE,
        "traced_ops_per_sec": paired_ops(("traced",)),
        "trace_overhead_pct": overhead_pct(("traced",)),
        "traced_full_ops_per_sec": paired_ops(("traced_full",)),
        "trace_full_overhead_pct": overhead_pct(("traced_full",)),
        "supervised_ops_per_sec": paired_ops(("supervised",)),
        "supervised_overhead_pct": overhead_pct(("supervised",)),
        "runs": runs,
    }


def main(argv=None) -> int:
    from repro.cli import positive_int

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--commands", type=positive_int, default=3_000,
        help="commands per timed slice (each variant is timed in many "
             "short slices, each paired with a bare slice)",
    )
    parser.add_argument(
        "--check", action="store_true",
        # argparse %-formats help text, so the rendered "%" is doubled.
        help=f"compare against {RESULT_PATH.name} instead of rewriting it; "
             f"fail if below {CHECK_FLOOR:.0%}% of the committed rate",
    )
    parser.add_argument("--output", type=Path, default=RESULT_PATH)
    args = parser.parse_args(argv)

    payload = run_profiles(commands=args.commands)
    for run in payload["runs"]:
        print(
            f"batch={run['batch_size']:>2}: {run['ops_per_sec']:>10,.0f} cmds/s "
            f"wall, {run['virtual_us_per_cmd']:.2f} virtual us/cmd, "
            f"cache hit rate {run['cache_hit_rate']:.1%}"
        )
    print(
        f"speedup vs pre-overhaul harness "
        f"({payload['pre_overhaul_ops_per_sec']:,.0f} cmds/s): "
        f"{payload['speedup_vs_pre_overhaul']:.2f}x"
    )
    print(
        f"traced (1-in-{payload['trace_sample_rate']}): "
        f"{payload['traced_ops_per_sec']:>10,.0f} cmds/s "
        f"({payload['trace_overhead_pct']:.1f}% overhead)"
    )
    print(
        f"traced (all)     : {payload['traced_full_ops_per_sec']:>10,.0f} "
        f"cmds/s ({payload['trace_full_overhead_pct']:.1f}% overhead)"
    )
    print(
        f"supervised       : {payload['supervised_ops_per_sec']:>10,.0f} cmds/s "
        f"({payload['supervised_overhead_pct']:.1f}% overhead)"
    )

    if args.check:
        committed = json.loads(args.output.read_text())
        floor = committed["ops_per_sec"] * CHECK_FLOOR
        fresh = payload["ops_per_sec"]
        failures = []
        if fresh < floor:
            failures.append(
                f"{fresh:,.0f} cmds/s is below {CHECK_FLOOR:.0%} of the "
                f"committed {committed['ops_per_sec']:,.0f} cmds/s"
            )
        if fresh < MIN_OPS_PER_SEC:
            failures.append(
                f"{fresh:,.0f} cmds/s is below the absolute "
                f"{MIN_OPS_PER_SEC:,.0f} cmds/s floor"
            )
        if payload["trace_overhead_pct"] > MAX_TRACE_OVERHEAD_PCT:
            failures.append(
                f"trace overhead {payload['trace_overhead_pct']:.1f}% "
                f"exceeds {MAX_TRACE_OVERHEAD_PCT:.0f}%"
            )
        if payload["supervised_overhead_pct"] > MAX_SUPERVISED_OVERHEAD_PCT:
            failures.append(
                f"supervised overhead "
                f"{payload['supervised_overhead_pct']:.1f}% exceeds "
                f"{MAX_SUPERVISED_OVERHEAD_PCT:.0f}%"
            )
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(
            f"perf-smoke OK: {fresh:,.0f} cmds/s >= {floor:,.0f} cmds/s "
            f"floor; trace {payload['trace_overhead_pct']:.1f}% / "
            f"supervised {payload['supervised_overhead_pct']:.1f}% "
            f"<= {MAX_TRACE_OVERHEAD_PCT:.0f}% overhead"
        )
        return 0

    # Merge, never overwrite: the cluster and verify benchmarks own their
    # sections of the same file.
    if args.output.exists():
        committed = json.loads(args.output.read_text())
        for section in ("cluster", "verify"):
            if section in committed:
                payload[section] = committed[section]
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


# -- pytest entry points (machine-speed independent) -------------------------


def test_pipeline_invariants():
    """The fast path keeps its semantic invariants at both batch sizes."""
    from repro.harness.profiling import profile_pipeline

    single = profile_pipeline(commands=1_500, batch_size=1)
    batched = profile_pipeline(commands=1_500, batch_size=16)
    for profile in (single, batched):
        assert profile.chain_ok is True
        assert profile.cache_hit_rate > 0.95
        # one audit record per command (plus the warm-up frame)
        assert profile.audit_records == profile.commands + 1
    # Batching must amortize virtual per-notify costs, not just wall time.
    assert batched.virtual_us_per_cmd < single.virtual_us_per_cmd


def test_tracing_charges_no_virtual_time():
    """A traced run costs host time, never virtual time: per-command
    virtual cost and the audit chain are identical with spans on."""
    from repro.harness.profiling import profile_pipeline
    from repro.obs import CountingSink, Tracer

    plain = profile_pipeline(commands=800, batch_size=1)
    sink = CountingSink()
    traced = profile_pipeline(
        commands=800, batch_size=1, tracer=Tracer(sink)
    )
    assert traced.virtual_us_per_cmd == plain.virtual_us_per_cmd
    assert traced.chain_ok is True
    assert sink.roots == 800  # one tree per timed command
    assert sink.spans > sink.roots


def test_supervision_charges_no_virtual_time():
    """Supervision costs host time only: per-command virtual cost and the
    audit chain are identical with the supervisor's hooks installed."""
    from repro.harness.profiling import profile_pipeline

    plain = profile_pipeline(commands=800, batch_size=1)
    supervised = profile_pipeline(commands=800, batch_size=1, supervised=True)
    assert supervised.virtual_us_per_cmd == plain.virtual_us_per_cmd
    assert supervised.chain_ok is True
    assert supervised.audit_records == plain.audit_records


def test_committed_numbers_are_fresh():
    """BENCH_PIPELINE.json exists and records the claimed speedup."""
    committed = json.loads(RESULT_PATH.read_text())
    assert committed["pre_overhaul_ops_per_sec"] == PRE_OVERHAUL_OPS_PER_SEC
    # The pre-overhaul reference was measured on one particular host; a
    # slower or more loaded regeneration host shifts the absolute ratio,
    # so the floor only guards against losing the overhaul, not against
    # host variance.
    assert committed["speedup_vs_pre_overhaul"] >= 1.2
    assert committed["runs"], "at least one recorded run"
    assert committed["ops_per_sec"] >= MIN_OPS_PER_SEC
    assert committed["trace_sample_rate"] == TRACE_SAMPLE_RATE
    assert committed["traced_ops_per_sec"] > 0
    assert committed["trace_overhead_pct"] <= MAX_TRACE_OVERHEAD_PCT
    assert committed["traced_full_ops_per_sec"] > 0
    assert committed["supervised_ops_per_sec"] > 0
    assert committed["supervised_overhead_pct"] <= MAX_SUPERVISED_OVERHEAD_PCT


if __name__ == "__main__":
    raise SystemExit(main())
