"""Measurement passes: set-up, the closed-loop driver, the memory pass,
and the two runs (untraced end-to-end, traced layer ledger).

Importing this module imports the program, so ``run.py`` checks first
that the checkout holds it.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time
import tracemalloc
from array import array
from pathlib import Path

import calibrate
from repro.sim.timing import CostLedger, get_context, ledger_scope
from spans import OP_LAYER, SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_build" / "vtpmbench"

#: set-ups per end-to-end run (``setup_s`` is their median): at least
#: the minimum, more while they add up to less than the budget
SETUP_REPEATS = (3, 15)
SETUP_BUDGET_S = 1.5

#: calibration samples taken before and after each set-up
SETUP_SAMPLES = 25

#: least ops per group behind ``op_host_us_p99``
P99_GROUP_OPS = 1000


#: (name, unit) of the end-to-end metrics the --trace 0 JSON carries
END_TO_END = (
    ("setup_s", "s"),
    ("cmds_per_s", "1/s"),
    ("op_host_us_p50", "us"),
    ("op_host_us_p99", "us"),
    ("virtual_us_per_cmd", "us"),
    ("retained_bytes_per_cmd", "B"),
)

#: (name, unit) of the metrics the --trace 1 JSON carries: the layer
#: ledger, then the three end-to-end metrics that have no bound (one op's
#: fixed simulated cost, and two that are 0 on most runs)
PER_LAYER = (
    ("vtpm.frontend.self_us_per_cmd", "us"),
    ("xen.ring.self_us_per_cmd", "us"),
    ("vtpm.manager.self_us_per_cmd", "us"),
    ("core.monitor.self_us_per_cmd", "us"),
    ("core.monitor.cache_hit_frac", "ratio"),
    ("core.monitor.deny_frac", "ratio"),
    ("core.identity.calls_per_cmd", "count"),
    ("core.identity.self_us_per_cmd", "us"),
    ("core.policy.calls_per_cmd", "count"),
    ("core.policy.self_us_per_cmd", "us"),
    ("core.audit.self_us_per_cmd", "us"),
    ("vtpm.instance.self_us_per_cmd", "us"),
    ("vtpm.instance.serialize_us_per_cmd", "us"),
    ("tpm.device.self_us_per_cmd", "us"),
    ("tpm.client.self_us_per_op", "us"),
    ("cluster.router.self_us_per_cmd", "us"),
    ("cluster.router.degraded_frac", "ratio"),
    ("cluster.migrator.self_ms_per_move", "ms"),
    ("cluster.migrator.moved_frac", "ratio"),
    ("vtpm.migration.self_ms_per_move", "ms"),
    ("vtpm.storage.self_ms_per_move", "ms"),
    ("glue.us_per_cmd", "us"),
    ("reconcile.self_sum_us_per_cmd", "us"),
    ("reconcile.traced_wall_us_per_cmd", "us"),
    ("tracing.overhead_frac", "ratio"),
    ("sim.timing.charges_per_cmd", "count"),
    ("charge.xen_us_per_cmd", "us"),
    ("charge.vtpm_us_per_cmd", "us"),
    ("charge.ac_us_per_cmd", "us"),
    ("charge.tpm_us_per_cmd", "us"),
    ("charge.crypto_us_per_cmd", "us"),
    ("op_virtual_us_p99", "us"),
    ("migration_host_ms_p50", "ms"),
    ("failed_frac", "ratio"),
)

#: cost-model prefixes behind each ``charge.*`` group
CHARGE_GROUPS = {
    "xen": ("xen.",),
    "vtpm": ("vtpm.",),
    "ac": ("ac.",),
    "tpm": ("tpm.",),
    "crypto": ("hash.", "mac.", "cipher.", "rsa.", "rng."),
}


class BenchError(Exception):
    """The benchmark could not run (bad input or a broken set-up)."""


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


class Pass:
    """What one drive of a world measured.

    Host times are kept raw.  Each period of ops is one interval with its
    own host-speed factor (see calibrate.py); the ``scaled_*`` views apply
    it to every op and span inside.
    """

    def __init__(self) -> None:
        self.op_ns = array("q")       # raw host ns per op
        self.virtual_us = array("d")  # simulated us per op
        #: per interval: [first op, commands, system ns (ops + audit
        #: flush), wall ns (everything but calibration)]
        self.intervals: list = []
        self.factors: list = []
        self.starts: list = []        # first op of each interval
        self.failures: list = []
        self.failed = 0
        self.commands = 0
        self.move_ns: list = []       # raw host ns per migration
        self.move_ops: list = []      # the op index of each migration
        self.snapshot = None

    @property
    def ops(self) -> int:
        return len(self.op_ns)

    def factor_of_op(self, op: int) -> float:
        index = bisect.bisect_right(self.starts, op) - 1
        return self.factors[max(0, index)]

    def scaled_op_ns(self, count=None) -> list:
        count = self.ops if count is None else count
        ends = self.starts[1:] + [count]
        scaled = []
        for first, end, factor in zip(self.starts, ends, self.factors):
            scaled.extend(ns * factor for ns in self.op_ns[first:min(end, count)])
        return scaled

    def rate(self) -> float:
        """Commands per reference-host second of system time."""
        seconds = sum(iv[2] * f for iv, f in zip(self.intervals, self.factors)) / 1e9
        return self.commands / seconds

    def scaled_wall_ns(self) -> float:
        return sum(iv[3] * f for iv, f in zip(self.intervals, self.factors))

    def scaled_move_ms(self) -> list:
        return [ns * self.factor_of_op(op) / 1e6
                for ns, op in zip(self.move_ns, self.move_ops)]


def setup(world_cls, seed: int):
    """Build a world, run its warm-up, flush.

    Returns ``(world, stream, seconds)``, the seconds scaled to the
    reference host speed by kernel samples taken just before and after.
    """
    gc.collect()
    samples = [calibrate.sample_ns() for _ in range(SETUP_SAMPLES)]
    start = time.perf_counter_ns()
    world = world_cls(seed)
    stream = world.ops()
    for _ in range(world.warmup_ops):
        op = next(stream)
        try:
            result = op.run()
        except Exception as exc:  # reported as a set-up failure below
            result = exc
        failure = op.check(result)
        if failure is not None:
            raise BenchError(f"{world.name} warm-up {op.kind} failed: {failure}")
    world.flush()
    elapsed = time.perf_counter_ns() - start
    samples += [calibrate.sample_ns() for _ in range(SETUP_SAMPLES)]
    return world, stream, elapsed * calibrate.factor(samples) / 1e9


def drive(world, stream, *, min_ops: int, max_ops=None, seconds=None,
          recorder=None, snapshot_at=None) -> Pass:
    """Run ops closed-loop (one client, one op at a time) and time each.

    Runs at least ``min_ops`` and, with ``seconds``, keeps going until the
    time is up, stopping only at a period boundary so the run carries the
    workload's periodic mix whole.  Each period ends by reading every
    audit chain head, so deferred chaining is paid inside the timing.
    Calibration samples are taken between ops, outside every timing.
    """
    clock = time.perf_counter_ns
    vclock = get_context().clock
    result = Pass()
    op_ns, virtual_us = result.op_ns, result.virtual_us
    root = recorder.wrap(OP_LAYER, lambda run: run()) if recorder else None
    period_ops = world.period_ops
    moves = world.moves()
    moves_seen = len(moves)
    samples: list = []
    period_samples: list = []
    commands_start = period_commands = world.commands()
    deadline = None if seconds is None else clock() + int(seconds * 1e9)
    count = period_first = system_ns = calibration_ns = 0
    period_start = last_sample = clock()

    def close_period():
        nonlocal period_first, period_commands, system_ns, calibration_ns
        nonlocal period_start, samples
        t0 = clock()
        world.flush()
        t1 = clock()
        now_commands = world.commands()
        result.intervals.append([
            period_first, now_commands - period_commands,
            system_ns + t1 - t0, t1 - period_start - calibration_ns,
        ])
        period_samples.append(samples)
        period_first, period_commands, samples = count, now_commands, []
        system_ns = calibration_ns = 0
        period_start = clock()

    while max_ops is None or count < max_ops:
        if (count >= min_ops and count % period_ops == 0
                and (deadline is None or clock() >= deadline)):
            break
        op = next(stream)
        if root is not None:
            recorder.op_id = count
        v0 = vclock.now_us
        t0 = clock()
        try:
            outcome = root(op.run) if root is not None else op.run()
        except Exception as exc:  # the op's check decides what it means
            outcome = exc
        t1 = clock()
        virtual_us.append(vclock.now_us - v0)
        op_ns.append(t1 - t0)
        system_ns += t1 - t0
        if len(moves) > moves_seen:
            result.move_ns.extend(moves[moves_seen:])
            result.move_ops.extend([count] * (len(moves) - moves_seen))
            moves_seen = len(moves)
        failure = op.check(outcome)
        if failure is not None:
            result.failed += 1
            if len(result.failures) < 5:
                result.failures.append(f"op {count} ({op.kind}): {failure}")
        count += 1
        if count == snapshot_at:
            result.snapshot = world.decision_hashes()
        now = clock()
        if now - last_sample >= calibrate.SAMPLE_EVERY_NS:
            samples.append(calibrate.sample_ns())
            last_sample = clock()
            calibration_ns += last_sample - now
        if count % period_ops == 0:
            close_period()
    if count > period_first or not result.intervals:
        close_period()
    everything = [ns for chunk in period_samples for ns in chunk]
    if not everything:
        everything = [calibrate.sample_ns() for _ in range(SETUP_SAMPLES)]
    result.factors = [
        calibrate.factor(chunk or everything) for chunk in period_samples
    ]
    result.starts = [interval[0] for interval in result.intervals]
    result.commands = world.commands() - commands_start
    if result.snapshot is None:
        result.snapshot = world.decision_hashes()
    return result


def measure_memory(world, stream, ops: int):
    """Drive ``ops`` ops under tracemalloc; returns (pass, retained bytes).

    Only allocations made from the program's own source files count, so
    the benchmark's bookkeeping does not inflate the figure.
    """
    only_program = [tracemalloc.Filter(True, str(SRC / "repro" / "*"))]
    gc.collect()
    tracemalloc.start(1)
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_program)
        result = drive(world, stream, min_ops=ops, max_ops=ops)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(only_program)
    finally:
        tracemalloc.stop()

    def total(snapshot):
        return sum(stat.size for stat in snapshot.statistics("filename"))

    return result, total(after) - total(before)


def end_to_end(world_cls, seed: int, seconds: float, size: int):
    """The untraced run: all nine end-to-end metrics.

    Returns ``(values, report lines, attempted, failed, failure messages)``.
    """
    setups = []
    world, stream, setup_s = setup(world_cls, seed)
    setups.append(setup_s)
    fixed, retained = measure_memory(world, stream, size)
    failures = fixed.failures + world.end_checks()
    del world, stream
    world, stream, setup_s = setup(world_cls, seed)
    setups.append(setup_s)
    timed = drive(world, stream, min_ops=size, seconds=seconds)
    failures += timed.failures + world.end_checks()
    if timed.virtual_us[:size] != fixed.virtual_us:
        failures.append("virtual time differs between two runs of the same ops")
    del world, stream
    least, most = SETUP_REPEATS
    while len(setups) < least or (
        len(setups) < most and sum(setups) < SETUP_BUDGET_S
    ):
        setups.append(setup(world_cls, seed)[2])

    op_ns = timed.scaled_op_ns()
    # p99 per group of whole periods holding at least P99_GROUP_OPS ops (ten
    # samples above the percentile), then the median over groups: a burst
    # of host noise inside one group cannot set the figure.  The tail is
    # taken from raw host time: on key_lifecycle it is made of RSA-bound
    # ops, which the interpreter-bound calibration kernel mis-scales, and
    # the scaled p99 spread more from run to run than the raw one.
    group = world_cls.period_ops * math.ceil(P99_GROUP_OPS / world_cls.period_ops)
    raw_ns = timed.op_ns
    moves_ms = timed.scaled_move_ms()
    attempted = fixed.ops + timed.ops
    failed = fixed.failed + timed.failed
    values = {
        "setup_s": statistics.median(setups),
        "cmds_per_s": timed.rate(),
        "op_host_us_p50": percentile(op_ns, 0.50) / 1e3,
        "op_host_us_p99": statistics.median(
            percentile(raw_ns[i:i + group], 0.99)
            for i in range(0, max(1, len(raw_ns) - group + 1), group)
        ) / 1e3,
        "virtual_us_per_cmd": sum(fixed.virtual_us) / fixed.commands,
        "op_virtual_us_p99": percentile(fixed.virtual_us, 0.99),
        "retained_bytes_per_cmd": retained / fixed.commands,
        "migration_host_ms_p50": statistics.median(moves_ms) if moves_ms else 0.0,
        "failed_frac": failed / attempted,
    }
    raw_rate = timed.commands / (sum(iv[2] for iv in timed.intervals) / 1e9)
    lines = [
        f"  untraced: {timed.ops} ops ({timed.ops} host-time samples), "
        f"{timed.commands} commands, {len(timed.intervals)} periods; "
        f"fixed window {fixed.ops} ops / "
        f"{fixed.commands} commands; {len(setups)} set-ups; "
        f"{len(moves_ms)} migrations",
        f"  host speed factor {statistics.median(timed.factors):.3f} "
        f"(raw {raw_rate:.1f} cmds/s before scaling)",
    ]
    return values, lines, attempted, failed, failures


def layer_ledger(world_cls, seed: int, seconds: float, size: int):
    """The traced run: an untraced pass, then the same ops traced.

    Returns the layer ledger in the same shape as :func:`end_to_end`.
    """
    world, stream, _ = setup(world_cls, seed)
    cap = world.trace_cap_ops
    plain = drive(world, stream, min_ops=min(size, cap), seconds=seconds / 2,
                  snapshot_at=cap)
    failures = plain.failures + world.end_checks()
    del world, stream
    ops = min(plain.ops, cap)

    world, stream, _ = setup(world_cls, seed)
    counts_before = world.monitor_counts()
    recorder = SpanRecorder()
    recorder.install()
    try:
        with ledger_scope(CostLedger()) as charges:
            traced = drive(world, stream, min_ops=ops, max_ops=ops, recorder=recorder)
    finally:
        still_wrapped = recorder.remove()
    failures += traced.failures + world.end_checks()
    if still_wrapped:
        failures.append(f"wrappers left installed: {still_wrapped}")
    if traced.virtual_us != plain.virtual_us[:ops]:
        failures.append("tracing changed the virtual time of the same ops")
    if traced.snapshot != plain.snapshot:
        failures.append("tracing changed a platform's decision_chain_hash")
    counts = {k: v - counts_before[k] for k, v in world.monitor_counts().items()}
    spans_path = SPANS_DIR / f"{world_cls.name}-seed{seed}-spans.csv"
    recorder.write(spans_path)

    rows, smallest_self_ns = recorder.ledger(traced.factor_of_op)
    if smallest_self_ns < 0:
        failures.append(f"a span's self time is negative ({smallest_self_ns} ns)")
    commands = traced.commands
    moves = len(traced.move_ns)

    def self_ns(layer):
        return rows.get(layer, (0, 0))[1]

    def us_per_cmd(layer):
        return self_ns(layer) / commands / 1e3

    def calls_per_cmd(layer):
        return rows.get(layer, (0, 0))[0] / commands

    def ms_per_move(layer):
        return self_ns(layer) / moves / 1e6 if moves else 0.0

    fleet = getattr(world, "fleet", None)
    if fleet is not None:
        trail = fleet.migrator.trail
        moved_frac = sum(r.outcome == "moved" for r in trail) / len(trail) if trail else 0.0
        routed = fleet.router.routed + fleet.router.degraded
        degraded_frac = fleet.router.degraded / routed if routed else 0.0
    else:
        moved_frac = degraded_frac = 0.0
    self_sum_ns = sum(row[1] for row in rows.values())
    wall_ns = traced.scaled_wall_ns()
    lookups = counts["hits"] + counts["misses"]
    attempted = plain.ops + traced.ops
    failed = plain.failed + traced.failed
    moves_ms = plain.scaled_move_ms()
    values = {
        "vtpm.frontend.self_us_per_cmd": us_per_cmd("vtpm.frontend"),
        "xen.ring.self_us_per_cmd": us_per_cmd("xen.ring"),
        "vtpm.manager.self_us_per_cmd": us_per_cmd("vtpm.manager"),
        "core.monitor.self_us_per_cmd": us_per_cmd("core.monitor"),
        "core.monitor.cache_hit_frac": counts["hits"] / lookups if lookups else 0.0,
        "core.monitor.deny_frac": (
            counts["denials"] / counts["checks"] if counts["checks"] else 0.0
        ),
        "core.identity.calls_per_cmd": calls_per_cmd("core.identity"),
        "core.identity.self_us_per_cmd": us_per_cmd("core.identity"),
        "core.policy.calls_per_cmd": calls_per_cmd("core.policy"),
        "core.policy.self_us_per_cmd": us_per_cmd("core.policy"),
        "core.audit.self_us_per_cmd": us_per_cmd("core.audit"),
        "vtpm.instance.self_us_per_cmd": us_per_cmd("vtpm.instance"),
        "vtpm.instance.serialize_us_per_cmd": us_per_cmd("vtpm.instance.serialize"),
        "tpm.device.self_us_per_cmd": us_per_cmd("tpm.device"),
        "tpm.client.self_us_per_op": self_ns(OP_LAYER) / ops / 1e3,
        "cluster.router.self_us_per_cmd": us_per_cmd("cluster.router"),
        "cluster.router.degraded_frac": degraded_frac,
        "cluster.migrator.self_ms_per_move": ms_per_move("cluster.migrator"),
        "cluster.migrator.moved_frac": moved_frac,
        "vtpm.migration.self_ms_per_move": ms_per_move("vtpm.migration"),
        "vtpm.storage.self_ms_per_move": ms_per_move("vtpm.storage"),
        "glue.us_per_cmd": (wall_ns - self_sum_ns) / commands / 1e3,
        "reconcile.self_sum_us_per_cmd": self_sum_ns / commands / 1e3,
        "reconcile.traced_wall_us_per_cmd": wall_ns / commands / 1e3,
        "tracing.overhead_frac": (
            sum(traced.scaled_op_ns()) / sum(plain.scaled_op_ns(ops)) - 1.0
        ),
        "sim.timing.charges_per_cmd": sum(charges.calls.values()) / commands,
    }
    for group, prefixes in CHARGE_GROUPS.items():
        values[f"charge.{group}_us_per_cmd"] = sum(
            charges.cost_for_prefix(prefix) for prefix in prefixes
        ) / commands
    window = plain.virtual_us[:size]
    values["op_virtual_us_p99"] = percentile(window, 0.99)
    values["migration_host_ms_p50"] = statistics.median(moves_ms) if moves_ms else 0.0
    values["failed_frac"] = failed / attempted
    lines = [
        f"  traced: {traced.ops} ops, {commands} commands, {len(recorder.spans)} "
        f"spans -> {spans_path.relative_to(ROOT)}; untraced reference "
        f"{plain.ops} ops",
    ]
    return values, lines, attempted, failed, failures


