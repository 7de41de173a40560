"""Chaos workload: a seeded 1000-command run that survives injected faults.

This is the robustness counterpart of the performance experiments: two
platforms, two guests, a deterministic command mix, periodic checkpoints,
one live migration and one hard manager crash — all driven under a
:class:`~repro.faults.plan.FaultPlan` that stalls rings, drops kicks,
tears state writes, fills the disk, corrupts reads, fails the device and
interrupts the migration.  The claim the demo checks is *zero state
loss*: the PCR and NV contents of every guest after the chaotic run are
byte-identical to a fault-free run of the same seed, and the same seed
reproduces the identical fault sequence twice.

Both demos here, and the fleet demo, run through the shared acceptance
driver (:mod:`repro.harness.acceptance`).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.config import AccessMode
from repro.faults import FaultKind, FaultPlan, spec, with_retry
from repro.harness.acceptance import (
    RunReport,
    WorkloadRun,
    claim,
    observed_run,
    prove,
    state_digest,
)
from repro.harness.builder import Platform, build_platform
from repro.obs import CounterRegistry, Tracer
from repro.tpm import marshal
from repro.tpm.client import TpmClient, pcr_read_wire
from repro.tpm.constants import NUM_PCRS
from repro.tpm.nvram import NV_PER_AUTHWRITE
from repro.util.errors import ReproError
from repro.vtpm.migration import migrate_with_recovery

#: the demo's fixed shape: deterministic, and long enough that every fault
#: kind in the default plan gets its chance to fire
DEFAULT_COMMANDS = 1_000
CHECKPOINT_EVERY = 100
MIGRATE_AT = 400
CRASH_AT = 700

OWNER_AUTH = b"chaos-owner-auth!!!!"
NV_AUTH = b"chaos-nv-area-auth!!"
NV_INDEX = 0x1100
NV_SIZE = 64


def default_chaos_plan(seed: int = 0) -> FaultPlan:
    """Every fault kind the injector knows, tuned to the demo workload.

    Schedules are call-count based, so they are deterministic for a given
    workload regardless of the seed; the seed only drives probabilistic
    specs (of which this plan has none) — it is kept in the plan so the
    report names the full reproduction recipe.
    """
    return FaultPlan(
        name="default-chaos",
        seed=seed,
        specs=(
            # Ring path: periodic stalls plus a few lost kicks.
            spec(FaultKind.RING_STALL, every=97),
            spec(FaultKind.RING_DROP_NOTIFY, every=211, max_fires=3),
            # Device path: transient bus errors on virtual TPMs only, plus
            # one isolated wedge (cleared by the next retry attempt — a
            # *consecutive* wedge storm is the supervised demo's job).
            spec(FaultKind.DEVICE_TRANSIENT, every=53, match={"device": "vtpm*"}),
            spec(FaultKind.WEDGE, at=(10,), match={"device": "vtpm*"}),
            # Supervisor probe path: inert here (the site only exists under
            # supervision) but keeps the plan covering every kind.
            spec(FaultKind.FLAP, at=(0,)),
            # Storage path: torn checkpoint writes, one full disk, one
            # corrupt read during crash recovery.
            spec(FaultKind.STORAGE_TORN_WRITE, every=5),
            spec(FaultKind.STORAGE_ENOSPC, at=(7,)),
            spec(FaultKind.STORAGE_READ_CORRUPT, at=(0,)),
            # Migration path: first transfer lost on the wire, second one
            # reaches a destination that immediately crashes.
            spec(FaultKind.MIGRATION_NET_DROP, at=(0,)),
            spec(FaultKind.MIGRATION_DEST_CRASH, at=(0,)),
        ),
    )


@dataclass
class ChaosReport(RunReport):
    """Everything one chaos run produced, for comparison and display."""

    seed: int
    commands: int
    digests: Dict[str, str]
    retries: int
    recoveries: int
    audit_fault_records: int
    metrics_counts: Dict[str, int]
    mean_recovery_us: float
    #: hex chain head of platform A's audit log — the tracing
    #: non-interference oracle compares this byte-for-byte
    audit_chain_hex: str = ""

    def summary_lines(self) -> list[str]:
        lines = [
            f"plan={self.plan_name} seed={self.seed} commands={self.commands}",
            self.faults_line(),
            f"retries={self.retries} recoveries={self.recoveries} "
            f"mean recovery latency={self.mean_recovery_us:.1f} us",
            f"audit fault records={self.audit_fault_records} "
            f"virtual time={self.elapsed_virtual_us / 1000.0:.2f} ms",
        ]
        for name, digest in sorted(self.digests.items()):
            lines.append(f"state[{name}] = {digest[:16]}…")
        return lines


def _fault_sample_counts(injector) -> Dict[str, int]:
    """Per-name fault sample counts, keyed ``fault.<kind>``,
    ``fault.retry`` and ``fault.recovery`` (names with no samples are
    absent), in name order."""
    counts = {f"fault.{kind}": n for kind, n in injector.fault_counts.items()}
    if injector.retries:
        counts["fault.retry"] = injector.retries
    if injector.recoveries:
        counts["fault.recovery"] = injector.recoveries
    return dict(sorted(counts.items()))


def _direct_transport(manager, domid: int, instance_id: int):
    """A backend-equivalent transport for a migrated guest: same bounded
    retry on transient faults, same TPM_FAIL degradation on exhaustion."""

    def transport(wire: bytes) -> bytes:
        from repro.util.errors import RetryExhausted

        try:
            return with_retry(
                lambda: manager.handle_command(domid, instance_id, wire),
                site="vtpm.backend.forward",
            )
        except RetryExhausted as exc:
            return manager.fault_response(instance_id, exc)

    return transport


def run_chaos_workload(
    seed: int = 2026,
    commands: int = DEFAULT_COMMANDS,
    plan: Optional[FaultPlan] = None,
    mode: AccessMode = AccessMode.IMPROVED,
    tracer: Optional[Tracer] = None,
    counters: Optional[CounterRegistry] = None,
    conformance: bool = False,
) -> ChaosReport:
    """One full chaos run; ``plan=None`` means the fault-free control run.

    The workload script — command mix, checkpoint points, the migration
    at :data:`MIGRATE_AT`, the hard manager crash at :data:`CRASH_AT` —
    is identical with and without faults; only the injected chaos
    differs.  That is what makes the digest comparison meaningful.
    Observers and the conformance oracle are as for
    :func:`~repro.harness.acceptance.observed_run`.
    """
    return observed_run(
        functools.partial(_chaos_workload, seed, commands, mode),
        seed, plan, tracer, counters, conformance,
    )


def _chaos_workload(seed: int, commands: int, mode: AccessMode,
                    run: WorkloadRun) -> ChaosReport:
    platform_a = build_platform(mode, seed=seed, name="chaos-a")
    platform_b = build_platform(mode, seed=seed + 1, name="chaos-b")
    run.attach(platform_a, platform_b)

    # -- setup (outside the injector's reach) --------------------------------------
    anchor = platform_a.add_guest("anchor")
    mover = platform_a.add_guest("mover")
    for guest in (anchor, mover):
        ek = guest.client.read_pubek()
        guest.client.take_ownership(OWNER_AUTH, b"s" * 20, ek)
        guest.client.nv_define(
            OWNER_AUTH, NV_INDEX, NV_SIZE, NV_PER_AUTHWRITE, NV_AUTH
        )

    workload_rng = platform_a.rng.fork("chaos-workload")
    clients: Dict[str, TpmClient] = {
        "anchor": anchor.client,
        "mover": mover.client,
    }
    mover_home: Tuple[Platform, str] = (platform_a, mover.domain.uuid)

    with run.measured(platform_a.audit) as injector:
        for step in range(1, commands + 1):
            name = "anchor" if workload_rng.randint_below(2) == 0 else "mover"
            client = clients[name]
            op = workload_rng.randint_below(100)
            if op < 50:
                client.extend(workload_rng.randint_below(16),
                              workload_rng.bytes(20))
            elif op < 75:
                client.get_random(16)
            elif op < 90:
                client.pcr_read(workload_rng.randint_below(16))
            else:
                client.nv_write(NV_AUTH, NV_INDEX,
                                workload_rng.randint_below(NV_SIZE - 32),
                                workload_rng.bytes(32))

            if step % CHECKPOINT_EVERY == 0:
                platform_a.manager.save_all()

            if step == MIGRATE_AT:
                # Live-migrate 'mover' to platform B; the injector may cut
                # the wire or crash the destination — the driver recovers.
                handle = platform_a.guests.pop("mover")
                target_vm = platform_b.xen.create_domain(
                    handle.domain.name,
                    kernel_image=handle.domain.kernel_image,
                    config=dict(handle.domain.config),
                )
                instance = migrate_with_recovery(
                    platform_a.migration, platform_b.migration,
                    handle.domain.uuid, target_vm,
                    sealed=mode is AccessMode.IMPROVED,
                )
                handle.frontend.close()
                if mode is AccessMode.IMPROVED:
                    platform_a.identities.forget(handle.domain.domid)
                platform_a.xen.destroy_domain(handle.domain.domid)
                clients["mover"] = TpmClient(
                    _direct_transport(
                        platform_b.manager, target_vm.domid,
                        instance.instance_id,
                    ),
                    platform_b.rng.fork("chaos-mover"),
                )
                mover_home = (platform_b, target_vm.uuid)

            if step == CRASH_AT:
                # Hard manager crash right after a command burst: the new
                # daemon recovers the last committed checkpoint — with the
                # injector free to corrupt the recovery reads.
                platform_a.manager.save_all()
                platform_a.restart_manager(clean=False)

        digests = {
            "anchor": state_digest(
                platform_a.manager.instance_for_vm(anchor.domain.uuid)
            ),
            "mover": state_digest(
                mover_home[0].manager.instance_for_vm(mover_home[1])
            ),
        }

    return ChaosReport(
        seed=seed,
        commands=commands,
        digests=digests,
        retries=injector.retries,
        recoveries=injector.recoveries,
        audit_fault_records=sum(
            1 for r in platform_a.audit.records()
            if r.operation.startswith("FAULT")
        ),
        metrics_counts=_fault_sample_counts(injector),
        mean_recovery_us=(
            injector.recovery_us / injector.recoveries
            if injector.recoveries else 0.0
        ),
        audit_chain_hex=platform_a.audit.chain_head().hex(),
        **run.outcome(),
    )


def run_chaos_demo(
    seed: int = 2026,
    commands: int = DEFAULT_COMMANDS,
    plan: Optional[FaultPlan] = None,
    tracer: Optional[Tracer] = None,
    counters: Optional[CounterRegistry] = None,
) -> Dict[str, object]:
    """The acceptance demo: fault-free vs chaotic vs chaotic-again.

    Returns the driver's result dict and raises
    :class:`~repro.util.errors.AcceptanceError` if a robustness claim
    fails — state loss, fault starvation, or non-determinism.
    ``tracer``/``counters`` observe the *chaotic* run only; the
    determinism claims then double as proof that observation changed
    nothing.
    """
    return prove(
        functools.partial(run_chaos_workload, seed=seed, commands=commands),
        plan if plan is not None else default_chaos_plan(seed),
        matches_control=("digests",),
        replays=("event_signature", "digests"),
        claims=_chaos_claims,
        tracer=tracer,
        counters=counters,
    )


def _chaos_claims(control: ChaosReport, chaotic: ChaosReport,
                  replay: ChaosReport) -> None:
    claim(len(chaotic.fault_counts) >= 4,
          f"chaos plan only exercised {sorted(chaotic.fault_counts)}")
    claim(chaotic.audit_fault_records >= chaotic.total_faults,
          "an injected fault is missing from the audit chain")


# -- supervised chaos -----------------------------------------------------------------
#
# The resilience counterpart of the chaos demo above: one platform, three
# guests, a supervisor over every back-end.  A wedge storm drives the
# "victim" guest through the full quarantine → supervised-restart →
# re-attest → probe lifecycle (the first restart flaps on purpose), while
# the "bursty" guest floods the ring with oversized batches so admission
# control sheds on depth and deadline, and the "anchor" guest does normal
# state-changing work the whole time.  The oracles: zero silently dropped
# commands (every submitted frame gets exactly one well-formed response),
# every quarantined instance recovered-and-re-attested or explicitly
# failed, every guest's state digest byte-identical to the fault-free run,
# and breaker open/close sequences identical across same-seed runs.

SUPERVISED_COMMANDS = 600
#: global tpm.device.execute call index the wedge storm starts at
WEDGE_START = 40
#: a consecutive-wedge budget of 16 = four fully exhausted retry episodes
WEDGE_FIRES = 16
BURST_EVERY = 4
BURST_SIZE = 16


def supervised_chaos_plan(seed: int = 0) -> FaultPlan:
    """Wedge storm on the victim, one probe flap, background ring stalls.

    The wedge matches device ``vtpm2`` — the second guest added by
    :func:`run_supervised_chaos` — and fires on *every* matching call once
    the storm starts, which is what burns whole retry budgets and drives
    the health record into quarantine.  The restored instance gets a new
    device name, so recovery also ends the storm naturally.
    """
    return FaultPlan(
        name="supervised-chaos",
        seed=seed,
        specs=(
            spec(FaultKind.WEDGE, every=1, offset=WEDGE_START,
                 max_fires=WEDGE_FIRES, match={"device": "vtpm2"}),
            # The first supervised restart's health probe fails: the
            # instance flaps back to quarantine and restarts again.
            spec(FaultKind.FLAP, at=(0,)),
            spec(FaultKind.RING_STALL, every=131),
        ),
    )


@dataclass
class SupervisedChaosReport(RunReport):
    """Everything one supervised chaos run produced."""

    seed: int
    commands: int
    digests: Dict[str, str]
    #: the zero-silent-drop ledger
    submitted: int
    answered: int
    malformed: int
    response_codes: Dict[int, int]
    #: per guest: shed counts by reason, admitted totals
    shed_counts: Dict[str, Dict[str, int]]
    admitted: Dict[str, int]
    #: per guest: the breaker's (state, virtual us) trail
    breaker_sequences: Dict[str, Tuple]
    health: Dict[str, Dict[str, object]]
    settled: bool
    audit_chain_hex: str = ""

    def summary_lines(self) -> list[str]:
        lines = [
            f"plan={self.plan_name} seed={self.seed} commands={self.commands}",
            self.faults_line(),
            f"ledger: submitted={self.submitted} answered={self.answered} "
            f"malformed={self.malformed}",
            "response codes: "
            + (", ".join(f"{code:#x}={n}"
                         for code, n in sorted(self.response_codes.items()))
               or "none"),
        ]
        for guest in sorted(self.health):
            record = self.health[guest]
            shed = self.shed_counts.get(guest, {})
            lines.append(
                f"{guest}: state={record['state']} restarts={record['restarts']} "
                f"admitted={self.admitted.get(guest, 0)} "
                f"shed={sum(shed.values())}"
                + (f" ({', '.join(f'{k}={v}' for k, v in sorted(shed.items()))})"
                   if shed else "")
            )
        for name, digest in sorted(self.digests.items()):
            lines.append(f"state[{name}] = {digest[:16]}…")
        lines.append(f"settled={self.settled} "
                     f"virtual time={self.elapsed_virtual_us / 1000.0:.2f} ms")
        return lines


def run_supervised_chaos(
    seed: int = 2026,
    commands: int = SUPERVISED_COMMANDS,
    plan: Optional[FaultPlan] = None,
    mode: AccessMode = AccessMode.IMPROVED,
    tracer: Optional[Tracer] = None,
    counters: Optional[CounterRegistry] = None,
    conformance: bool = False,
) -> SupervisedChaosReport:
    """One supervised chaos run; ``plan=None`` is the fault-free control."""
    return observed_run(
        functools.partial(_supervised_workload, seed, commands, mode),
        seed, plan, tracer, counters, conformance,
    )


def _supervised_workload(seed: int, commands: int, mode: AccessMode,
                         run: WorkloadRun) -> SupervisedChaosReport:
    from repro.resilience import AdmissionConfig

    platform = build_platform(mode, seed=seed, name="supervised-chaos")
    run.attach(platform)

    # -- setup (outside the injector's reach) --------------------------------------
    anchor = platform.add_guest("anchor")
    victim = platform.add_guest("victim")  # instance 2 — the wedge target
    bursty = platform.add_guest("bursty")
    for index in range(5):
        victim.client.extend(
            index, hashlib.sha1(f"victim-pcr-{index}".encode()).digest()
        )
    # The committed checkpoint every supervised restart restores from.
    platform.manager.save_all()

    supervisor = platform.enable_supervision(
        # A tight deadline budget so the bursty guest's oversized batches
        # shed on expected queueing delay as well as raw depth; single
        # frames (backlog 0) are never deadline-shed, so the anchor and
        # victim paths are unaffected.
        admission=AdmissionConfig(max_depth=8, deadline_us=150.0),
        # A short cooldown keeps the whole open → half-open → closed
        # breaker arc inside the run instead of parking it in drain().
        breaker_cooldown_us=2_000.0,
    )

    workload_rng = platform.rng.fork("supervised-workload")

    submitted = 0
    answered = 0
    malformed = 0
    response_codes: Dict[int, int] = {}

    def note(response: bytes) -> None:
        nonlocal answered, malformed
        answered += 1
        try:
            code = marshal.parse_response(response).return_code
        except ReproError:
            malformed += 1
            return
        response_codes[code] = response_codes.get(code, 0) + 1

    with run.measured(platform.audit):
        for step in range(1, commands + 1):
            # The anchor does normal, state-changing trusted-computing work
            # throughout — its digest must not feel the chaos at all.
            op = workload_rng.randint_below(100)
            if op < 60:
                anchor.client.extend(
                    workload_rng.randint_below(NUM_PCRS),
                    workload_rng.bytes(20),
                )
            elif op < 85:
                anchor.client.pcr_read(workload_rng.randint_below(NUM_PCRS))
            else:
                anchor.client.get_random(16)

            # The victim drives one read per step, raw on the wire so shed
            # and degraded frames land in the ledger instead of raising.
            wire = pcr_read_wire(step % NUM_PCRS)
            submitted += 1
            note(victim.frontend.transport(wire))

            # The bursty guest floods the ring with oversized batches.
            if step % BURST_EVERY == 0:
                burst = [
                    pcr_read_wire((step + i) % NUM_PCRS)
                    for i in range(BURST_SIZE)
                ]
                submitted += len(burst)
                for response in bursty.frontend.transport_batch(burst):
                    note(response)

        # Settle: wait out cooldowns and probe until every breaker closes.
        supervisor.drain()

        digests = {
            name: state_digest(
                platform.manager.instance_for_vm(handle.domain.uuid)
            )
            for name, handle in (
                ("anchor", anchor), ("victim", victim), ("bursty", bursty),
            )
        }

    status = {entry["guest"]: entry for entry in supervisor.status()}
    return SupervisedChaosReport(
        seed=seed,
        commands=commands,
        digests=digests,
        submitted=submitted,
        answered=answered,
        malformed=malformed,
        response_codes=dict(response_codes),
        shed_counts={g: dict(e["shed"]) for g, e in status.items()},
        admitted={g: e["admitted"] for g, e in status.items()},
        breaker_sequences={
            g: supervisor.breaker_for(e["vm"]).sequence()
            for g, e in status.items()
        },
        health=status,
        settled=supervisor.settled(),
        audit_chain_hex=platform.audit.chain_head().hex(),
        **run.outcome(),
    )


def run_supervised_chaos_demo(
    seed: int = 2026,
    commands: int = SUPERVISED_COMMANDS,
    plan: Optional[FaultPlan] = None,
    tracer: Optional[Tracer] = None,
    counters: Optional[CounterRegistry] = None,
) -> Dict[str, object]:
    """The supervised acceptance demo: fault-free vs chaotic vs replay.

    Raises :class:`~repro.util.errors.AcceptanceError` if a resilience
    claim fails: a silently dropped command, a quarantined instance that
    neither recovered nor failed explicitly, chaos bleeding into
    unaffected guests' state, or a non-deterministic breaker schedule.
    ``tracer``/``counters`` observe the chaotic run only.
    """
    return prove(
        functools.partial(run_supervised_chaos, seed=seed, commands=commands),
        plan if plan is not None else supervised_chaos_plan(seed),
        # Chaos must not bleed into state: every guest's digest matches
        # the fault-free run (the victim's reads changed nothing after its
        # checkpoint, so even its restored state is byte-identical).
        matches_control=("digests",),
        # Same seed, same fault sequence, same breaker schedule.
        replays=("event_signature", "breaker_sequences", "digests",
                 "shed_counts"),
        claims=_supervised_claims,
        ledger=True,
        tracer=tracer,
        counters=counters,
    )


def _supervised_claims(control: SupervisedChaosReport,
                       chaotic: SupervisedChaosReport,
                       replay: SupervisedChaosReport) -> None:
    claim(chaotic.total_faults > 0, "chaos plan never fired")
    # Every quarantined instance was restored-and-re-attested (settled
    # healthy) or explicitly failed — never left in limbo.
    claim(chaotic.settled, f"unsettled run: {chaotic.health}")
    claim(
        any(record["restarts"] > 0 for record in chaotic.health.values()),
        "the wedge storm never drove a supervised restart",
    )
