"""The cluster acceptance demo: a fleet surviving a storm and a crash.

The claim mirrors the single-host chaos demo, scaled out: N hosts and M
guests run a deterministic per-guest command script while the fleet is
subjected to link partitions, a migration storm (a third of the guests
rebalanced mid-run through the attested sealed path) and one whole-host
crash with in-place recovery.  The oracles:

* **zero silent drops** — every submitted frame receives exactly one
  well-formed response (retried partitions return the real response;
  exhausted episodes return a degraded ``TPM_FAIL``, never nothing);
* **placed or failed** — every guest ends on an ``UP`` host, or its
  placement failed explicitly at admission;
* **no state loss, no placement sensitivity** — every guest's PCR/NV
  digest *and* its response-byte digest are byte-identical to a
  single-host, fault-free control run of the same per-guest scripts;
* **replay identity** — placement decisions, migration records and the
  fault sequence are identical across same-seed runs.

The per-guest scripts use only deterministic no-auth commands (extend,
PCR read) — exactly the commands whose responses depend on nothing but
the instance's own state, which is what makes the cross-host response
comparison meaningful.  The runs and the shared claims come from the
acceptance driver (:mod:`repro.harness.acceptance`).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.fleet import Fleet, build_fleet
from repro.cluster.host import HostState
from repro.core.config import AccessMode
from repro.crypto.random_source import RandomSource
from repro.faults import FaultKind, FaultPlan, spec
from repro.harness.acceptance import (
    RunReport,
    WorkloadRun,
    claim,
    observed_run,
    prove,
    state_digest,
)
from repro.obs import CounterRegistry, Tracer
from repro.tpm import marshal
from repro.tpm.client import extend_wire, pcr_read_wire
from repro.tpm.constants import NUM_PCRS
from repro.util.errors import ClusterError, ReproError

DEFAULT_HOSTS = 4
DEFAULT_GUESTS = 32
DEFAULT_STEPS = 96
CHECKPOINT_EVERY = 24
#: every STORM_STRIDE-th guest (sorted) is rebalanced in the storm
STORM_STRIDE = 3


def default_cluster_plan(
    seed: int, num_hosts: int, crash_step: int, crash_host: str = "h1"
) -> FaultPlan:
    """Link partitions throughout, one whole-host crash mid-run.

    The ``cluster.host`` site is polled once per UP host per step (sorted
    order), so the crash spec arms at the first poll of ``crash_step``
    and the ``match`` filter lets it fire on the named host only.
    """
    crash_offset = max(0, (crash_step - 1) * num_hosts)
    return FaultPlan(
        name="cluster-chaos",
        seed=seed,
        specs=(
            # Sparse enough that one bounded-retry episode always clears
            # it (no two consecutive link calls both fire), so responses
            # stay byte-identical to the fault-free control.
            spec(FaultKind.PARTITION, every=23),
            spec(
                FaultKind.HOST_CRASH,
                every=1,
                offset=crash_offset,
                max_fires=1,
                match={"host": crash_host},
            ),
        ),
    )


@dataclass
class ClusterReport(RunReport):
    """Everything one fleet run produced, for comparison and display."""

    seed: int
    hosts: int
    guests: int
    steps: int
    #: per-guest PCR/NV digest of the final instance, wherever it lives
    state_digests: Dict[str, str]
    #: per-guest SHA-256 over every response frame, in script order
    response_digests: Dict[str, str]
    placement_signature: Tuple
    migration_signature: Tuple[Tuple[str, str, str, str, int], ...]
    #: the zero-silent-drop ledger
    submitted: int
    answered: int
    malformed: int
    #: guests whose placement failed explicitly (admission refused)
    placement_failures: List[str]
    final_placements: Dict[str, str]
    host_states: Dict[str, str]
    host_crashes: int
    migrations_moved: int
    migrations_failed: int
    routed: int
    degraded: int

    def summary_lines(self) -> List[str]:
        lines = [
            f"plan={self.plan_name} seed={self.seed} "
            f"hosts={self.hosts} guests={self.guests} steps={self.steps}",
            self.faults_line(),
            f"ledger: submitted={self.submitted} answered={self.answered} "
            f"malformed={self.malformed} degraded={self.degraded}",
            f"host crashes survived: {self.host_crashes}; migrations: "
            f"{self.migrations_moved} moved, {self.migrations_failed} failed",
            f"placements: "
            + ", ".join(
                f"{h}={sum(1 for p in self.final_placements.values() if p == h)}"
                for h in sorted(self.host_states)
            )
            + (f"; failed={self.placement_failures}"
               if self.placement_failures else ""),
            f"virtual time={self.elapsed_virtual_us / 1000.0:.2f} ms",
        ]
        digest_head = sorted(self.state_digests.items())[:4]
        for name, digest in digest_head:
            lines.append(f"state[{name}] = {digest[:16]}…")
        if len(self.state_digests) > len(digest_head):
            lines.append(f"… and {len(self.state_digests) - len(digest_head)} "
                         f"more guests, all digested")
        return lines


def _storm_moves(
    fleet: Fleet, guest_names: List[str]
) -> List[Tuple[str, str, str]]:
    """Every STORM_STRIDE-th guest moves to its next admissible ring
    candidate — guaranteed cross-host movement, unlike a pure rebalance
    of an already-well-placed fleet."""
    moves: List[Tuple[str, str, str]] = []
    for position, name in enumerate(sorted(guest_names)):
        if position % STORM_STRIDE:
            continue
        location = fleet.router.locate(name)
        candidates = fleet.ring.candidates(name)
        start = (
            candidates.index(location.host_id) + 1
            if location.host_id in candidates
            else 0
        )
        for offset in range(len(candidates)):
            target = candidates[(start + offset) % len(candidates)]
            if target != location.host_id and fleet.hosts[target].admissible():
                moves.append((name, location.host_id, target))
                break
    return moves


def run_cluster_workload(
    seed: int = 2027,
    hosts: int = DEFAULT_HOSTS,
    guests: int = DEFAULT_GUESTS,
    steps: int = DEFAULT_STEPS,
    plan: Optional[FaultPlan] = None,
    storm: bool = True,
    mode: AccessMode = AccessMode.IMPROVED,
    tracer: Optional[Tracer] = None,
    counters: Optional[CounterRegistry] = None,
    conformance: bool = False,
) -> ClusterReport:
    """One full fleet run; ``plan=None`` means the fault-free control.

    Each guest's command script is drawn from an rng keyed to *(seed,
    guest name)* alone — independent of host count, placement, and every
    other guest — so the same scripts replay against any fleet shape and
    the per-guest digests are directly comparable across shapes.

    Observers and the conformance oracle (on every host's monitor) are
    as for :func:`~repro.harness.acceptance.observed_run`.
    """
    return observed_run(
        functools.partial(
            _cluster_workload, seed, hosts, guests, steps, storm, mode
        ),
        seed, plan, tracer, counters, conformance,
    )


def _cluster_workload(seed: int, hosts: int, guests: int, steps: int,
                      storm: bool, mode: AccessMode,
                      run: WorkloadRun) -> ClusterReport:
    # Capacity covers a whole fleet's worth of guests per host, so the
    # one-host control run and mid-storm transients always fit.
    fleet = build_fleet(
        mode=mode, num_hosts=hosts, seed=seed, capacity=max(guests, 4),
    )
    run.attach(*(fleet.hosts[host_id].platform
                 for host_id in sorted(fleet.hosts)))
    guest_names = [f"g{index:02d}" for index in range(guests)]
    placement_failures: List[str] = []
    for name in guest_names:
        try:
            fleet.add_guest(name)
        except ClusterError:
            placement_failures.append(name)
    placed = [n for n in guest_names if n not in placement_failures]

    streams = {
        name: RandomSource(f"cluster-wl-{seed}-{name}".encode())
        for name in placed
    }
    response_hash = {name: hashlib.sha256() for name in placed}

    submitted = 0
    answered = 0
    malformed = 0
    storm_step = max(1, steps // 3)
    crash_count = 0

    with run.measured(fleet.hosts["h0"].platform.audit):
        for step in range(1, steps + 1):
            crash_count += fleet.poll_host_faults()
            for name in placed:
                rng = streams[name]
                op = rng.randint_below(100)
                if op < 55:
                    wire = extend_wire(
                        rng.randint_below(NUM_PCRS), rng.bytes(20)
                    )
                else:
                    wire = pcr_read_wire(rng.randint_below(NUM_PCRS))
                submitted += 1
                response = fleet.router.send(name, wire)
                answered += 1
                try:
                    marshal.parse_response(response)
                # repro: allow[fail-closed] -- demo oracle counts malformed frames as its signal
                except ReproError:
                    malformed += 1
                response_hash[name].update(response)

            if step % CHECKPOINT_EVERY == 0:
                for host_id in sorted(fleet.hosts):
                    fleet.hosts[host_id].platform.manager.save_all()

            if storm and step == storm_step and len(fleet.hosts) > 1:
                fleet.migrator.storm(_storm_moves(fleet, placed))

        state_digests = {
            name: state_digest(fleet.instance_for(name)) for name in placed
        }

    moved = sum(
        1 for r in fleet.migrator.trail if r.outcome == "moved"
    )
    failed = sum(
        1 for r in fleet.migrator.trail if r.outcome == "failed"
    )
    return ClusterReport(
        seed=seed,
        hosts=hosts,
        guests=guests,
        steps=steps,
        state_digests=state_digests,
        response_digests={
            name: h.hexdigest() for name, h in response_hash.items()
        },
        placement_signature=fleet.scheduler.trail_signature(),
        migration_signature=fleet.migrator.trail_signature(),
        submitted=submitted,
        answered=answered,
        malformed=malformed,
        placement_failures=placement_failures,
        final_placements=fleet.router.placements(),
        host_states={
            host_id: host.state.value
            for host_id, host in sorted(fleet.hosts.items())
        },
        host_crashes=crash_count,
        migrations_moved=moved,
        migrations_failed=failed,
        routed=fleet.router.routed,
        degraded=fleet.router.degraded,
        **run.outcome(),
    )


def run_cluster_demo(
    seed: int = 2027,
    hosts: int = DEFAULT_HOSTS,
    guests: int = DEFAULT_GUESTS,
    steps: int = DEFAULT_STEPS,
    plan: Optional[FaultPlan] = None,
    tracer: Optional[Tracer] = None,
    counters: Optional[CounterRegistry] = None,
) -> Dict[str, object]:
    """The acceptance demo: single-host control vs chaotic fleet vs replay.

    Raises :class:`~repro.util.errors.AcceptanceError` on any violated
    oracle.  ``tracer``/``counters`` observe the chaotic run only, so the
    replay comparison doubles as the observer non-interference check.
    """
    shape = dict(seed=seed, guests=guests, steps=steps)
    return prove(
        functools.partial(run_cluster_workload, hosts=hosts, storm=True,
                          **shape),
        plan if plan is not None else default_cluster_plan(
            seed, hosts, crash_step=max(1, (2 * steps) // 3)
        ),
        control=functools.partial(run_cluster_workload, hosts=1,
                                  storm=False, **shape),
        # No state loss, no placement sensitivity: digests match the
        # single-host fault-free control byte for byte.
        matches_control=("state_digests", "response_digests"),
        # Replay identity: schedules and fault sequence reproduce exactly.
        replays=("event_signature", "placement_signature",
                 "migration_signature", "state_digests", "response_digests"),
        claims=_cluster_claims,
        ledger=True,
        tracer=tracer,
        counters=counters,
    )


def _cluster_claims(control: ClusterReport, chaotic: ClusterReport,
                    replay: ClusterReport) -> None:
    claim(chaotic.fault_counts.get("partition", 0) > 0,
          "the plan never partitioned the cluster link")
    claim(chaotic.host_crashes >= 1, "the plan never crashed a host")
    claim(chaotic.migrations_moved >= 1, "the storm never moved a guest")
    # Placed-or-failed: every guest ends on an UP host or failed loudly.
    for report in (chaotic, replay):
        for guest, host_id in report.final_placements.items():
            claim(
                report.host_states[host_id] == HostState.UP.value,
                f"guest {guest} stranded on {host_id} "
                f"({report.host_states[host_id]})",
            )
        claim(
            len(report.final_placements) + len(report.placement_failures)
            == report.guests,
            "a guest is neither placed nor an explicit placement failure",
        )
