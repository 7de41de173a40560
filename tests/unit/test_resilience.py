"""Unit tests for the resilience layer: health records, breakers,
admission control, the monitor's health gate, fail-closed re-bind, and
the supervised restart leg."""

from __future__ import annotations

import pytest

from repro.core.config import AccessMode
from repro.core.policy import CommandClass
from repro.crypto.random_source import RandomSource
from repro.faults import FaultInjector, FaultKind, FaultPlan, spec
from repro.harness.builder import build_platform
from repro.resilience import (
    LEGAL_TRANSITIONS,
    AdmissionConfig,
    AdmissionController,
    BreakerState,
    CircuitBreaker,
    HealthState,
    HealthThresholds,
    InstanceHealth,
    PROBE_WIRE,
)
from repro.sim.timing import charge, get_context, observe
from repro.tpm import marshal
from repro.tpm.constants import (
    TPM_ORD_Extend,
    TPM_ORD_PcrRead,
    TPM_RESOURCES,
    TPM_SUCCESS,
)
from repro.tpm.constants import TPM_FAIL
from repro.util.errors import SupervisionError, VtpmError


def _pcr_read_wire(index: int = 0) -> bytes:
    return marshal.build_command(TPM_ORD_PcrRead, index.to_bytes(4, "big"))


def _extend_wire(index: int = 0) -> bytes:
    return marshal.build_command(
        TPM_ORD_Extend, index.to_bytes(4, "big") + b"\xaa" * 20
    )


def _rc(response: bytes) -> int:
    return marshal.parse_response(response).return_code


class TestHealthStateMachine:
    def test_happy_walk_degrade_quarantine(self):
        record = InstanceHealth("vm-1", 1)
        for _ in range(2):
            record.note_failure("tpm-fail")
        assert record.state is HealthState.DEGRADED
        for _ in range(2):
            record.note_failure("retry-exhausted")
        assert record.state is HealthState.QUARANTINED

    def test_success_streak_heals_degraded(self):
        record = InstanceHealth("vm-1", 1)
        record.note_failure("tpm-fail")
        record.note_failure("tpm-fail")
        assert record.state is HealthState.DEGRADED
        for _ in range(6):
            record.note_success()
        assert record.state is HealthState.HEALTHY
        assert record.consecutive_failures == 0

    def test_failure_resets_success_streak(self):
        record = InstanceHealth("vm-1", 1)
        record.note_failure("tpm-fail")
        record.note_failure("tpm-fail")
        for _ in range(5):
            record.note_success()
        record.note_failure("deadline-miss")  # streak broken at 5/6
        for _ in range(5):
            record.note_success()
        assert record.state is HealthState.DEGRADED

    def test_illegal_transition_raises(self):
        record = InstanceHealth("vm-1", 1)
        with pytest.raises(SupervisionError, match="illegal health transition"):
            record.transition(HealthState.RESTARTING, "no quarantine first")
        # FAILED is terminal: nothing leaves it.
        record.transition(HealthState.QUARANTINED, "forced")
        record.transition(HealthState.FAILED, "forced")
        for target in HealthState:
            with pytest.raises(SupervisionError):
                record.transition(target, "escape attempt")

    def test_unknown_failure_kind_rejected(self):
        record = InstanceHealth("vm-1", 1)
        with pytest.raises(SupervisionError, match="unknown failure kind"):
            record.note_failure("cosmic-ray")

    def test_history_records_every_transition(self):
        record = InstanceHealth("vm-1", 1)
        for _ in range(4):
            record.note_failure("tpm-fail")
        assert [(frm, to) for frm, to, _ in record.history] == [
            (HealthState.HEALTHY, HealthState.DEGRADED),
            (HealthState.DEGRADED, HealthState.QUARANTINED),
        ]
        assert all(
            (frm, to) in LEGAL_TRANSITIONS for frm, to, _ in record.history
        )

    def test_custom_thresholds(self):
        record = InstanceHealth(
            "vm-1", 1, thresholds=HealthThresholds(degrade_after=1,
                                                   quarantine_after=2)
        )
        record.note_failure("tpm-fail")
        assert record.state is HealthState.DEGRADED
        record.note_failure("tpm-fail")
        assert record.state is HealthState.QUARANTINED


class TestCircuitBreaker:
    def _breaker(self, **kwargs) -> CircuitBreaker:
        return CircuitBreaker(
            "t", RandomSource(b"breaker-test"), **kwargs
        )

    def test_opens_after_threshold(self):
        breaker = self._breaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_success_resets_failure_count(self):
        breaker = self._breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_cooldown_blocks_then_half_opens(self):
        breaker = self._breaker(failure_threshold=1, cooldown_us=1_000.0)
        breaker.record_failure()
        assert not breaker.allow()  # cooldown not elapsed
        assert breaker.remaining_cooldown_us() > 0.0
        charge("supervisor.wait", breaker.remaining_cooldown_us())
        assert breaker.allow()  # the half-open probe slot
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow()  # exactly one probe at a time

    def test_probe_success_closes(self):
        breaker = self._breaker(failure_threshold=1, cooldown_us=100.0)
        breaker.record_failure()
        charge("supervisor.wait", breaker.remaining_cooldown_us())
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        breaker = self._breaker(failure_threshold=1, cooldown_us=100.0)
        breaker.record_failure()
        charge("supervisor.wait", breaker.remaining_cooldown_us())
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_jitter_is_additive_only(self):
        for i in range(8):
            breaker = CircuitBreaker(
                f"b{i}", RandomSource(b"jitter" + bytes([i])),
                failure_threshold=1, cooldown_us=1_000.0,
            )
            breaker.record_failure()
            assert 1_000.0 <= breaker.current_cooldown_us <= 1_500.0

    def test_sequence_is_seed_deterministic(self):
        def drive(seed: bytes):
            breaker = CircuitBreaker(
                "d", RandomSource(seed), failure_threshold=1,
                cooldown_us=500.0,
            )
            breaker.record_failure()
            charge("supervisor.wait", breaker.remaining_cooldown_us())
            breaker.allow()
            breaker.record_failure()
            return breaker.sequence()

        a = drive(b"same-seed")
        # Same virtual clock offsets relative to the events matter, not
        # absolute time, so compare the state trail + cooldown draws.
        b = drive(b"same-seed")
        assert [s for s, _ in a] == [s for s, _ in b] == [
            "open", "half-open", "open"
        ]

    def test_force_open_requires_reearning(self):
        breaker = self._breaker(cooldown_us=200.0)
        breaker.force_open()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()


class TestAdmissionController:
    def _health(self, state: HealthState = HealthState.HEALTHY) -> InstanceHealth:
        record = InstanceHealth("vm-adm", 1)
        # Walk legally to the requested state.
        walks = {
            HealthState.HEALTHY: (),
            HealthState.DEGRADED: (HealthState.DEGRADED,),
            HealthState.QUARANTINED: (HealthState.QUARANTINED,),
            HealthState.FAILED: (HealthState.QUARANTINED, HealthState.FAILED),
            HealthState.RESTARTING: (HealthState.QUARANTINED,
                                     HealthState.RESTARTING),
        }
        for target in walks[state]:
            record.transition(target, "test-walk")
        return record

    def _breaker(self) -> CircuitBreaker:
        return CircuitBreaker("adm", RandomSource(b"adm"))

    def test_healthy_admits_everything_in_budget(self):
        ctl = AdmissionController("vm-adm", AdmissionConfig(max_depth=4))
        verdicts = ctl.verdicts(
            [_pcr_read_wire()] * 3, self._health(), self._breaker()
        )
        assert verdicts == [None, None, None]
        assert ctl.admitted == 3

    def test_depth_shed_beyond_max(self):
        ctl = AdmissionController(
            "vm-adm", AdmissionConfig(max_depth=2, deadline_us=1e9)
        )
        verdicts = ctl.verdicts(
            [_pcr_read_wire()] * 5, self._health(), self._breaker()
        )
        assert verdicts[:2] == [None, None]
        for shed in verdicts[2:]:
            assert _rc(shed) == TPM_RESOURCES
        assert ctl.shed_counts == {"depth": 3}

    def test_deadline_shed_with_frozen_estimate(self):
        ctl = AdmissionController(
            "vm-adm",
            AdmissionConfig(max_depth=100, deadline_us=100.0,
                            service_estimate_us=40.0, ewma_alpha=0.0),
        )
        verdicts = ctl.verdicts(
            [_pcr_read_wire()] * 6, self._health(), self._breaker()
        )
        # backlog×40 > 100 first fails at backlog 3 (120 > 100).
        assert verdicts[:3] == [None, None, None]
        assert ctl.shed_counts == {"deadline": 3}

    def test_ewma_tracks_observations(self):
        ctl = AdmissionController(
            "vm-adm", AdmissionConfig(service_estimate_us=30.0, ewma_alpha=0.5)
        )
        ctl.observe_service_us(10.0)
        assert ctl.service_estimate_us == pytest.approx(20.0)
        ctl.observe_service_us(20.0)
        assert ctl.service_estimate_us == pytest.approx(20.0)

    def test_degraded_admits_only_reads(self):
        ctl = AdmissionController("vm-adm")
        verdicts = ctl.verdicts(
            [_pcr_read_wire(), _extend_wire(), _pcr_read_wire()],
            self._health(HealthState.DEGRADED),
            self._breaker(),
        )
        assert verdicts[0] is None and verdicts[2] is None
        assert _rc(verdicts[1]) == TPM_RESOURCES
        assert ctl.shed_counts == {"degraded": 1}

    def test_quarantined_sheds_busy_failed_sheds_fail(self):
        ctl = AdmissionController("vm-adm")
        [busy] = ctl.verdicts(
            [_pcr_read_wire()], self._health(HealthState.QUARANTINED),
            self._breaker(),
        )
        assert _rc(busy) == TPM_RESOURCES
        [dead] = ctl.verdicts(
            [_pcr_read_wire()], self._health(HealthState.FAILED),
            self._breaker(),
        )
        assert _rc(dead) == TPM_FAIL

    def test_open_breaker_sheds(self):
        ctl = AdmissionController("vm-adm")
        breaker = self._breaker()
        breaker.force_open()
        verdicts = ctl.verdicts(
            [_pcr_read_wire()] * 2, self._health(), breaker
        )
        assert all(_rc(v) == TPM_RESOURCES for v in verdicts)
        assert ctl.shed_counts == {"breaker": 2}

    def test_half_open_admits_exactly_one_probe(self):
        ctl = AdmissionController("vm-adm")
        breaker = CircuitBreaker(
            "adm", RandomSource(b"adm"), cooldown_us=10.0
        )
        breaker.force_open()
        charge("supervisor.wait", breaker.remaining_cooldown_us())
        verdicts = ctl.verdicts(
            [_pcr_read_wire()] * 3, self._health(), breaker
        )
        assert verdicts[0] is None  # the single half-open slot
        assert all(_rc(v) == TPM_RESOURCES for v in verdicts[1:])

    def test_every_shed_is_well_formed(self):
        ctl = AdmissionController("vm-adm", AdmissionConfig(max_depth=1))
        verdicts = ctl.verdicts(
            [_pcr_read_wire()] * 4, self._health(HealthState.QUARANTINED),
            self._breaker(),
        )
        for shed in verdicts:
            parsed = marshal.parse_response(shed)  # raises if malformed
            assert parsed.return_code == TPM_RESOURCES


class TestHealthGateAndRing:
    """The supervisor wired into a real platform: gate + ring admission."""

    def _supervised(self, **kwargs):
        platform = build_platform(AccessMode.IMPROVED, seed=7, name="sup")
        guest = platform.add_guest("alice")
        supervisor = platform.enable_supervision(**kwargs)
        return platform, guest, supervisor

    def test_gate_allows_healthy(self):
        _, guest, supervisor = self._supervised()
        assert supervisor.gate(guest.instance_id, CommandClass.MEASURE) is None

    def test_gate_degraded_read_only(self):
        _, guest, supervisor = self._supervised()
        record = supervisor.record_for(guest.domain.uuid)
        record.transition(HealthState.DEGRADED, "test")
        assert supervisor.gate(guest.instance_id, CommandClass.READ) is None
        reason = supervisor.gate(guest.instance_id, CommandClass.MEASURE)
        assert reason and "read-only" in reason

    def test_gate_quarantined_and_failed_deny_all(self):
        _, guest, supervisor = self._supervised()
        record = supervisor.record_for(guest.domain.uuid)
        record.transition(HealthState.QUARANTINED, "test")
        assert supervisor.gate(guest.instance_id, CommandClass.READ)
        record.transition(HealthState.FAILED, "test")
        for cls in CommandClass:
            assert supervisor.gate(guest.instance_id, cls)

    def test_gate_unknown_instance_is_neutral(self):
        _, _, supervisor = self._supervised()
        assert supervisor.gate(999, CommandClass.READ) is None

    def test_monitor_denies_gated_command_end_to_end(self):
        _, guest, supervisor = self._supervised()
        record = supervisor.record_for(guest.domain.uuid)
        record.transition(HealthState.DEGRADED, "test")
        # Reads still flow; a measurement is shed at the ring with BUSY.
        assert _rc(guest.frontend.transport(_pcr_read_wire())) == TPM_SUCCESS
        assert _rc(guest.frontend.transport(_extend_wire())) == TPM_RESOURCES

    def test_unhealthy_index_tracks_transitions(self):
        # The monitor's per-command fast path is a membership test on
        # this index; it must mirror the health state machine exactly.
        platform, guest, supervisor = self._supervised()
        index = supervisor.unhealthy_instances
        assert platform.monitor.health_index is index
        assert guest.instance_id not in index
        record = supervisor.record_for(guest.domain.uuid)
        record.transition(HealthState.DEGRADED, "test")
        assert index[guest.instance_id] is record
        record.transition(HealthState.HEALTHY, "test")
        assert guest.instance_id not in index

    def test_unhealthy_index_routes_to_gate_end_to_end(self):
        platform, guest, supervisor = self._supervised()
        record = supervisor.record_for(guest.domain.uuid)
        record.transition(HealthState.QUARANTINED, "wedged")
        assert supervisor.unhealthy_instances
        # Denied end-to-end while quarantined (index routes to the gate).
        assert _rc(guest.frontend.transport(_pcr_read_wire())) != TPM_SUCCESS

    def test_unsupervised_platform_unaffected(self):
        platform = build_platform(AccessMode.IMPROVED, seed=8, name="raw")
        guest = platform.add_guest("bob")
        assert platform.supervisor is None
        assert _rc(guest.frontend.transport(_extend_wire())) == TPM_SUCCESS

    def test_double_supervision_rejected(self):
        platform, _, _ = self._supervised()
        with pytest.raises(Exception, match="already supervised"):
            platform.enable_supervision()

    def test_guests_added_after_enable_are_supervised(self):
        platform, _, supervisor = self._supervised()
        late = platform.add_guest("late")
        assert supervisor.record_for(late.domain.uuid) is not None
        assert late.backend.supervision is supervisor


class TestFailClosedRebind:
    """Satellite (b): rebind verifies the owning identity, fail closed."""

    def test_improved_rebind_to_foreign_instance_refused(self):
        platform = build_platform(AccessMode.IMPROVED, seed=9, name="rb")
        victim = platform.add_guest("victim")
        attacker = platform.add_guest("attacker")
        with pytest.raises(VtpmError, match="rebind refused"):
            attacker.backend.rebind(victim.instance_id)
        # Fail closed: the old binding survives, service continues.
        assert attacker.backend.instance_id == attacker.instance_id
        assert _rc(attacker.frontend.transport(_pcr_read_wire())) == TPM_SUCCESS

    def test_refused_rebind_is_audited(self):
        platform = build_platform(AccessMode.IMPROVED, seed=9, name="rb2")
        victim = platform.add_guest("victim")
        attacker = platform.add_guest("attacker")
        before = len(platform.audit.denials())
        with pytest.raises(VtpmError):
            attacker.backend.rebind(victim.instance_id)
        denials = platform.audit.denials()
        assert len(denials) == before + 1
        assert denials[-1].operation == "VTPM_Rebind"
        assert platform.audit.verify_chain()

    def test_rogue_attack_regression_improved_blocked(self):
        """The original rogue-rebind attack, replayed against the new
        fail-closed backend: blocked before a single command flows."""
        from repro.attacks.rogue import RogueRebindAttack

        platform = build_platform(AccessMode.IMPROVED, seed=10, name="rb3")
        victim = platform.add_guest("victim")
        attacker = platform.add_guest("attacker")
        ok, detail = RogueRebindAttack(platform, attacker, victim).run()
        assert not ok
        assert "refused the re-bind" in detail

    def test_rogue_attack_regression_baseline_still_works(self):
        """Baseline has no identity binding, so the attack still lands —
        the differential the paper's improvement is measured against."""
        from repro.attacks.rogue import RogueRebindAttack

        platform = build_platform(AccessMode.BASELINE, seed=10, name="rb4")
        victim = platform.add_guest("victim")
        attacker = platform.add_guest("attacker")
        ok, _ = RogueRebindAttack(platform, attacker, victim).run()
        assert ok

    def test_rebind_to_own_instance_allowed(self):
        platform = build_platform(AccessMode.IMPROVED, seed=11, name="rb5")
        guest = platform.add_guest("alice")
        guest.backend.rebind(guest.instance_id)  # no-op, same identity
        assert _rc(guest.frontend.transport(_pcr_read_wire())) == TPM_SUCCESS


def _wedge_plan(device: str, fires: int, flaps=()) -> FaultPlan:
    return FaultPlan(
        name="unit-wedge",
        seed=1,
        specs=(
            spec(FaultKind.WEDGE, every=1, max_fires=fires,
                 match={"device": device}),
            spec(FaultKind.FLAP, at=tuple(flaps)) if flaps else
            spec(FaultKind.FLAP, at=(10_000,)),
        ),
    )


class TestSupervisedRestart:
    def _storm(self, platform, guest, supervisor, plan, pokes=8):
        """Drive reads at a wedged guest until quarantine resolves."""
        injector = FaultInjector(plan, audit=platform.audit)
        wire = _pcr_read_wire()
        with observe(injector=injector):
            for _ in range(pokes):
                guest.frontend.transport(wire)
                record = supervisor.record_for(guest.domain.uuid)
                if record.restarts or record.terminal:
                    break
        return injector

    def test_wedge_storm_quarantines_and_recovers(self):
        platform = build_platform(AccessMode.IMPROVED, seed=12, name="storm")
        guest = platform.add_guest("alice")
        platform.manager.save_all()
        supervisor = platform.enable_supervision(
            thresholds=HealthThresholds(degrade_after=1, quarantine_after=2),
            breaker_failure_threshold=10,  # keep the breaker out of the way
        )
        old_instance = guest.instance_id
        self._storm(platform, guest, supervisor,
                    _wedge_plan(f"vtpm{old_instance}", fires=8))
        record = supervisor.record_for(guest.domain.uuid)
        assert record.restarts == 1
        assert record.state is HealthState.HEALTHY
        assert record.instance_id != old_instance
        # The restored instance is re-bound, re-attested and serving.
        supervisor.drain()
        assert supervisor.settled()
        assert _rc(guest.frontend.transport(_pcr_read_wire())) == TPM_SUCCESS
        # The lifecycle ran exactly the legal path.
        assert [(f.value, t.value) for f, t, _ in record.history] == [
            ("healthy", "degraded"),
            ("degraded", "quarantined"),
            ("quarantined", "restarting"),
            ("restarting", "healthy"),
        ]
        # The monitor's unhealthy-instance index drained with the storm —
        # no stale entry survives the restart's id change.
        assert supervisor.unhealthy_instances == {}

    def test_flapping_restart_retries_then_recovers(self):
        platform = build_platform(AccessMode.IMPROVED, seed=13, name="flap")
        guest = platform.add_guest("alice")
        platform.manager.save_all()
        supervisor = platform.enable_supervision(
            thresholds=HealthThresholds(degrade_after=1, quarantine_after=2),
            breaker_failure_threshold=10,
        )
        self._storm(
            platform, guest, supervisor,
            _wedge_plan(f"vtpm{guest.instance_id}", fires=8, flaps=(0,)),
        )
        record = supervisor.record_for(guest.domain.uuid)
        assert record.restarts == 2  # first flapped, second recovered
        assert record.state is HealthState.HEALTHY
        causes = [cause for _, _, cause in record.history]
        assert "probe-flap" in causes

    def test_restart_budget_exhaustion_fails_instance(self):
        platform = build_platform(AccessMode.IMPROVED, seed=14, name="fail")
        guest = platform.add_guest("alice")
        platform.manager.save_all()
        supervisor = platform.enable_supervision(
            thresholds=HealthThresholds(degrade_after=1, quarantine_after=2,
                                        max_restarts=2),
            breaker_failure_threshold=10,
        )
        self._storm(
            platform, guest, supervisor,
            _wedge_plan(f"vtpm{guest.instance_id}", fires=8,
                        flaps=(0, 1, 2, 3)),
        )
        record = supervisor.record_for(guest.domain.uuid)
        assert record.state is HealthState.FAILED
        assert record.restarts == 2
        # A failed instance refuses every ordinal, permanently.
        assert _rc(guest.frontend.transport(_pcr_read_wire())) == TPM_FAIL
        assert supervisor.settled()  # failed is a settled terminal state

    def test_restart_charges_virtual_time(self):
        platform = build_platform(AccessMode.IMPROVED, seed=15, name="time")
        guest = platform.add_guest("alice")
        platform.manager.save_all()
        supervisor = platform.enable_supervision(
            thresholds=HealthThresholds(degrade_after=1, quarantine_after=2),
            breaker_failure_threshold=10,
        )
        before = get_context().clock.now_us
        self._storm(platform, guest, supervisor,
                    _wedge_plan(f"vtpm{guest.instance_id}", fires=8))
        assert supervisor.record_for(guest.domain.uuid).restarts == 1
        # A wedge charge (30ms each) plus the restart charge moved the clock.
        assert get_context().clock.now_us - before > 60_000.0


class TestSupervisionNeutrality:
    """Fault-free supervision must charge zero extra virtual time."""

    def _run(self, supervised: bool) -> float:
        from repro.harness.builder import fresh_timing_context

        fresh_timing_context()
        platform = build_platform(AccessMode.IMPROVED, seed=21, name="neutral")
        guest = platform.add_guest("alice")
        if supervised:
            platform.enable_supervision()
        wire = _pcr_read_wire()
        start = get_context().clock.now_us
        for _ in range(200):
            guest.frontend.transport(wire)
        return get_context().clock.now_us - start

    def test_virtual_time_identical_with_and_without(self):
        assert self._run(False) == self._run(True)

    def test_probe_wire_is_read_class(self):
        from repro.core.policy import classify_ordinal

        ordinal = int.from_bytes(PROBE_WIRE[6:10], "big")
        assert classify_ordinal(ordinal) is CommandClass.READ
