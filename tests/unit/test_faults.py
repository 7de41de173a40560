"""Unit tests for the fault-injection subsystem itself: plans, the
injector's scheduling/observability, and the shared retry loop."""

import pytest

from repro.core.audit import AuditLog
from repro.faults import (
    DEFAULT_ATTEMPTS,
    KIND_SITES,
    FaultInjector,
    FaultKind,
    FaultPlan,
    fire,
    spec,
    with_retry,
)
from repro.sim.timing import get_context, observe
from repro.util.errors import FaultInjected, RetryExhausted, SimulationError


def _plan(*specs, seed=3, name="unit-plan"):
    return FaultPlan(specs=tuple(specs), seed=seed, name=name)


class TestFaultSpec:
    def test_exactly_one_schedule_required(self):
        with pytest.raises(SimulationError):
            spec(FaultKind.RING_STALL)
        with pytest.raises(SimulationError):
            spec(FaultKind.RING_STALL, every=2, at=(1,))

    def test_every_schedule_with_offset(self):
        s = spec(FaultKind.RING_STALL, every=3, offset=2)
        assert [i for i in range(10) if s.due_at(i)] == [2, 5, 8]

    def test_at_schedule(self):
        s = spec(FaultKind.DEVICE_TRANSIENT, at=(0, 4))
        assert [i for i in range(6) if s.due_at(i)] == [0, 4]

    def test_probability_defers_to_drbg(self):
        s = spec(FaultKind.STORAGE_ENOSPC, probability=0.5)
        assert s.due_at(0) is None

    def test_invalid_probability_rejected(self):
        with pytest.raises(SimulationError):
            spec(FaultKind.STORAGE_ENOSPC, probability=1.5)

    def test_match_globbing(self):
        s = spec(FaultKind.DEVICE_TRANSIENT, every=1, match={"device": "vtpm*"})
        assert s.matches_context({"device": "vtpm7"})
        assert not s.matches_context({"device": "hwtpm"})
        assert not s.matches_context({})

    def test_every_kind_has_a_site(self):
        for kind in FaultKind:
            assert kind in KIND_SITES


class TestFaultInjector:
    def test_fires_on_schedule_and_counts(self):
        plan = _plan(spec(FaultKind.DEVICE_TRANSIENT, every=2))
        injector = FaultInjector(plan)
        fired = [
            injector.fire("tpm.device.execute", device="vtpm1") is not None
            for _ in range(6)
        ]
        assert fired == [True, False, True, False, True, False]
        assert injector.fault_counts == {"device-transient": 3}

    def test_max_fires_caps_a_spec(self):
        plan = _plan(spec(FaultKind.DEVICE_TRANSIENT, every=1, max_fires=2))
        injector = FaultInjector(plan)
        events = [injector.fire("tpm.device.execute") for _ in range(5)]
        assert sum(e is not None for e in events) == 2

    def test_unmatched_context_spares_the_call(self):
        plan = _plan(
            spec(FaultKind.DEVICE_TRANSIENT, every=1, match={"device": "vtpm*"})
        )
        injector = FaultInjector(plan)
        assert injector.fire("tpm.device.execute", device="hwtpm") is None
        assert injector.fire("tpm.device.execute", device="vtpm3") is not None

    def test_unknown_site_is_silent(self):
        injector = FaultInjector(_plan(spec(FaultKind.RING_STALL, every=1)))
        assert injector.fire("vtpm.storage.write") is None

    def test_probabilistic_schedule_is_seed_deterministic(self):
        plan = _plan(spec(FaultKind.DEVICE_TRANSIENT, probability=0.3), seed=11)
        runs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            for _ in range(50):
                injector.fire("tpm.device.execute")
            runs.append(injector.event_signature())
        assert runs[0] == runs[1]
        assert 0 < len(runs[0]) < 50

    def test_event_signature_is_time_free(self):
        plan = _plan(spec(FaultKind.DEVICE_TRANSIENT, at=(1,)))
        first = FaultInjector(plan)
        get_context().clock.advance(12_345.0)
        second = FaultInjector(plan)
        for injector in (first, second):
            for _ in range(3):
                injector.fire("tpm.device.execute")
        assert first.event_signature() == second.event_signature()

    def test_events_mirror_into_audit_and_metrics(self):
        audit = AuditLog()
        plan = _plan(spec(FaultKind.RING_STALL, at=(0,)))
        injector = FaultInjector(plan, audit=audit)
        injector.fire("xen.ring.notify", port=3)
        injector.note_retry("xen.ring.notify")
        injector.note_recovery("xen.ring.notify", 42.0)
        operations = [record.operation for record in audit.records()]
        assert "FAULT:ring-stall" in operations
        assert "FAULT-RECOVERY" in operations
        assert audit.verify_chain()
        assert injector.fault_counts["ring-stall"] == 1
        assert injector.retries == 1
        assert injector.recovery_us == 42.0

    def test_report_summarises_the_run(self):
        plan = _plan(spec(FaultKind.DEVICE_TRANSIENT, every=1, max_fires=2))
        injector = FaultInjector(plan)
        for _ in range(4):
            injector.fire("tpm.device.execute")
        report = injector.report()
        assert report["faults"] == {"device-transient": 2}
        assert report["total_faults"] == 2
        assert report["plan"] == "unit-plan"


class TestAmbientInstallation:
    def test_no_injector_means_no_faults(self):
        assert get_context().injector is None
        assert fire("tpm.device.execute") is None

    def test_scope_installs_and_restores(self):
        injector = FaultInjector(_plan(spec(FaultKind.RING_STALL, every=1)))
        with observe(injector=injector):
            assert get_context().injector is injector
            assert fire("xen.ring.notify") is not None
        assert get_context().injector is None
        assert fire("xen.ring.notify") is None

    def test_scopes_nest(self):
        outer = FaultInjector(_plan())
        inner = FaultInjector(_plan())
        with observe(injector=outer):
            with observe(injector=inner):
                assert get_context().injector is inner
            assert get_context().injector is outer
        assert get_context().injector is None


class TestWithRetry:
    def test_success_needs_no_budget(self):
        assert with_retry(lambda: 42, site="unit") == 42

    def test_transient_fault_retried_and_charged(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise FaultInjected("device-transient", "unit", transient=True)
            return "ok"

        before = get_context().clock.now_us
        assert with_retry(flaky, site="unit") == "ok"
        assert calls["n"] == 3
        # Two backoffs: 250 + 500 virtual microseconds.
        assert get_context().clock.now_us - before >= 750.0

    def test_non_transient_fault_propagates_immediately(self):
        def crash():
            raise FaultInjected("storage-torn-write", "unit", transient=False)

        with pytest.raises(FaultInjected):
            with_retry(crash, site="unit")

    def test_exhaustion_raises_retry_exhausted(self):
        def always():
            raise FaultInjected("device-transient", "unit", transient=True)

        with pytest.raises(RetryExhausted) as err:
            with_retry(always, site="unit")
        assert err.value.attempts == DEFAULT_ATTEMPTS
        assert isinstance(err.value.last, FaultInjected)

    def test_other_exceptions_pass_through(self):
        def boom():
            raise ValueError("unrelated")

        with pytest.raises(ValueError):
            with_retry(boom, site="unit")

    def test_recovery_noted_on_ambient_injector(self):
        injector = FaultInjector(_plan())
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise FaultInjected("device-transient", "unit", transient=True)
            return True

        with observe(injector=injector):
            assert with_retry(flaky, site="unit")
        assert injector.retries == 1
        assert injector.recoveries == 1
