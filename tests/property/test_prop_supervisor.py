"""Property tests for the supervision layer (satellite of the resilience
PR).

Two levels:

* **State machine** — a randomized stream of watchdog signals plus
  supervisor-style restart outcomes can never produce a transition
  outside :data:`~repro.resilience.health.LEGAL_TRANSITIONS`, and
  ``failed`` is inescapable.

* **Platform ledger** — a randomized interleaving of single commands,
  oversized bursts, wedge storms and probe flaps against a supervised
  platform yields exactly one well-formed response per submitted frame
  (shed, refused, degraded or served — never a silent drop), while the
  guest's health history stays inside the legal transition set.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AccessMode
from repro.faults import FaultInjector, FaultKind, FaultPlan, spec
from repro.harness.builder import build_platform, fresh_timing_context
from repro.resilience import (
    LEGAL_TRANSITIONS,
    HealthState,
    HealthThresholds,
    InstanceHealth,
)
from repro.sim.timing import observe
from repro.tpm import marshal
from repro.tpm.constants import (
    TPM_AUTHFAIL,
    TPM_FAIL,
    TPM_ORD_Extend,
    TPM_ORD_PcrRead,
    TPM_RESOURCES,
    TPM_SUCCESS,
)
from repro.util.errors import ReproError

_KNOWN_CODES = {TPM_SUCCESS, TPM_FAIL, TPM_AUTHFAIL, TPM_RESOURCES}


def _pcr_read_wire(index: int = 0) -> bytes:
    return marshal.build_command(TPM_ORD_PcrRead, index.to_bytes(4, "big"))


def _extend_wire(index: int = 0) -> bytes:
    return marshal.build_command(
        TPM_ORD_Extend, index.to_bytes(4, "big") + b"\x5a" * 20
    )


# -- level 1: the bare state machine ------------------------------------------------

_SIGNAL = st.one_of(
    st.sampled_from(["retry-exhausted", "tpm-fail", "deadline-miss",
                     "success"]),
    # Supervisor-style restart outcomes, applied only when quarantined.
    st.sampled_from(["restart-ok", "restart-flap", "restart-fail"]),
)


@settings(max_examples=200, deadline=None)
@given(
    signals=st.lists(_SIGNAL, min_size=1, max_size=60),
    degrade_after=st.integers(1, 3),
    quarantine_after=st.integers(2, 6),
    recover_after=st.integers(1, 4),
)
def test_signal_streams_never_leave_the_legal_transition_set(
    signals, degrade_after, quarantine_after, recover_after
):
    record = InstanceHealth(
        "vm-prop", 1,
        thresholds=HealthThresholds(
            degrade_after=degrade_after,
            quarantine_after=max(quarantine_after, degrade_after + 1),
            recover_after=recover_after,
        ),
    )
    failed_seen = False
    for signal in signals:
        if record.state is HealthState.QUARANTINED:
            # Only the supervisor's restart legs leave quarantine.
            if signal == "restart-ok":
                record.transition(HealthState.RESTARTING, "prop")
                record.transition(HealthState.HEALTHY, "prop")
            elif signal == "restart-flap":
                record.transition(HealthState.RESTARTING, "prop")
                record.transition(HealthState.QUARANTINED, "prop")
            elif signal == "restart-fail":
                record.transition(HealthState.RESTARTING, "prop")
                record.transition(HealthState.FAILED, "prop")
            else:
                # Watchdog signals in quarantine are recorded, not acted on.
                if signal == "success":
                    record.note_success()
                else:
                    record.note_failure(signal)
                assert record.state in (HealthState.QUARANTINED,)
        elif record.terminal:
            failed_seen = True
            # Nothing a signal does may resurrect a failed instance.
            if signal == "success":
                record.note_success()
            elif signal in ("retry-exhausted", "tpm-fail", "deadline-miss"):
                record.note_failure(signal)
            assert record.state is HealthState.FAILED
        else:
            if signal == "success":
                record.note_success()
            elif signal in ("retry-exhausted", "tpm-fail", "deadline-miss"):
                record.note_failure(signal)
            # restart-* outside quarantine is a supervisor no-op.
    # The invariant: every recorded transition is in the closed set.
    for frm, to, _cause in record.history:
        assert (frm, to) in LEGAL_TRANSITIONS
    if failed_seen:
        assert record.state is HealthState.FAILED


# -- level 2: the full supervised platform -----------------------------------------

_ACTION = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 15)),
    st.tuples(st.just("extend"), st.integers(0, 15)),
    st.tuples(st.just("burst"), st.integers(2, 24)),
)


@settings(max_examples=15, deadline=None)
@given(
    actions=st.lists(_ACTION, min_size=5, max_size=40),
    wedge_at=st.sets(st.integers(0, 120), max_size=30),
    flap_at=st.sets(st.integers(0, 3), max_size=2),
    seed=st.integers(0, 2**16),
)
def test_every_submitted_frame_gets_exactly_one_wellformed_response(
    actions, wedge_at, flap_at, seed
):
    fresh_timing_context()
    platform = build_platform(AccessMode.IMPROVED, seed=seed, name="prop-sup")
    guest = platform.add_guest("prop-guest")
    platform.manager.save_all()  # the checkpoint restarts restore from
    supervisor = platform.enable_supervision(
        thresholds=HealthThresholds(degrade_after=1, quarantine_after=2),
        breaker_cooldown_us=500.0,
    )
    specs = []
    if wedge_at:
        specs.append(
            spec(FaultKind.WEDGE, at=tuple(sorted(wedge_at)),
                 match={"device": f"vtpm{guest.instance_id}"})
        )
    specs.append(
        spec(FaultKind.FLAP, at=tuple(sorted(flap_at)) or (10_000,))
    )
    injector = FaultInjector(
        FaultPlan(name="prop", seed=seed, specs=tuple(specs)),
        audit=platform.audit,
    )

    submitted = 0
    responses = []
    with observe(injector=injector):
        for action in actions:
            if action[0] == "read":
                submitted += 1
                responses.append(
                    guest.frontend.transport(_pcr_read_wire(action[1]))
                )
            elif action[0] == "extend":
                submitted += 1
                responses.append(
                    guest.frontend.transport(_extend_wire(action[1]))
                )
            else:
                burst = [_pcr_read_wire(i % 16) for i in range(action[1])]
                submitted += len(burst)
                responses.extend(guest.frontend.transport_batch(burst))
        supervisor.drain()

    # Exactly one response per submitted frame...
    assert len(responses) == submitted
    # ...and every one is a well-formed frame with a known return code.
    for response in responses:
        try:
            parsed = marshal.parse_response(response)
        except ReproError as exc:  # pragma: no cover - failure reporting
            raise AssertionError(f"malformed response {response!r}: {exc}")
        assert parsed.return_code in _KNOWN_CODES

    # The health history stayed inside the legal set, whatever happened.
    record = supervisor.record_for(guest.domain.uuid)
    for frm, to, _cause in record.history:
        assert (frm, to) in LEGAL_TRANSITIONS
    # And the run settled: healthy with a closed breaker, or failed.
    assert supervisor.settled()
