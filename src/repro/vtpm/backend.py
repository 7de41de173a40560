"""tpmback: the driver-domain half of the vTPM split driver.

Reads the front-end's ring parameters from XenStore, maps the grant, and
forwards each command to the manager **prefixed with an instance number**
— which in stock Xen is whatever the backend's configuration says.  That
configuration is exactly what the rogue re-binding attack edits, so the
backend exposes ``rebind`` to let the attack toolkit do what a compromised
Dom0 would do.  In the improved regime ``rebind`` fails closed: a new
instance number is accepted only if the target instance is bound to the
very identity this ring's front-end domain measures to.

A backend can additionally be placed under supervision
(:meth:`attach_supervision`): the supervisor then issues admission
verdicts at the ring, observes every forwarded command's outcome, and
drives quarantine/restart when the instance goes bad.  Unsupervised
backends keep the exact original behaviour.
"""

from __future__ import annotations

import functools

from repro.faults import injector as _injector
from repro.faults import with_retry
from repro.obs.trace import traced
from repro.resilience.breaker import BreakerState
from repro.resilience.health import HealthState
from repro.sim import timing as _timing
from repro.sim.timing import get_context
from repro.util.errors import IdentityError, RetryExhausted, VtpmError
from repro.vtpm.frontend import VtpmFrontend
from repro.vtpm.manager import VtpmManager
from repro.xen.hypervisor import Xen


class VtpmBackend:
    """One back-end connection: (guest ring) → (manager, instance id)."""

    #: the owning :class:`~repro.resilience.supervisor.Supervisor`, if any
    supervision = None
    #: per-guest supervision objects, cached here by ``Supervisor.attach``
    #: so the per-command hooks skip the uuid dict lookups
    _sup_record = None
    _sup_breaker = None
    _sup_admission = None
    #: flattened per-instance admission constants (see Supervisor.attach)
    _sup_alpha = 0.0
    _sup_deadline_us = 0.0
    _sup_admit_fast = False

    def __init__(
        self,
        xen: Xen,
        manager: VtpmManager,
        frontend: VtpmFrontend,
        instance_id: int,
    ) -> None:
        self.xen = xen
        self.manager = manager
        self.frontend = frontend
        self.instance_id = instance_id
        self.front_domid = frontend.guest.domid
        # Read the handshake nodes, as the real driver does.
        ring_ref = int(xen.store.read(0, f"{frontend.device_path}/ring-ref",
                                      privileged=True))
        if ring_ref != frontend.ring.gref:
            raise VtpmError("xenstore ring-ref does not match the front-end ring")
        frontend.ring.connect_backend(self._forward, self._forward_batch)
        # Record the binding where xend kept it.
        xen.store.write(
            0,
            f"/local/domain/0/backend/vtpm/{self.front_domid}/0/instance",
            str(instance_id),
            privileged=True,
        )
        frontend.mark_connected()

    # -- supervision -------------------------------------------------------------

    def attach_supervision(self, supervisor) -> None:
        """Route this ring's frames through the supervisor's admission
        control and report every forwarded outcome back to it."""
        self.supervision = supervisor
        self.frontend.ring.set_admission(
            functools.partial(supervisor.admit, self),
            functools.partial(supervisor.admit_one, self),
        )

    # -- the forwarding path --------------------------------------------------------

    @traced("backend.forward", lambda self, wire: {
        "instance": self.instance_id})
    def _forward(self, wire: bytes) -> bytes:
        """Prefix the configured instance number and hand to the manager.

        ``front_domid`` comes from the ring itself (hypervisor ground
        truth); ``instance_id`` is backend configuration (attacker-editable
        in the baseline threat model).

        Transient faults below the manager (an aborted device transaction)
        abort the command *before* it touches TPM state, so the back-end
        resends the identical wire bytes with bounded virtual-time backoff
        — the real driver's interrupt-retry path.  The backoff is jittered
        per instance so a storm hitting many instances does not retry in
        lockstep.  A fault that outlives the budget degrades into a
        ``TPM_FAIL`` frame, never a dead ring.
        """
        supervisor = self.supervision
        # The latency clock read exists only for the supervisor's
        # deadline watchdog; the unsupervised hot path skips it.
        start_us = (
            _timing._current_context.clock._now_us
            if supervisor is not None else 0.0
        )
        if _injector._current_injector is None:
            # Fault-free fast path: handle_command can only raise an
            # injected fault through the ambient injector, so with no
            # injector installed the retry envelope (clock read, loop
            # frame, backoff bookkeeping) is pure overhead.
            response = self.manager.handle_command(
                self.front_domid, self.instance_id, wire,
                self.frontend.locality,
            )
            if supervisor is not None:
                elapsed_us = (
                    _timing._current_context.clock._now_us - start_us
                )
                record = self._sup_record
                breaker = self._sup_breaker
                if (
                    record is not None
                    and record.state is HealthState.HEALTHY
                    and breaker.state is BreakerState.CLOSED
                    and elapsed_us <= self._sup_deadline_us
                    and len(response) >= 10
                    and response.startswith(b"\x00\x00\x00\x00", 6)
                ):
                    # Inlined all-green observation (see
                    # Supervisor.observe_response): EWMA update plus the
                    # exact success-streak assignments the slow path makes
                    # when everything is healthy.
                    admission = self._sup_admission
                    alpha = self._sup_alpha
                    if alpha > 0.0:
                        admission.service_estimate_us += alpha * (
                            elapsed_us - admission.service_estimate_us
                        )
                    breaker.consecutive_failures = 0
                    record.consecutive_failures = 0
                    record.consecutive_successes += 1
                else:
                    supervisor.observe_response(
                        self, wire, response, elapsed_us
                    )
            return response
        try:
            response = with_retry(
                self.manager.handle_command,
                self.front_domid, self.instance_id, wire,
                self.frontend.locality,
                site="vtpm.backend.forward",
                jitter_token=self.instance_id,
            )
        except RetryExhausted as exc:
            if supervisor is not None:
                supervisor.on_exhausted(self, exc)
            return self.manager.fault_response(self.instance_id, exc)
        if supervisor is not None:
            supervisor.observe_response(
                self, wire, response,
                get_context().clock.now_us - start_us,
            )
        return response

    @traced("backend.forward_batch", lambda self, wires: {
        "instance": self.instance_id, "frames": len(wires)})
    def _forward_batch(self, wires: list) -> list:
        """Hand a whole ring batch to the manager in one call.

        The manager applies the bounded-retry envelope per command inside
        the batch, so this path has the same fault-degradation behaviour
        as :meth:`_forward` — just one ``vtpm.dispatch`` demux for the lot.
        Under supervision each frame's outcome is observed with the
        batch-average latency (individual frames are not separately
        clocked inside one notify).
        """
        supervisor = self.supervision
        start_us = (
            get_context().clock.now_us if supervisor is not None else 0.0
        )
        responses = self.manager.handle_batch(
            self.front_domid, self.instance_id, wires,
            locality=self.frontend.locality,
        )
        if supervisor is not None and wires:
            per_frame_us = (
                get_context().clock.now_us - start_us
            ) / len(wires)
            for wire, response in zip(wires, responses):
                supervisor.observe_response(
                    self, wire, response, per_frame_us
                )
        return responses

    # -- re-binding (the attack knob, now fail-closed) -------------------------------

    def rebind(self, new_instance_id: int) -> None:
        """Point this connection at a different instance.

        This is the knob a compromised Dom0 turns in the rogue re-binding
        attack — and in the baseline regime it still works exactly that
        way.  When the target instance carries a measured-identity binding
        (improved regime), the backend re-checks it here: the ring's
        front-end domain must *currently measure* to the identity the
        target instance is bound to.  A mismatch raises — fail closed —
        and is reported to the monitor for the audit trail; the old
        binding stays in force.
        """
        manager = self.manager
        target = manager._instances.get(new_instance_id)
        if (
            target is not None
            and target.bound_identity_hex is not None
            and manager.identities is not None
        ):
            subject = f"dom{self.front_domid}"
            try:
                identity = manager.identities.verify_current(
                    self.frontend.guest
                )
                subject = identity.hex
            except IdentityError as exc:
                reason = (
                    f"rebind refused: instance {new_instance_id} is bound "
                    f"to identity {target.bound_identity_hex[:12]}… but the "
                    f"front-end identity is unverifiable: {exc}"
                )
                manager.monitor.on_rebind_denied(
                    subject, new_instance_id, reason
                )
                raise VtpmError(reason) from None
            if identity.hex != target.bound_identity_hex:
                reason = (
                    f"rebind refused: instance {new_instance_id} is bound "
                    f"to identity {target.bound_identity_hex[:12]}…, ring "
                    f"front-end dom{self.front_domid} measures to "
                    f"{identity.hex[:12]}…"
                )
                manager.monitor.on_rebind_denied(
                    subject, new_instance_id, reason
                )
                raise VtpmError(reason)
        self.instance_id = new_instance_id
        self.xen.store.write(
            0,
            f"/local/domain/0/backend/vtpm/{self.front_domid}/0/instance",
            str(new_instance_id),
            privileged=True,
        )
        if self.supervision is not None:
            self.supervision.on_rebind(self, new_instance_id)

    def disconnect(self) -> None:
        self.frontend.ring.disconnect_backend()


def attach_vtpm(
    xen: Xen, manager: VtpmManager, guest, backend_domid: int = 0,
    profile=None,
) -> tuple[VtpmFrontend, VtpmBackend]:
    """Full attach path: create instance, front-end, back-end, handshake."""
    instance = manager.create_instance(guest, profile=profile)
    frontend = VtpmFrontend(xen, guest, backend_domid)
    backend = VtpmBackend(xen, manager, frontend, instance.instance_id)
    return frontend, backend
