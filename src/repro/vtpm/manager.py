"""The vTPM manager daemon.

Runs inside the manager domain (Dom0 in the stock design), owns every
vTPM instance, and demultiplexes command packets arriving from back-end
drivers.  :meth:`handle_command` is the paper's interposition point: the
installed :class:`~repro.core.monitor.Monitor` sees every packet before
an instance does.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.core.config import AccessControlConfig, AccessMode
from repro.core.identity import IdentityRegistry
from repro.core.monitor import AccessControlMonitor, BaselineMonitor, Monitor
from repro.core.protection import MemoryProtector
from repro.faults import with_retry
from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace
from repro.obs.trace import traced
from repro.sim import timing as _timing
from repro.sim.timing import charge
from repro.tpm import marshal
from repro.tpm.constants import TPM_AUTHFAIL, TPM_FAIL
from repro.util.errors import FaultInjected, RetryExhausted, VtpmError
from repro.vtpm.instance import VtpmInstance
from repro.vtpm.storage import VtpmStorage
from repro.xen.domain import Domain
from repro.xen.hypervisor import Xen

_VTPM_BATCHES = obs_counters.counter("vtpm.batches")
_VTPM_BATCHED_COMMANDS = obs_counters.counter("vtpm.batched_commands")
_VTPM_FAULT_RESPONSES = obs_counters.counter("vtpm.fault_responses")


class VtpmManager:
    """vtpm_managerd: instance lifecycle plus the command path."""

    def __init__(
        self,
        xen: Xen,
        manager_domid: int,
        storage: VtpmStorage,
        monitor: Monitor,
        *,
        mode: AccessMode,
        identities: Optional[IdentityRegistry] = None,
        protector: Optional[MemoryProtector] = None,
        key_bits: int = 1024,
        nv_capacity: Optional[int] = None,
        rng=None,
    ) -> None:
        self.xen = xen
        self.manager_domid = manager_domid
        self.storage = storage
        self.monitor = monitor
        self.mode = mode
        self.identities = identities
        self.protector = protector
        self.key_bits = key_bits
        self.nv_capacity = nv_capacity
        self._rng = rng if rng is not None else xen.rng.fork("vtpm-manager")
        self._instances: Dict[int, VtpmInstance] = {}
        self._by_vm: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self.commands_dispatched = 0
        self.commands_denied = 0
        self.faults_surfaced = 0

    # -- instance lifecycle ------------------------------------------------------

    def create_instance(self, vm: Domain, profile=None) -> VtpmInstance:
        """Create and bind a vTPM for a guest domain.

        ``profile`` optionally narrows the policy grant installed for the
        owning identity (see :mod:`repro.core.profiles`).
        """
        if vm.uuid in self._by_vm:
            raise VtpmError(f"VM {vm.name} already has vTPM instance "
                            f"{self._by_vm[vm.uuid]}")
        charge("vtpm.instance.create")
        identity_hex: Optional[str] = None
        if self.mode is AccessMode.IMPROVED and self.identities is not None:
            identity = self.identities.lookup(vm.domid) or self.identities.register(vm)
            identity_hex = identity.hex
        instance = VtpmInstance(
            instance_id=next(self._ids),
            vm_uuid=vm.uuid,
            rng=self._rng.fork(f"vtpm-{vm.uuid}"),
            memory=self.xen.memory,
            manager_domid=self.manager_domid,
            key_bits=self.key_bits,
            bound_identity_hex=identity_hex,
            nv_capacity=self.nv_capacity,
        )
        self._instances[instance.instance_id] = instance
        self._by_vm[vm.uuid] = instance.instance_id
        if self.protector is not None:
            self.protector.protect_region(
                ("vtpm", instance.instance_id), instance.state_region
            )
        self.monitor.on_instance_created(
            instance.instance_id, identity_hex or "", profile=profile
        )
        # Publish the binding the way xend did, for tooling parity.  A
        # stub-domain manager is unprivileged and publishes under its own
        # XenStore subtree instead of the global /vtpm.
        manager_privileged = self.xen.domain(self.manager_domid).privileged
        binding_path = (
            f"/vtpm/{vm.uuid}/instance"
            if manager_privileged
            else f"/local/domain/{self.manager_domid}/vtpm/{vm.uuid}/instance"
        )
        self.xen.store.write(
            self.manager_domid,
            binding_path,
            str(instance.instance_id),
            privileged=manager_privileged,
        )
        return instance

    def destroy_instance(self, instance_id: int, persist: bool = True) -> None:
        instance = self.instance(instance_id)
        if persist:
            self.save_instance(instance_id)
        if self.protector is not None:
            self.protector.unprotect(("vtpm", instance_id))
        instance.teardown()
        self.monitor.on_instance_destroyed(instance_id)
        del self._instances[instance_id]
        self._by_vm.pop(instance.vm_uuid, None)

    def instance(self, instance_id: int) -> VtpmInstance:
        charge("vtpm.instance.lookup")
        try:
            return self._instances[instance_id]
        except KeyError:
            raise VtpmError(f"no vTPM instance {instance_id}") from None

    def instance_for_vm(self, vm_uuid: str) -> VtpmInstance:
        instance_id = self._by_vm.get(vm_uuid)
        if instance_id is None:
            raise VtpmError(f"VM {vm_uuid} has no vTPM instance")
        return self._instances[instance_id]

    @property
    def instance_count(self) -> int:
        return len(self._instances)

    def instances(self) -> list[VtpmInstance]:
        return [self._instances[i] for i in sorted(self._instances)]

    # -- the command path (where the monitor interposes) ----------------------------

    def handle_command(
        self, caller_domid: int, instance_id: int, wire: bytes, locality: int = 0
    ) -> bytes:
        """One packet from a back-end: authorize, execute, respond.

        ``caller_domid`` is hypervisor ground truth (the ring's front-end
        domain), not a backend claim; ``instance_id`` *is* a backend claim,
        which is exactly what the monitor's binding check validates.
        """
        charge("vtpm.dispatch")
        return self._dispatch_one(caller_domid, instance_id, wire, locality)

    def handle_batch(
        self,
        caller_domid: int,
        instance_id: int,
        wires: list,
        locality: int = 0,
    ) -> list:
        """A batch of packets that arrived on one ring notify.

        The per-notify demux cost (``vtpm.dispatch``) is charged once for
        the whole batch — that amortization is the point of batching — but
        **every** command is still individually authorized, so a policy
        change or a rogue re-bind mid-batch is caught on the very next
        frame.  Each wire gets the back-end's usual bounded-retry envelope;
        a command that exhausts its retries degrades to a fault response
        without poisoning the rest of the batch.
        """
        charge("vtpm.dispatch")
        _VTPM_BATCHES.inc()
        _VTPM_BATCHED_COMMANDS.add(len(wires))
        # The injector cannot be set or cleared mid-batch — the driver loop
        # is synchronous — so one check covers the whole notify.  Without
        # an injector, _dispatch_one can never raise an injected fault and
        # the per-wire retry envelope is pure overhead.
        if _timing._current_context.injector is None:
            return [
                self._dispatch_one(caller_domid, instance_id, wire, locality)
                for wire in wires
            ]
        responses = []
        for wire in wires:
            try:
                responses.append(
                    with_retry(
                        self._dispatch_one, caller_domid, instance_id,
                        wire, locality, site="vtpm.manager.batch",
                        jitter_token=instance_id,
                    )
                )
            except RetryExhausted as exc:
                responses.append(self.fault_response(instance_id, exc))
        return responses

    @traced("manager.dispatch", lambda self, domid, instance_id, *rest: {
        "instance": instance_id})
    def _dispatch_one(
        self, caller_domid: int, instance_id: int, wire: bytes, locality: int = 0
    ) -> bytes:
        """The monitor-interposed command path for one already-demuxed wire."""
        self.commands_dispatched += 1
        try:
            instance = self.instance(instance_id)
        except VtpmError:
            return marshal.build_response(TPM_AUTHFAIL)
        caller = self.xen.domain(caller_domid)
        verdict = self.monitor.authorize(
            caller, instance_id, instance.bound_identity_hex, wire
        )
        if not verdict.allowed:
            self.commands_denied += 1
            return marshal.build_response(TPM_AUTHFAIL)
        self._load_working_registers(instance)
        try:
            return instance.execute(wire, locality, verdict.parsed)
        except FaultInjected as exc:
            if exc.transient:
                raise  # the back-end's bounded retry resends the same wire
            return self.fault_response(instance_id, exc)
        finally:
            if self.protector is not None and self.protector.enabled:
                self._scrub_working_registers()

    def fault_response(self, instance_id: int, exc: Exception) -> bytes:
        """Graceful degradation: a subsystem failure becomes a ``TPM_FAIL``
        response frame plus an audit event — never a dead manager."""
        self.faults_surfaced += 1
        _VTPM_FAULT_RESPONSES.inc()
        obs_trace.span_event("fault_degraded", instance=instance_id,
                             error=str(exc))
        self.monitor.on_fault(instance_id, exc)
        return marshal.build_response(TPM_FAIL)

    # -- CPU-residency modelling ---------------------------------------------------

    def _load_working_registers(self, instance: VtpmInstance) -> None:
        """Model crypto in flight: key fragments transit the manager's vCPU.

        Real RSA code schedules private-key material through registers;
        this puts the first 32 bytes of the instance EK into rax..rdx so a
        vCPU dump sees what a real dump would see.  The register values are
        pure functions of the (immutable) EK, so they are computed once per
        instance and bulk-assigned on every subsequent command.
        """
        vcpu = self.xen.domain(self.manager_domid).vcpu
        packed = instance.working_registers
        if packed is None:
            ek = instance.device.state.keys.ek
            if ek is None:
                return
            fragment = ek.keypair.serialize_private()[:32]
            packed = {
                reg: int.from_bytes(fragment[i * 8 : (i + 1) * 8], "big")
                for i, reg in enumerate(("rax", "rbx", "rcx", "rdx"))
            }
            instance.working_registers = packed
        vcpu.registers.update(packed)

    _ZERO_REGISTERS = {"rax": 0, "rbx": 0, "rcx": 0, "rdx": 0}

    def _scrub_working_registers(self) -> None:
        """The improved manager zeroes key-bearing registers after use."""
        vcpu = self.xen.domain(self.manager_domid).vcpu
        vcpu.registers.update(self._ZERO_REGISTERS)

    # -- persistence ---------------------------------------------------------------------

    def save_instance(self, instance_id: int) -> str:
        instance = self.instance(instance_id)
        return self.storage.save_instance_state(
            instance.vm_uuid,
            instance.bound_identity_hex,
            instance.device.save_state_blob(),
        )

    def save_all(self) -> int:
        for instance_id in list(self._instances):
            self.save_instance(instance_id)
        return len(self._instances)

    def restore_instance(self, vm: Domain) -> VtpmInstance:
        """Re-create a guest's vTPM from persistent state after reboot."""
        identity_hex: Optional[str] = None
        if self.mode is AccessMode.IMPROVED and self.identities is not None:
            identity = self.identities.lookup(vm.domid) or self.identities.register(vm)
            identity_hex = identity.hex
        blob = self.storage.load_instance_state(vm.uuid, identity_hex)
        charge("vtpm.instance.create")
        instance = VtpmInstance.__new__(VtpmInstance)
        instance.instance_id = next(self._ids)
        instance.vm_uuid = vm.uuid
        instance.bound_identity_hex = identity_hex
        from repro.tpm.device import TpmDevice

        # Restore is recovery code: it must itself survive transient device
        # faults (the resumed TPM runs a Startup command on power-on).
        instance.device = with_retry(
            lambda: TpmDevice.from_state_blob(
                blob, rng=self._rng.fork(f"vtpm-restore-{vm.uuid}"),
                name=f"vtpm{instance.instance_id}",
            ),
            site="vtpm.manager.restore",
        )
        instance.commands_handled = 0
        frames = self.xen.memory.allocate(
            self.manager_domid, max(1, (len(blob) + 4 + 4095) // 4096)
        )
        from repro.xen.memory import MemoryRegion

        instance.state_region = MemoryRegion(self.xen.memory, self.manager_domid, frames)
        instance._memory = self.xen.memory
        instance.sync_to_memory()
        self._instances[instance.instance_id] = instance
        self._by_vm[vm.uuid] = instance.instance_id
        if self.protector is not None:
            self.protector.protect_region(
                ("vtpm", instance.instance_id), instance.state_region
            )
        self.monitor.on_instance_created(instance.instance_id, identity_hex or "")
        return instance
