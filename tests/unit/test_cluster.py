"""Unit tests for the multi-host cluster subsystem."""

import struct

import pytest

from repro.cluster import (
    AttestationReport,
    ConsistentHashRing,
    HostState,
    build_fleet,
    measure_host,
    verify_report,
)
from repro.cluster.host import Host
from repro.core.config import AccessMode
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    KIND_SITES,
    spec,
)
from repro.harness.builder import build_platform
from repro.harness.acceptance import state_digest as _state_digest
from repro.sim.timing import observe
from repro.tpm import marshal
from repro.tpm.constants import TPM_ORD_Extend, TPM_ORD_PcrRead
from repro.util.errors import ClusterError, RetryExhausted


def _pcr_read(index: int = 0) -> bytes:
    return marshal.build_command(TPM_ORD_PcrRead, struct.pack(">I", index))


def _extend(index: int, measurement: bytes) -> bytes:
    return marshal.build_command(
        TPM_ORD_Extend, struct.pack(">I", index) + measurement
    )


class TestHashRing:
    def test_candidates_deterministic_and_complete(self):
        ring = ConsistentHashRing()
        for node in ("h0", "h1", "h2"):
            ring.add(node, weight=4)
        first = ring.candidates("guest-a")
        assert sorted(first) == ["h0", "h1", "h2"]
        assert ring.candidates("guest-a") == first
        assert ring.primary("guest-a") == first[0]

    def test_removing_a_node_only_remaps_its_keys(self):
        ring = ConsistentHashRing()
        for node in ("h0", "h1", "h2", "h3"):
            ring.add(node, weight=8)
        keys = [f"guest-{i}" for i in range(64)]
        before = {k: ring.primary(k) for k in keys}
        ring.remove("h2")
        for key in keys:
            if before[key] != "h2":
                assert ring.primary(key) == before[key]
            else:
                assert ring.primary(key) != "h2"

    def test_membership_errors(self):
        ring = ConsistentHashRing()
        ring.add("h0")
        with pytest.raises(ClusterError):
            ring.add("h0")
        with pytest.raises(ClusterError):
            ring.add("h1", weight=0)
        with pytest.raises(ClusterError):
            ring.remove("h9")
        assert "h0" in ring and len(ring) == 1

    def test_new_fault_kinds_have_sites(self):
        assert KIND_SITES[FaultKind.PARTITION] == "cluster.link"
        assert KIND_SITES[FaultKind.HOST_CRASH] == "cluster.host"


class TestHost:
    def test_capacity_and_admissibility(self):
        platform = build_platform(AccessMode.IMPROVED, seed=301, name="n0")
        with pytest.raises(ClusterError):
            Host("bad", platform, capacity=0)
        host = Host("h0", platform, capacity=1)
        assert host.admissible()
        platform.add_guest("only")
        assert host.spare_capacity == 0
        assert not host.admissible()

    def test_crashed_host_cannot_attest_and_restart_needs_crash(self):
        platform = build_platform(AccessMode.IMPROVED, seed=302, name="n1")
        host = Host("h0", platform, capacity=4)
        with pytest.raises(ClusterError, match="not crashed"):
            host.hard_restart([])
        host.crash()
        assert host.state is HostState.CRASHED
        with pytest.raises(ClusterError, match="cannot attest"):
            host.attestation_report(b"n" * 20)
        with pytest.raises(ClusterError, match="already crashed"):
            host.crash()


class TestAttestation:
    def test_verify_rejects_each_mismatch(self):
        platform = build_platform(AccessMode.IMPROVED, seed=303, name="n2")
        identity = measure_host(platform.hw_client)
        report = AttestationReport(
            host_id="h0", nonce=b"n" * 20, measured_identity=identity,
            policy_epoch=3,
        )
        verify_report(report, expected_identity=identity,
                      expected_epoch=3, nonce=b"n" * 20)
        with pytest.raises(ClusterError, match="nonce"):
            verify_report(report, expected_identity=identity,
                          expected_epoch=3, nonce=b"x" * 20)
        with pytest.raises(ClusterError, match="identity"):
            verify_report(report, expected_identity="0" * 64,
                          expected_epoch=3, nonce=b"n" * 20)
        with pytest.raises(ClusterError, match="epoch"):
            verify_report(report, expected_identity=identity,
                          expected_epoch=4, nonce=b"n" * 20)

    def test_measurement_tracks_live_hardware_pcrs(self):
        platform = build_platform(AccessMode.IMPROVED, seed=304, name="n3")
        before = measure_host(platform.hw_client)
        platform.hw_client.extend(1, b"\xee" * 20)
        assert measure_host(platform.hw_client) != before


class TestSchedulerAndRouter:
    def test_placement_is_deterministic_and_recorded(self):
        fleet_a = build_fleet(num_hosts=3, seed=310, capacity=8, name="fa")
        fleet_b = build_fleet(num_hosts=3, seed=310, capacity=8, name="fb")
        names = [f"g{i}" for i in range(6)]
        placed_a = [fleet_a.add_guest(n) for n in names]
        placed_b = [fleet_b.add_guest(n) for n in names]
        assert placed_a == placed_b
        assert (fleet_a.scheduler.trail_signature()
                == fleet_b.scheduler.trail_signature())

    def test_placement_fails_closed_when_fleet_is_full(self):
        fleet = build_fleet(num_hosts=2, seed=311, capacity=1, name="ff")
        fleet.add_guest("a")
        fleet.add_guest("b")
        with pytest.raises(ClusterError, match="no admissible host"):
            fleet.add_guest("c")

    def test_router_addresses_by_name_and_fails_on_unknown(self):
        fleet = build_fleet(num_hosts=2, seed=312, capacity=8, name="fr")
        fleet.add_guest("known")
        response = fleet.router.send("known", _pcr_read())
        assert marshal.parse_response(response).return_code == 0
        with pytest.raises(ClusterError, match="no guest named"):
            fleet.router.send("ghost", _pcr_read())
        with pytest.raises(ClusterError, match="already registered"):
            fleet.add_guest("known")

    def test_crashed_host_is_unroutable_until_recovery(self):
        fleet = build_fleet(num_hosts=2, seed=313, capacity=8, name="fc")
        host_id = fleet.add_guest("pinned")
        fleet.crash_host(host_id)
        with pytest.raises(ClusterError, match="unroutable"):
            fleet.router.send("pinned", _pcr_read())
        fleet.recover_host(host_id)
        response = fleet.router.send("pinned", _pcr_read())
        assert marshal.parse_response(response).return_code == 0

    def test_router_client_survives_migration(self):
        fleet = build_fleet(num_hosts=2, seed=314, capacity=8, name="fm")
        source = fleet.add_guest("mobile")
        client = fleet.router.client_for("mobile")
        client.extend(5, b"\x5a" * 20)
        before = client.pcr_read(5)
        target = "h1" if source == "h0" else "h0"
        fleet.migrate("mobile", target)
        assert fleet.router.locate("mobile").host_id == target
        assert client.pcr_read(5) == before


class TestMigrator:
    def test_migration_preserves_state_digest(self):
        fleet = build_fleet(num_hosts=2, seed=320, capacity=8, name="mg")
        source = fleet.add_guest("payload")
        fleet.router.send("payload", _extend(7, b"\x07" * 20))
        digest = _state_digest(fleet.instance_for("payload"))
        target = "h1" if source == "h0" else "h0"
        fleet.migrate("payload", target)
        assert _state_digest(fleet.instance_for("payload")) == digest
        # the source host no longer owns a copy
        assert fleet.hosts[source].resident_count == 0

    def test_same_host_and_full_target_are_refused(self):
        fleet = build_fleet(num_hosts=2, seed=321, capacity=1, name="mr")
        source = fleet.add_guest("a")
        target = "h1" if source == "h0" else "h0"
        fleet.add_guest("b")  # fills the other host
        with pytest.raises(ClusterError, match="already lives"):
            fleet.migrate("a", source)
        with pytest.raises(ClusterError, match="not admissible"):
            fleet.migrate("a", target)

    def test_tampered_target_fails_closed(self):
        """A target whose boot chain moved after enrolment is refused
        before any state leaves the source."""
        fleet = build_fleet(num_hosts=2, seed=322, capacity=8, name="mt")
        source = fleet.add_guest("victim")
        target = "h1" if source == "h0" else "h0"
        fleet.hosts[target].platform.hw_client.extend(0, b"\xbd" * 20)
        with pytest.raises(ClusterError, match="identity"):
            fleet.migrate("victim", target)
        # fail closed: the guest keeps serving where it was
        assert fleet.router.locate("victim").host_id == source
        response = fleet.router.send("victim", _pcr_read())
        assert marshal.parse_response(response).return_code == 0

    def test_stale_policy_epoch_fails_closed(self):
        fleet = build_fleet(num_hosts=2, seed=323, capacity=8, name="me")
        source = fleet.add_guest("victim")
        target = "h1" if source == "h0" else "h0"
        fleet.bump_policy_epoch(host_ids=[source])  # target left stale
        with pytest.raises(ClusterError, match="epoch"):
            fleet.migrate("victim", target)
        assert fleet.router.locate("victim").host_id == source

    def test_partition_mid_transfer_rolls_back_and_retries(self):
        fleet = build_fleet(num_hosts=2, seed=324, capacity=8, name="mp")
        source = fleet.add_guest("mover")
        fleet.router.send("mover", _extend(3, b"\x33" * 20))
        digest = _state_digest(fleet.instance_for("mover"))
        target = "h1" if source == "h0" else "h0"
        plan = FaultPlan(
            name="cut-transfer", seed=7,
            specs=(spec(FaultKind.PARTITION, every=1, max_fires=1,
                        match={"phase": "transfer"}),),
        )
        with observe(injector=FaultInjector(plan)):
            fleet.migrate("mover", target)
        record = fleet.migrator.trail[-1]
        assert record.outcome == "moved" and record.attempts == 2
        assert fleet.router.locate("mover").host_id == target
        assert _state_digest(fleet.instance_for("mover")) == digest

    def test_persistent_partition_exhausts_and_guest_stays(self):
        fleet = build_fleet(num_hosts=2, seed=325, capacity=8, name="mx")
        source = fleet.add_guest("stuck")
        target = "h1" if source == "h0" else "h0"
        plan = FaultPlan(
            name="dead-link", seed=7,
            specs=(spec(FaultKind.PARTITION, probability=1.0,
                        match={"phase": "transfer"}),),
        )
        with observe(injector=FaultInjector(plan)):
            with pytest.raises(RetryExhausted):
                fleet.migrate("stuck", target)
        assert fleet.migrator.trail[-1].outcome == "failed"
        assert fleet.router.locate("stuck").host_id == source
        response = fleet.router.send("stuck", _pcr_read())
        assert marshal.parse_response(response).return_code == 0


class TestFleetLifecycle:
    def test_host_crash_fault_drives_crash_and_recovery(self):
        fleet = build_fleet(num_hosts=2, seed=330, capacity=8, name="fl")
        fleet.add_guest("a")
        fleet.add_guest("b")
        digests = {
            n: _state_digest(fleet.instance_for(n)) for n in ("a", "b")
        }
        plan = FaultPlan(
            name="kill-h0", seed=7,
            specs=(spec(FaultKind.HOST_CRASH, every=1, max_fires=1,
                        match={"host": "h0"}),),
        )
        with observe(injector=FaultInjector(plan)):
            crashes = fleet.poll_host_faults()
        assert crashes == 1
        assert fleet.hosts["h0"].state is HostState.UP
        for name in ("a", "b"):
            assert _state_digest(fleet.instance_for(name)) == digests[name]
            response = fleet.router.send(name, _pcr_read())
            assert marshal.parse_response(response).return_code == 0

    def test_recovery_restores_migrated_in_residents(self):
        """hard_restart must restore guests the host never created itself."""
        fleet = build_fleet(num_hosts=2, seed=331, capacity=8, name="fi")
        source = fleet.add_guest("immigrant")
        fleet.router.send("immigrant", _extend(9, b"\x99" * 20))
        target = "h1" if source == "h0" else "h0"
        fleet.migrate("immigrant", target)
        digest = _state_digest(fleet.instance_for("immigrant"))
        fleet.crash_host(target)
        fleet.recover_host(target)
        assert _state_digest(fleet.instance_for("immigrant")) == digest

    def test_rebalance_moves_guests_off_a_loaded_host(self):
        fleet = build_fleet(num_hosts=2, seed=332, capacity=8, name="fb2")
        for i in range(4):
            fleet.add_guest(f"g{i}")
        # skew the load signal hard against one host
        skewed = fleet.router.placements()["g0"]
        for _ in range(50):
            fleet.hosts[skewed].observe_service_us(5_000.0)
        moved = fleet.rebalance()
        assert all(r.source == skewed for r in moved)
        for record in moved:
            assert fleet.router.locate(record.guest).host_id == record.target
