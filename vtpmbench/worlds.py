"""The benchmark's three workloads, each a freshly built system plus a
seeded, endless stream of operations with their output checks.

Everything here drives the program through public calls only.  A world is
built from the workload seed and nothing else, so two worlds built from
the same seed receive byte-identical inputs; the ambient virtual clock is
replaced on every build, so only the newest world may run operations.

An operation (:class:`Op`) is split in two: ``run`` is the part the
driver times, ``check`` compares its result (or the exception it raised)
with the benchmark's own shadow state and returns ``None`` or a failure
message.  Shadows are updated only by checks, from expected values, never
from what the program returned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from typing import Callable, Iterator, List, Optional

from repro.cluster.fleet import build_fleet
from repro.core.config import AccessMode
from repro.core.policy import CommandClass
from repro.core.profiles import PROFILE_MONITOR
from repro.crypto.random_source import RandomSource
from repro.harness.builder import build_platform, fresh_timing_context
from repro.sim.timing import TimingContext, context_scope
from repro.tpm import marshal
from repro.tpm.client import TpmClient
from repro.tpm.constants import (
    TPM_AUTHFAIL,
    TPM_KEY_SIGNING,
    TPM_KH_SRK,
    TPM_ORD_Extend,
    TPM_ORD_PcrRead,
)
from repro.util.bytesio import ByteWriter
from repro.util.errors import TpmError
from repro.workloads.mixes import (
    COUNTER_AUTH,
    DATA_AUTH,
    KEY_AUTH,
    OWNER_AUTH,
    SRK_AUTH,
    GuestSession,
)

#: the seed every platform and fleet is built with.  The workload seed
#: drives the traffic (op order, targets, payloads, client nonces); the
#: system under test, its keys included, is built the same way for every
#: seed, so set-up does the same key-generation work on every run.
SYSTEM_SEED = 2010

#: the PCRs the workloads extend and read (a guest's own measurement range)
PCRS = tuple(range(8, 16))
ZERO_PCR = b"\x00" * 20
NV_INDEX = 0x2000
NV_AUTH = b"session-nv-auth!!!!!"  # the auth GuestSession defines NV_INDEX with
NV_SIZE = 64
SUCCESS = b"\x00\x00\x00\x00"


@dataclasses.dataclass
class Op:
    """One workload operation: the timed call and its output check."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def extend_frame(index: int, measurement: bytes) -> bytes:
    return marshal.build_command(
        TPM_ORD_Extend, ByteWriter().u32(index).raw(measurement).getvalue()
    )


def read_frame(index: int) -> bytes:
    return marshal.build_command(TPM_ORD_PcrRead, ByteWriter().u32(index).getvalue())


def chain(old: bytes, measurement: bytes) -> bytes:
    """The benchmark's own SHA-1 extend, for the shadow PCR chains."""
    return hashlib.sha1(old + measurement).digest()


def digest_response(result, expected: bytes) -> Optional[str]:
    """Check a raw TPM response frame carrying one 20-byte digest."""
    if isinstance(result, BaseException):
        return f"raised {result!r}"
    if len(result) != 30 or result[6:10] != SUCCESS:
        return f"unexpected response {result[:10].hex()}"
    if result[10:30] != expected:
        return "PCR value differs from the shadow chain"
    return None


def _seeded(workload: str, seed: int, label: str) -> random.Random:
    """The benchmark's own randomness.

    Deliberately not the program's ``RandomSource``, which charges virtual
    time for every draw: generating inputs must not move the system's clock.
    """
    return random.Random(f"vtpmbench-{workload}-{seed}-{label}")


def _client_rng(workload: str, seed: int, label: str) -> RandomSource:
    """The rng a guest's TPM client stack runs on (the program's own)."""
    return RandomSource(f"vtpmbench-{workload}-{seed}-{label}".encode())


class World:
    """A built system, its seeded operation stream and its end checks."""

    name = ""
    #: timed runs end on a multiple of this many ops: a multiple of every
    #: periodic event's period, so each run carries them in full
    period_ops = 1
    #: ops in the fixed window the virtual and memory metrics cover
    default_size = 1
    #: ops the traced pass may run at most (bounds the spans kept in memory)
    trace_cap_ops = 1

    #: every platform the world built, and the seeded number of warm-up
    #: ops set-up runs before anything is timed
    platforms: list
    warmup_ops: int

    def commands(self) -> int:
        """TPM frames answered by every manager so far."""
        return sum(p.manager.commands_dispatched for p in self.platforms)

    def flush(self) -> None:
        """Read every audit chain head, forcing the deferred chaining."""
        for platform in self.platforms:
            platform.audit.chain_head()

    def decision_hashes(self) -> List[str]:
        return [p.audit.decision_chain_hash().hex() for p in self.platforms]

    def monitor_counts(self) -> dict:
        totals = {"hits": 0, "misses": 0, "checks": 0, "denials": 0}
        for platform in self.platforms:
            monitor = platform.monitor
            totals["hits"] += monitor.cache_hits
            totals["misses"] += monitor.cache_misses
            totals["checks"] += monitor.checks
            totals["denials"] += monitor.denials
        return totals

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def moves(self) -> List[float]:
        """Host ns of every completed migration (fleet_churn only)."""
        return []

    def end_checks(self) -> List[str]:
        """Whole-run checks; returns failure messages."""
        failures = []
        for platform in self.platforms:
            if not platform.audit.verify_chain():
                failures.append(f"audit chain of {platform.name} does not verify")
        return failures


class PcrHot(World):
    """One guest on a bare improved-mode platform re-reading its PCRs."""

    name = "pcr_hot"
    period_ops = 1000
    default_size = 5000
    trace_cap_ops = 40_000

    def __init__(self, seed: int) -> None:
        rng = _seeded(self.name, seed, "setup")
        fresh_timing_context()
        self.platform = build_platform(
            AccessMode.IMPROVED, seed=SYSTEM_SEED, name="pcr-hot"
        )
        self.platforms = [self.platform]
        guest = self.platform.add_guest("guest0")
        self.frontend = guest.frontend
        # Give every PCR a non-trivial value so reads check a real chain.
        self.shadow = {}
        for index in PCRS:
            measurement = rng.randbytes(20)
            guest.client.extend(index, measurement)
            self.shadow[index] = chain(ZERO_PCR, measurement)
        self.wires = {index: read_frame(index) for index in PCRS}
        self._stream = _seeded(self.name, seed, "ops")
        # A seeded warm-up length: the measured window starts at a
        # seed-dependent audit sequence number and clock offset.
        self.warmup_ops = 300 + self._stream.randrange(64)

    def _read(self, index: int) -> bytes:
        return self.frontend.transport(self.wires[index])

    def ops(self) -> Iterator[Op]:
        rng = self._stream
        while True:
            index = PCRS[rng.randrange(len(PCRS))]
            expected = self.shadow[index]
            yield Op(
                "pcr_read",
                lambda index=index: self._read(index),
                lambda result, expected=expected: digest_response(result, expected),
            )


@dataclasses.dataclass
class _Guest:
    """Benchmark-side view of one key_lifecycle guest."""

    name: str
    client: TpmClient
    monitor: bool
    pcrs: dict
    session: Optional[GuestSession] = None
    sign_key: int = 0
    sign_public: object = None
    scratch_blob: bytes = b""
    sealed: tuple = (b"", b"")
    nv: bytearray = dataclasses.field(default_factory=bytearray)
    counter: int = 0


def _dynamic_client(frontend, rng: random.Random) -> TpmClient:
    """A client whose transport looks ``frontend.transport`` up per frame,
    so class-level wrappers installed after set-up still see every frame."""
    return TpmClient(lambda wire: frontend.transport(wire), rng)


class KeyLifecycle(World):
    """Eight provisioned guests and one monitor guest on one supervised
    platform, issuing a seeded mix of keyed, sealed, NV and PCR ops."""

    name = "key_lifecycle"
    OWNERS = 8
    #: periodic events, by position in the op stream
    WRAP_KEY_EVERY = 200
    POLICY_EVERY = 250
    OWNER_CYCLE_EVERY = 1000
    period_ops = 1000
    default_size = 1000
    trace_cap_ops = 6000
    WEIGHTS = (
        ("unseal", 4), ("seal", 2), ("sign", 2), ("quote", 1),
        ("load_evict", 2), ("nv_read", 2), ("nv_write", 1),
        ("increment_counter", 1), ("extend", 2), ("pcr_read", 2),
    )

    def __init__(self, seed: int) -> None:
        fresh_timing_context()
        self.platform = build_platform(
            AccessMode.IMPROVED, seed=SYSTEM_SEED, name="keys"
        )
        self.platforms = [self.platform]
        self.platform.enable_supervision()
        setup_rng = _seeded(self.name, seed, "setup")
        self.guests: List[_Guest] = []
        for i in range(self.OWNERS):
            handle = self.platform.add_guest(f"owner{i}")
            client = _dynamic_client(
                handle.frontend, _client_rng(self.name, seed, f"client{i}")
            )
            guest = _Guest(f"owner{i}", client, False, dict.fromkeys(PCRS, ZERO_PCR))
            guest.session = GuestSession(
                dataclasses.replace(handle, client=client),
                _client_rng(self.name, seed, f"session{i}"),
            )
            guest.nv = bytearray(b"\x5a" * NV_SIZE)  # what GuestSession wrote
            guest.counter = client.read_counter(guest.session.counter_handle)
            guest.sign_key = guest.session.sign_key
            guest.scratch_blob = client.create_wrap_key(
                TPM_KH_SRK, SRK_AUTH, KEY_AUTH, TPM_KEY_SIGNING, 512
            )
            self._finish_keys(guest, setup_rng.randbytes(24))
            self.guests.append(guest)
        handle = self.platform.add_guest("monitor", profile=PROFILE_MONITOR)
        self.guests.append(_Guest(
            "monitor", _dynamic_client(
                handle.frontend, _client_rng(self.name, seed, "monitor")
            ),
            True, dict.fromkeys(PCRS, ZERO_PCR),
        ))
        self._stream = _seeded(self.name, seed, "ops")
        self.warmup_ops = 100 + self._stream.randrange(16)
        self._side_rules: list = []
        self.planned_denials = 0

    @staticmethod
    def _finish_keys(guest: _Guest, payload: bytes) -> None:
        """Read the signing key's public half and seal ``payload``."""
        client = guest.client
        guest.sign_public = client.get_pub_key(guest.sign_key, KEY_AUTH)
        guest.sealed = (client.seal(TPM_KH_SRK, SRK_AUTH, payload, DATA_AUTH), payload)

    # -- operations --------------------------------------------------------------

    def ops(self) -> Iterator[Op]:
        rng = self._stream
        # One deck holds every owner op kind at its weight plus one read and
        # one (denied) extend by the monitor guest.  Dealing shuffled decks
        # keeps the mix exact for every seed; the seed picks the order, the
        # guests and every argument.
        deck = [(kind, False) for kind, weight in self.WEIGHTS for _ in range(weight)]
        deck += [("pcr_read", True), ("extend", True)]
        hand: list = []
        position = 0
        while True:
            if position % self.OWNER_CYCLE_EVERY == self.OWNER_CYCLE_EVERY - 1:
                yield self._owner_cycle(self.guests[0], rng.randbytes(24))
            elif position % self.POLICY_EVERY == self.POLICY_EVERY // 2:
                yield self._policy_toggle(rng.randbytes(32).hex())
            elif position % self.WRAP_KEY_EVERY == self.WRAP_KEY_EVERY - 1:
                yield self._create_wrap_key(self.guests[rng.randrange(self.OWNERS)])
            else:
                if not hand:
                    hand = rng.sample(deck, len(deck))
                kind, by_monitor = hand.pop()
                guest = self.guests[-1] if by_monitor else self.guests[
                    rng.randrange(self.OWNERS)
                ]
                yield getattr(self, "_" + kind)(guest, rng)
            position += 1

    def _extend(self, guest: _Guest, rng: random.Random) -> Op:
        index = PCRS[rng.randrange(len(PCRS))]
        measurement = rng.randbytes(20)

        def check(result):
            if guest.monitor:
                # The monitor profile grants no MEASURE class: a planned denial.
                if isinstance(result, TpmError) and result.code == TPM_AUTHFAIL:
                    self.planned_denials += 1
                    return None
                return f"monitor extend was not denied: {result!r}"
            expected = chain(guest.pcrs[index], measurement)
            if result != expected:
                return f"extend of PCR {index} returned {result!r}"
            guest.pcrs[index] = expected
            return None

        return Op("extend", lambda: guest.client.extend(index, measurement), check)

    def _pcr_read(self, guest: _Guest, rng: random.Random) -> Op:
        index = PCRS[rng.randrange(len(PCRS))]

        return Op(
            "pcr_read",
            lambda: guest.client.pcr_read(index),
            lambda result: _expect(result, guest.pcrs[index], f"PCR {index}"),
        )

    def _quote(self, guest: _Guest, rng: random.Random) -> Op:
        indices = sorted({PCRS[rng.randrange(len(PCRS))] for _ in range(2)})
        nonce = rng.randbytes(20)

        def check(result):
            if isinstance(result, BaseException):
                return f"quote raised {result!r}"
            if result[1] != [guest.pcrs[i] for i in indices]:
                return "quoted PCR values differ from the shadow chains"
            return None

        return Op("quote", lambda: guest.client.quote(
            guest.sign_key, KEY_AUTH, nonce, indices), check)

    def _sign(self, guest: _Guest, rng: random.Random) -> Op:
        digest = hashlib.sha1(rng.randbytes(32)).digest()

        def check(result):
            if isinstance(result, BaseException):
                return f"sign raised {result!r}"
            # Verify on a scratch clock: the checker's work is not the system's.
            with context_scope(TimingContext()):
                valid = guest.sign_public.verify_sha1(digest, result)
            return None if valid else "signature does not verify"

        return Op("sign", lambda: guest.client.sign(guest.sign_key, KEY_AUTH, digest), check)

    def _seal(self, guest: _Guest, rng: random.Random) -> Op:
        payload = rng.randbytes(24)

        def check(result):
            if isinstance(result, BaseException):
                return f"seal raised {result!r}"
            guest.sealed = (result, payload)  # the next unseal checks it
            return None

        return Op("seal", lambda: guest.client.seal(
            TPM_KH_SRK, SRK_AUTH, payload, DATA_AUTH), check)

    def _unseal(self, guest: _Guest, rng: random.Random) -> Op:
        def run():
            blob, payload = guest.sealed
            return guest.client.unseal(TPM_KH_SRK, SRK_AUTH, blob, DATA_AUTH), payload

        def check(result):
            if isinstance(result, BaseException):
                return f"unseal raised {result!r}"
            data, payload = result
            return None if data == payload else "unseal did not return the sealed payload"

        return Op("unseal", run, check)

    def _load_evict(self, guest: _Guest, rng: random.Random) -> Op:
        def run():
            handle = guest.client.load_key2(TPM_KH_SRK, SRK_AUTH, guest.scratch_blob)
            guest.client.evict_key(handle)

        return Op("load_evict", run, _no_exception)

    def _nv_read(self, guest: _Guest, rng: random.Random) -> Op:
        offset = 32 * rng.randrange(2)

        return Op(
            "nv_read",
            lambda: guest.client.nv_read(NV_INDEX, offset, 32, auth=NV_AUTH),
            lambda result: _expect(result, bytes(guest.nv[offset:offset + 32]), "NV"),
        )

    def _nv_write(self, guest: _Guest, rng: random.Random) -> Op:
        offset = 32 * rng.randrange(2)
        data = rng.randbytes(32)

        def check(result):
            if isinstance(result, BaseException):
                return f"NV write raised {result!r}"
            guest.nv[offset:offset + 32] = data
            return None

        return Op("nv_write", lambda: guest.client.nv_write(
            NV_AUTH, NV_INDEX, offset, data), check)

    def _increment_counter(self, guest: _Guest, rng: random.Random) -> Op:
        def check(result):
            if result != guest.counter + 1:
                return f"counter went to {result!r}, expected {guest.counter + 1}"
            guest.counter += 1
            return None

        return Op("increment_counter", lambda: guest.client.increment_counter(
            COUNTER_AUTH, guest.session.counter_handle), check)

    def _create_wrap_key(self, guest: _Guest) -> Op:
        def check(result):
            if isinstance(result, BaseException):
                return f"create_wrap_key raised {result!r}"
            guest.scratch_blob = result  # later load_evict ops load it
            return None

        return Op("create_wrap_key", lambda: guest.client.create_wrap_key(
            TPM_KH_SRK, SRK_AUTH, KEY_AUTH, TPM_KEY_SIGNING, 512), check)

    def _owner_cycle(self, guest: _Guest, payload: bytes) -> Op:
        def run():
            # Clearing the owner drops the SRK and every key under it; NV
            # space and counters survive, so only SRK-rooted keys are re-made.
            client = guest.client
            client.owner_clear(OWNER_AUTH)
            client.take_ownership(OWNER_AUTH, SRK_AUTH, client.read_pubek())
            blob = client.create_wrap_key(
                TPM_KH_SRK, SRK_AUTH, KEY_AUTH, TPM_KEY_SIGNING, 512
            )
            guest.sign_key = client.load_key2(TPM_KH_SRK, SRK_AUTH, blob)
            guest.scratch_blob = blob
            self._finish_keys(guest, payload)

        return Op("owner_cycle", run, _no_exception)

    def _policy_toggle(self, subject: str) -> Op:
        """Add a harmless side rule, or revoke the last one: either way the
        policy version moves and the decision cache starts over."""
        policy = self.platform.policy

        def run():
            if self._side_rules:
                policy.revoke_rule(self._side_rules.pop().rule_id)
            else:
                self._side_rules.extend(
                    policy.add_rule(subject, 10_000, CommandClass.READ)
                )

        return Op("policy", run, _no_exception)

    def end_checks(self) -> List[str]:
        failures = super().end_checks()
        if self.platform.monitor.denials != self.planned_denials:
            failures.append(
                f"{self.platform.monitor.denials} denials, "
                f"{self.planned_denials} planned"
            )
        supervisor = self.platform.supervisor
        for handle in self.platform.guests.values():
            state = supervisor.record_for(handle.domain.uuid).state
            if state.value != "healthy":
                failures.append(f"{handle.domain.name} is {state.value}")
        return failures


class FleetChurn(World):
    """Routed extend/read traffic over a 4-host fleet with attested moves."""

    name = "fleet_churn"
    HOSTS = 4
    GUESTS = 32
    MOVE_EVERY = 400
    period_ops = 400
    default_size = 1600
    trace_cap_ops = 20_000

    def __init__(self, seed: int) -> None:
        fresh_timing_context()
        self.fleet = build_fleet(
            AccessMode.IMPROVED, num_hosts=self.HOSTS, seed=SYSTEM_SEED
        )
        self.platforms = [self.fleet.hosts[h].platform for h in sorted(self.fleet.hosts)]
        self.names = [f"vm{i:02d}" for i in range(self.GUESTS)]
        for name in self.names:
            self.fleet.add_guest(name)
        self.pcrs = {name: dict.fromkeys(PCRS, ZERO_PCR) for name in self.names}
        self._stream = _seeded(self.name, seed, "ops")
        self.warmup_ops = 100 + self._stream.randrange(16)
        self._move_ns: List[float] = []
        self._moves_started = 0
        self._read_wires = {index: read_frame(index) for index in PCRS}

    def moves(self) -> List[float]:
        return self._move_ns

    def ops(self) -> Iterator[Op]:
        rng = self._stream
        position = 0
        while True:
            name = self.names[rng.randrange(self.GUESTS)]
            index = PCRS[rng.randrange(len(PCRS))]
            if position % self.MOVE_EVERY == self.MOVE_EVERY - 1:
                yield self._move(name, rng.randrange(1 << 16))
            elif position % 2:
                yield self._extend(name, index, rng.randbytes(20))
            else:
                yield self._read(name, index)
            position += 1

    def _extend(self, name: str, index: int, measurement: bytes) -> Op:
        wire = extend_frame(index, measurement)
        shadow = self.pcrs[name]

        def check(result):
            expected = chain(shadow[index], measurement)
            failure = digest_response(result, expected)
            if failure is None:
                shadow[index] = expected
            return failure

        return Op("extend", lambda: self.fleet.router.send(name, wire), check)

    def _read(self, name: str, index: int) -> Op:
        wire = self._read_wires[index]
        shadow = self.pcrs[name]
        return Op(
            "pcr_read",
            lambda: self.fleet.router.send(name, wire),
            lambda result: digest_response(result, shadow[index]),
        )

    def _move(self, name: str, draw: int) -> Op:
        """Checkpoint the guest's vTPM, migrate it to a seeded admissible
        host, then read every PCR back through the router."""
        fleet = self.fleet

        def run():
            location = fleet.router.locate(name)
            targets = [
                host_id for host_id in sorted(fleet.hosts)
                if host_id != location.host_id and fleet.hosts[host_id].admissible()
            ]
            target = targets[draw % len(targets)]
            self._moves_started += 1
            started = time.perf_counter_ns()
            fleet.hosts[location.host_id].platform.manager.save_instance(
                location.instance_id
            )
            fleet.migrate(name, target)
            self._move_ns.append(time.perf_counter_ns() - started)
            record = fleet.migrator.trail[-1]
            reads = [(i, fleet.router.send(name, self._read_wires[i])) for i in PCRS]
            return record, target, reads

        def check(result):
            if isinstance(result, BaseException):
                return f"move of {name} raised {result!r}"
            record, target, reads = result
            if record.guest != name or record.target != target or record.outcome != "moved":
                return f"migration of {name} ended {record.outcome}"
            if fleet.router.locate(name).host_id != target:
                return f"router does not place {name} on {target}"
            for index, response in reads:
                failure = digest_response(response, self.pcrs[name][index])
                if failure is not None:
                    return f"after the move: {failure}"
            return None

        return Op("move", run, check)

    def end_checks(self) -> List[str]:
        failures = super().end_checks()
        if self.fleet.router.degraded:
            failures.append(f"{self.fleet.router.degraded} routes degraded")
        moved = sum(r.outcome == "moved" for r in self.fleet.migrator.trail)
        if moved != self._moves_started:
            failures.append(f"{moved} of {self._moves_started} migrations moved")
        return failures


def _expect(result, expected, what: str) -> Optional[str]:
    if isinstance(result, BaseException):
        return f"{what} raised {result!r}"
    return None if result == expected else f"{what} differs from the shadow"


def _no_exception(result) -> Optional[str]:
    return f"raised {result!r}" if isinstance(result, BaseException) else None


WORKLOADS = {cls.name: cls for cls in (PcrHot, KeyLifecycle, FleetChurn)}
