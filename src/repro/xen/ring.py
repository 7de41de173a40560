"""The tpmif transport: one granted page plus one event channel.

Xen's vTPM split driver is not a multi-slot I/O ring: the front-end grants
a single page to the back-end, writes a whole TPM command into it, kicks
the event channel, and the back-end overwrites the page with the response.
This module reproduces that byte-for-byte over the simulated grant table,
physical pages and event channels — so the access-control monitor sits on
a faithful command path, and so ring transfers cost virtual time.

Page layout: ``status(u32) | length(u32) | payload…``

**Batched frames** (the throughput fast path) reuse the same page with a
vector layout: ``status(u32) | count(u32) | [length(u32) | payload…]*``.
The front-end packs up to a page's worth of commands, kicks the channel
*once*, and the back-end answers with the matching response vector — so
the per-notify costs (``xen.evtchn.notify``, the manager's
``vtpm.dispatch`` demux) are amortized over the whole batch while every
command is still individually authorized.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from repro.faults import FaultKind, fire, note_recovery, note_retry
from repro.obs import counters as obs_counters
from repro.obs.trace import traced
from repro.sim import timing as _timing
from repro.sim.timing import charge, get_context
from repro.util.errors import RetryExhausted, RingError
from repro.xen.memory import PAGE_SIZE, PhysicalMemory

_RING_KICKS = obs_counters.counter("ring.kicks")
_RING_SHED = obs_counters.counter("ring.shed")
_RING_BATCHED_FRAMES = obs_counters.counter("ring.batched_frames")
_RING_KICK_RETRIES = obs_counters.counter("ring.kick_retries")

STATUS_IDLE = 0
STATUS_COMMAND = 1
STATUS_RESPONSE = 2
STATUS_BATCH = 3
STATUS_BATCH_RESPONSE = 4

_HEADER = struct.Struct(">II")
MAX_PAYLOAD = PAGE_SIZE - _HEADER.size

#: how many times tpmfront re-kicks a silent back-end before giving up
MAX_KICKS = 5

Backend = Callable[[bytes], bytes]
BatchBackend = Callable[[list], list]
#: admission callback: list of wires → per-frame verdicts (None = admit,
#: bytes = the pre-built shed response to return instead)
Admission = Callable[[list], list]


def _pack_vector(status: int, frames: list) -> bytes:
    """Serialize a frame vector into the batched page layout."""
    buf = bytearray(_HEADER.pack(status, len(frames)))
    for frame in frames:
        buf += len(frame).to_bytes(4, "big")
        buf += frame
    return bytes(buf)


def max_batch_frames(frame_size: int) -> int:
    """How many frames of ``frame_size`` bytes fit in one batched page."""
    if frame_size <= 0:
        raise RingError(f"frame size must be positive, got {frame_size}")
    return max(1, (PAGE_SIZE - _HEADER.size) // (4 + frame_size))


class TpmRing:
    """Front-end view of the shared command page.

    Built by the front-end domain: it allocates the page, grants it to the
    back-end domain, and exchanges whole commands synchronously (the event
    channel delivery is synchronous under the deterministic simulator,
    matching the blocking ioctl path of the real tpmfront driver).
    """

    def __init__(
        self,
        memory: PhysicalMemory,
        grants,            # GrantTable
        events,            # EventChannels
        front_domid: int,
        back_domid: int,
    ) -> None:
        self._memory = memory
        self._grants = grants
        self._events = events
        self.front_domid = front_domid
        self.back_domid = back_domid
        [self.frame] = memory.allocate(front_domid, 1)
        self.gref = grants.grant_access(front_domid, back_domid, self.frame)
        self.port = events.alloc_unbound(front_domid, back_domid)
        self._backend: Optional[Backend] = None
        self._batch_backend: Optional[BatchBackend] = None
        self._admission: Optional[Admission] = None
        self._admission_one = None
        self._mapped_frame: Optional[int] = None
        self.commands_carried = 0
        events.bind(self.port, front_domid, self._on_front_event)
        self._response_ready = False

    # -- back-end side -----------------------------------------------------------

    def connect_backend(
        self, backend: Backend, batch_backend: Optional[BatchBackend] = None
    ) -> None:
        """Back-end maps the grant and installs its command handler(s).

        ``batch_backend`` (a list-of-wires → list-of-responses callable)
        enables the vector protocol; without it, batched submissions are
        drained through ``backend`` one frame at a time.
        """
        self._mapped_frame = self._grants.map_grant(
            self.back_domid, self.front_domid, self.gref
        )
        self._backend = backend
        self._batch_backend = batch_backend
        self._events.bind(self.port, self.back_domid, self._on_back_event)

    def set_admission(self, admission: Optional[Admission],
                      admission_one=None) -> None:
        """Install (or clear) the back-end's admission-control verdict hook.

        With a hook installed, every frame read off the page is submitted
        to it *before* the backend callable; frames it sheds are answered
        with its pre-built response and never reach the backend.  Shed
        frames still occupy their slot in the response vector, so the
        front-end always receives exactly one response per command.

        ``admission_one``, when given, is the single-frame variant
        (``wire -> verdict``) used on the unbatched path so one command
        does not pay the list round-trip of the vector hook.
        """
        self._admission = admission
        self._admission_one = admission_one

    def disconnect_backend(self) -> None:
        if self._mapped_frame is not None:
            self._grants.unmap_grant(self.back_domid, self.front_domid, self.gref)
            self._mapped_frame = None
        self._backend = None
        self._batch_backend = None
        self._admission = None
        self._admission_one = None

    def _on_back_event(self, _port: int) -> None:
        """Back-end interrupt: read command(s), execute, write response(s)."""
        if self._backend is None or self._mapped_frame is None:
            raise RingError("back-end notified but not connected")
        status, length = _HEADER.unpack(
            self._memory.read(self.back_domid, self._mapped_frame, 0, _HEADER.size)
        )
        if status == STATUS_BATCH:
            self._on_back_batch(length)
            return
        if status != STATUS_COMMAND:
            raise RingError(f"back-end woke with status {status}, not COMMAND")
        if length > MAX_PAYLOAD:
            raise RingError(f"command of {length} bytes exceeds page window")
        charge("xen.ring.transfer", length)
        command = self._memory.read(
            self.back_domid, self._mapped_frame, _HEADER.size, length
        )
        if self._admission_one is not None:
            verdict = self._admission_one(command)
        elif self._admission is not None:
            [verdict] = self._admission([command])
        else:
            verdict = None
        if verdict is not None:
            _RING_SHED.inc()
            response = verdict
        else:
            response = self._backend(command)
        if len(response) > MAX_PAYLOAD:
            raise RingError(f"response of {len(response)} bytes exceeds page window")
        charge("xen.ring.transfer", len(response))
        self._memory.write(
            self.back_domid,
            self._mapped_frame,
            0,
            _HEADER.pack(STATUS_RESPONSE, len(response)) + response,
        )
        self._events.notify(self.port, self.back_domid)

    def _on_back_batch(self, count: int) -> None:
        """Drain a batched submission: one page read, one response vector."""
        page = self._memory.read(
            self.back_domid, self._mapped_frame, 0, PAGE_SIZE
        )
        commands = []
        offset = _HEADER.size
        for _ in range(count):
            if offset + 4 > PAGE_SIZE:
                raise RingError("batch vector overruns the page")
            length = int.from_bytes(page[offset : offset + 4], "big")
            offset += 4
            if offset + length > PAGE_SIZE:
                raise RingError("batched command overruns the page")
            commands.append(page[offset : offset + length])
            offset += length
        charge("xen.ring.transfer", offset - _HEADER.size)
        verdicts = (
            self._admission(commands)
            if self._admission is not None
            else [None] * count
        )
        admitted = [c for c, v in zip(commands, verdicts) if v is None]
        shed = count - len(admitted)
        if shed:
            _RING_SHED.add(shed)
        if self._batch_backend is not None:
            executed = iter(self._batch_backend(admitted) if admitted else [])
        else:
            executed = iter(self._backend(command) for command in admitted)
        # Re-merge in submission order: every frame — admitted or shed —
        # gets exactly one response slot.
        responses = [
            next(executed) if verdict is None else verdict
            for verdict in verdicts
        ]
        if len(responses) != count:
            raise RingError(
                f"back-end answered {len(responses)} frames for a batch of {count}"
            )
        reply = _pack_vector(STATUS_BATCH_RESPONSE, responses)
        if len(reply) > PAGE_SIZE:
            raise RingError("batched responses exceed the page window")
        charge("xen.ring.transfer", len(reply) - _HEADER.size)
        self._memory.write(self.back_domid, self._mapped_frame, 0, reply)
        self._events.notify(self.port, self.back_domid)

    # -- front-end side ------------------------------------------------------------

    def _on_front_event(self, _port: int) -> None:
        self._response_ready = True

    @traced("ring.send", lambda self, command: {"bytes": len(command)})
    def send_command(self, command: bytes) -> bytes:
        """Carry one TPM command to the back-end and return its response."""
        if len(command) > MAX_PAYLOAD:
            raise RingError(f"command of {len(command)} bytes exceeds page window")
        if self._backend is None:
            raise RingError("no back-end connected to this vTPM ring")
        _RING_KICKS.inc()
        charge("xen.ring.transfer", len(command))
        self._memory.write(
            self.front_domid,
            self.frame,
            0,
            _HEADER.pack(STATUS_COMMAND, len(command)) + command,
        )
        self._response_ready = False
        self._kick_backend()
        if not self._response_ready:
            raise RingError("back-end did not produce a response")
        status, length = _HEADER.unpack(
            self._memory.read(self.front_domid, self.frame, 0, _HEADER.size)
        )
        if status != STATUS_RESPONSE:
            raise RingError(f"front-end woke with status {status}, not RESPONSE")
        response = self._memory.read(self.front_domid, self.frame, _HEADER.size, length)
        self.commands_carried += 1
        return response

    @traced("ring.send_batch", lambda self, commands: {
        "frames": len(commands)})
    def send_batch(self, commands: list) -> list:
        """Carry several TPM commands in one page write and one kick.

        The whole vector must fit the page; callers size batches with
        :func:`max_batch_frames`.  Returns the responses in submission
        order.
        """
        if not commands:
            return []
        if self._backend is None:
            raise RingError("no back-end connected to this vTPM ring")
        _RING_KICKS.inc()
        _RING_BATCHED_FRAMES.add(len(commands))
        submission = _pack_vector(STATUS_BATCH, commands)
        if len(submission) > PAGE_SIZE:
            raise RingError(
                f"batch of {len(commands)} frames ({len(submission)} bytes) "
                f"exceeds the page window"
            )
        charge("xen.ring.transfer", len(submission) - _HEADER.size)
        self._memory.write(self.front_domid, self.frame, 0, submission)
        self._response_ready = False
        self._kick_backend()
        if not self._response_ready:
            raise RingError("back-end did not produce a response")
        page = self._memory.read(self.front_domid, self.frame, 0, PAGE_SIZE)
        status, count = _HEADER.unpack(page[: _HEADER.size])
        if status != STATUS_BATCH_RESPONSE:
            raise RingError(
                f"front-end woke with status {status}, not BATCH_RESPONSE"
            )
        if count != len(commands):
            raise RingError(
                f"back-end answered {count} frames for a batch of {len(commands)}"
            )
        responses = []
        offset = _HEADER.size
        for _ in range(count):
            length = int.from_bytes(page[offset : offset + 4], "big")
            offset += 4
            if offset + length > PAGE_SIZE:
                raise RingError("batched response overruns the page")
            responses.append(page[offset : offset + length])
            offset += length
        self.commands_carried += count
        return responses

    def _kick_backend(self) -> None:
        """Deliver the front-end's kick, surviving injected channel faults.

        The fault injector can stall a transfer (the kick lands late; the
        stall is paid in virtual time) or drop the notification entirely
        (the back-end never wakes).  The real tpmfront driver waits on a
        timeout and re-kicks; we model that bounded-retry loop here, so a
        lossy event channel degrades latency rather than correctness.
        """
        if _timing._current_context.injector is None:
            # Fault-free fast path: no kwargs dict, no clock read, no loop.
            self._events.notify(self.port, self.front_domid)
            return
        start_us = get_context().clock.now_us
        dropped = 0
        for attempt in range(MAX_KICKS):
            event = fire(
                "xen.ring.notify",
                port=self.port,
                front=self.front_domid,
                attempt=attempt,
            )
            if event is not None and event.kind is FaultKind.RING_DROP_NOTIFY:
                # The kick is lost: wait out the driver timeout and retry.
                dropped += 1
                charge("fault.ring.timeout")
                note_retry("xen.ring.notify")
                _RING_KICK_RETRIES.inc()
                continue
            if event is not None and event.kind is FaultKind.RING_STALL:
                # The transfer stalls but the kick still lands afterwards.
                charge("fault.ring.stall")
            self._events.notify(self.port, self.front_domid)
            if dropped:
                note_recovery(
                    "xen.ring.notify", get_context().clock.now_us - start_us
                )
            return
        raise RetryExhausted(
            "xen.ring.notify",
            MAX_KICKS,
            RingError(f"event channel dropped {dropped} notifications"),
        )

    def teardown(self) -> None:
        """Release grant, channel and page (front-end shutdown path)."""
        self.disconnect_backend()
        self._grants.end_access(self.front_domid, self.gref)
        self._events.close(self.port)
        self._memory.free([self.frame])
