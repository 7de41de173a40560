"""Host-speed calibration for the benchmark's host-time metrics.

Shared hosts change speed for seconds at a time (a busy neighbour on the
same core, frequency steps), by as much as 40% on the 2-core host the
benchmark was tuned on, and a whole run can fall inside one slow phase.
So every host-time figure is scaled to a *reference host speed*.  About
once per millisecond of the timed loop, between two ops and outside every
timing, the benchmark times :func:`sample_ns`: a fixed pure-Python kernel
of the same kinds of work the simulator does (struct packing, hashing,
small objects, dict and bytes traffic).  Host time measured in one period
of ops is scaled by ``REFERENCE_NS`` over the median kernel time sampled
during that period.  The kernel is the benchmark's own code, so a change
to the program moves the scaled figures just as it moves the raw ones.
"""

from __future__ import annotations

import hashlib
import statistics
import struct
import time

#: kernel time, in ns, that defines the reference host speed (about what
#: :func:`sample_ns` takes on the tuning host in its fast phase)
REFERENCE_NS = 40_000

#: how often the timed loop samples the kernel
SAMPLE_EVERY_NS = 1_000_000

_HEADER = struct.Struct(">HII")
_ROUNDS = 20


class _Node:
    __slots__ = ("key", "value", "next")


def _record(table: dict, i: int, digest=hashlib.sha256, header=_HEADER) -> int:
    frame = header.pack(0xC1, 14 + (i & 7), i) + bytes(4)
    tag, size, ordinal = header.unpack_from(frame)
    node = _Node()
    node.key = ordinal & 63
    node.value = digest(frame).digest()
    node.next = table.get(node.key)
    table[node.key] = node
    text = f"{i}|{tag}|{size}|{node.key}".encode()
    return len(text) + int.from_bytes(node.value[:4], "big") % 7


def sample_ns() -> int:
    """Host ns one run of the fixed kernel takes right now."""
    table: dict = {}
    start = time.perf_counter_ns()
    for i in range(_ROUNDS):
        _record(table, i)
    return time.perf_counter_ns() - start


def factor(samples) -> float:
    """The scale from this host's speed to the reference speed."""
    return REFERENCE_NS / statistics.median(samples)
