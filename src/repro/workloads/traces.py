"""Synthetic arrival traces.

Open-loop load for the scaling experiment: each entry is (arrival time,
guest index, operation).  Arrivals are Poisson per guest; operations come
from a :class:`~repro.workloads.mixes.CommandMix`.  Traces serialize to a
simple text format so runs can be archived and replayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List

from repro.crypto.random_source import RandomSource
from repro.util.errors import ReproError
from repro.workloads.mixes import CommandMix, OPERATIONS


#: most entries (rate × duration × guests) a trace may expect: generation
#: is linear in it, so finite but huge requests fail closed up front
MAX_EXPECTED_ENTRIES = 1_000_000


def check_trace_size(
    guests: int, rate_per_guest_per_sec: float, duration_s: float
) -> None:
    """Raise :class:`ReproError` unless these trace parameters are usable."""
    if guests <= 0:
        raise ReproError(f"need at least one guest, got {guests}")
    if not all(
        math.isfinite(v) and v > 0 for v in (rate_per_guest_per_sec, duration_s)
    ):
        raise ReproError("rate and duration must be finite and positive")
    expected = rate_per_guest_per_sec * duration_s * guests
    if expected > MAX_EXPECTED_ENTRIES:
        raise ReproError(
            f"rate x duration x guests expects {expected:.3g} trace "
            f"entries, above the limit of {MAX_EXPECTED_ENTRIES:,}"
        )


@dataclass(frozen=True)
class TraceEntry:
    """One operation arrival."""

    time_us: float
    guest_index: int
    operation: str


@dataclass
class SyntheticTrace:
    """A full workload trace."""

    entries: List[TraceEntry]
    guests: int
    duration_us: float

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @staticmethod
    def poisson(
        rng: RandomSource,
        guests: int,
        rate_per_guest_per_sec: float,
        duration_s: float,
        mix: CommandMix,
    ) -> "SyntheticTrace":
        """Poisson arrivals per guest, merged and time-sorted."""
        check_trace_size(guests, rate_per_guest_per_sec, duration_s)
        rate_us = rate_per_guest_per_sec / 1e6
        duration_us = duration_s * 1e6
        entries: List[TraceEntry] = []
        for g in range(guests):
            guest_rng = rng.fork(f"trace-guest-{g}")
            t = 0.0
            while True:
                t += guest_rng.expovariate(rate_us)
                if t >= duration_us:
                    break
                entries.append(
                    TraceEntry(time_us=t, guest_index=g, operation=mix.draw(guest_rng))
                )
        entries.sort(key=lambda e: (e.time_us, e.guest_index))
        return SyntheticTrace(entries=entries, guests=guests, duration_us=duration_us)

    # -- (de)serialization ---------------------------------------------------------

    def dumps(self) -> str:
        lines = [f"# guests={self.guests} duration_us={self.duration_us}"]
        lines += [
            # repr keeps full float precision so loads(dumps(t)) == t.
            f"{e.time_us!r}\t{e.guest_index}\t{e.operation}" for e in self.entries
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def loads(text: str) -> "SyntheticTrace":
        lines = [l for l in text.splitlines() if l.strip()]
        if not lines or not lines[0].startswith("#"):
            raise ReproError("trace text missing header line")
        header = dict(
            part.split("=", 1) for part in lines[0].lstrip("# ").split()
        )
        entries = []
        for line in lines[1:]:
            time_s, guest_s, op = line.split("\t")
            if op not in OPERATIONS:
                raise ReproError(f"trace names unknown operation {op!r}")
            entries.append(
                TraceEntry(
                    time_us=float(time_s), guest_index=int(guest_s), operation=op
                )
            )
        return SyntheticTrace(
            entries=entries,
            guests=int(header["guests"]),
            duration_us=float(header["duration_us"]),
        )
