"""Latency recording against the virtual clock.

A :class:`LatencyRecorder` follows the same epoch rule as the counter
registry (:func:`~repro.sim.timing.check_epoch`): it binds to the timing
context it first records under and refuses samples from a later one.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List

from repro.metrics.stats import Summary, summarize
from repro.sim.timing import check_epoch, get_context
from repro.util.errors import ReproError


class VirtualTimer:
    """Context manager measuring elapsed *virtual* microseconds."""

    def __init__(self) -> None:
        self.elapsed_us = 0.0
        self._start = 0.0

    def __enter__(self) -> "VirtualTimer":
        self._start = get_context().clock.now_us
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed_us = get_context().clock.now_us - self._start


class LatencyRecorder:
    """Collects named virtual-latency samples and summarizes them.

    A recorder is **bound to the timing context it first records under**:
    ``fresh_timing_context()`` resets the virtual clock to zero, so
    samples taken across that boundary belong to different measurement
    epochs and must never be mixed into one summary.  Recording under a
    different context raises :class:`~repro.util.errors.ReproError`;
    :meth:`clear` drops the samples *and* the binding, so a recorder can
    be deliberately reused for a new epoch.
    """

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = defaultdict(list)
        self._ctx = None

    def record(self, name: str, value_us: float) -> None:
        if value_us < 0:
            raise ReproError(f"negative latency {value_us} for {name!r}")
        self._ctx = check_epoch(self._ctx, "LatencyRecorder", "clear")
        self._samples[name].append(value_us)

    def measure(self, name: str) -> "_Measurement":
        """``with recorder.measure("op"):`` records one virtual-time sample."""
        return _Measurement(self, name)

    def names(self) -> List[str]:
        return sorted(self._samples)

    def samples(self, name: str) -> List[float]:
        return list(self._samples.get(name, []))

    def summary(self, name: str) -> Summary:
        samples = self._samples.get(name)
        if not samples:
            raise ReproError(f"no samples recorded for {name!r}")
        return summarize(samples)

    def summaries(self) -> Dict[str, Summary]:
        return {name: self.summary(name) for name in self.names()}

    def clear(self) -> None:
        self._samples.clear()
        self._ctx = None


class _Measurement:
    def __init__(self, recorder: LatencyRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._timer = VirtualTimer()

    def __enter__(self) -> "_Measurement":
        self._timer.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        self._timer.__exit__(*exc_info)
        if exc_info[0] is None:
            self._recorder.record(self._name, self._timer.elapsed_us)
