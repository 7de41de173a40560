"""Counterexample minimizer and replayable repro artifacts.

Given a failing trace from the explorer, :func:`shrink_failure` first
re-validates that the *schedule* alone reproduces the violation on a
fresh platform (batched exploration means a violation can in principle
depend on earlier schedules' state; if it does, the whole platform trace
is minimized instead), then runs deterministic ddmin over the step list:
drop chunks, halve granularity, repeat until 1-minimal — every remaining
step is necessary.

The result is a JSON artifact (``repro-verify/1``) that
``python -m repro verify --replay FILE`` re-executes from scratch:

.. code-block:: json

    {"format": "repro-verify/1", "seed": 2010, "guests": 3,
     "supervised": false, "inject_bug": "cache-epoch",
     "steps": [{"guest": 0, "op": "extend", "arg": 3}, ...],
     "violation": {"kind": "oracle-mismatch", ...}}

Replay is exact: the same steps, a fresh platform built from the same
seed, the same planted bug (if any) — so a repro attached to a CI
failure is a one-command reproduction, not a log to squint at.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.util.errors import ReproError
from repro.verify.explorer import FailingRun, ScheduleRunner, Step, Violation

REPRO_FORMAT = "repro-verify/1"


@dataclass
class Repro:
    """A minimal, replayable counterexample."""

    seed: int
    guests: int
    supervised: bool
    inject_bug: Optional[str]
    steps: Tuple[Step, ...]
    violation: Violation

    def to_json(self) -> dict:
        return {
            "format": REPRO_FORMAT,
            "seed": self.seed,
            "guests": self.guests,
            "supervised": self.supervised,
            "inject_bug": self.inject_bug,
            "steps": [step.to_json() for step in self.steps],
            "violation": self.violation.to_json(),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"

    @staticmethod
    def loads(text: str) -> "Repro":
        obj = json.loads(text)
        if obj.get("format") != REPRO_FORMAT:
            raise ReproError(
                f"not a {REPRO_FORMAT} artifact: format={obj.get('format')!r}"
            )
        violation = obj.get("violation") or {}
        step_obj = violation.get("step")
        return Repro(
            seed=int(obj["seed"]),
            guests=int(obj["guests"]),
            supervised=bool(obj.get("supervised", False)),
            inject_bug=obj.get("inject_bug"),
            steps=tuple(Step.from_json(s) for s in obj["steps"]),
            violation=Violation(
                kind=violation.get("kind", "unknown"),
                step_index=int(violation.get("step_index", 0)),
                step=Step.from_json(step_obj) if step_obj else None,
                predicted=violation.get("predicted", ""),
                observed=violation.get("observed", ""),
                detail=violation.get("detail", ""),
            ),
        )


def save_repro(path: str, repro: Repro) -> None:
    with open(path, "w") as stream:
        stream.write(repro.dumps())


def load_repro(path: str) -> Repro:
    with open(path) as stream:
        return Repro.loads(stream.read())


def replay(
    steps: Sequence[Step], seed: int, guests: int, supervised: bool = False,
    inject_bug: Optional[str] = None,
) -> Optional[Violation]:
    """Run ``steps`` as one schedule on a fresh platform (with
    ``inject_bug`` planted, if given); first violation or ``None``."""
    runner = ScheduleRunner(
        guests=guests, seed=seed, supervised=supervised, inject_bug=inject_bug
    )
    violations = runner.run(list(steps))
    return violations[0] if violations else None


def replay_repro(repro: Repro) -> Optional[Violation]:
    """Replay an artifact, with its recorded bug planted again."""
    return replay(
        repro.steps, seed=repro.seed, guests=repro.guests,
        supervised=repro.supervised, inject_bug=repro.inject_bug,
    )


def ddmin(
    steps: Sequence[Step],
    fails: "callable[[Sequence[Step]], Optional[Violation]]",
) -> Tuple[Tuple[Step, ...], Violation]:
    """Classic deterministic delta debugging over a step list.

    ``fails`` returns the violation a candidate produces (or ``None``);
    the input must fail.  Returns a 1-minimal failing subsequence —
    removing any single remaining step makes the failure disappear.
    """
    current = list(steps)
    violation = fails(current)
    if violation is None:
        raise ReproError("ddmin needs a failing input to minimize")
    n = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // n)
        reduced = False
        for start in range(0, len(current), chunk):
            candidate = current[:start] + current[start + chunk:]
            if not candidate:
                continue
            candidate_violation = fails(candidate)
            if candidate_violation is not None:
                current = candidate
                violation = candidate_violation
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(current):
                break
            n = min(len(current), n * 2)
    return tuple(current), violation


def shrink_failure(failure: FailingRun) -> Repro:
    """Minimize one explorer failure into a replayable artifact.

    Prefers the failing schedule alone (short); falls back to the whole
    platform trace when the violation needs earlier schedules' state.
    Replay seeds differ from exploration seeds on purpose: a genuine
    conformance bug must not hide behind one lucky platform seed.
    """
    seed = failure.seed
    guests = failure.guests
    supervised = failure.supervised
    inject = failure.inject_bug

    def fails(candidate: Sequence[Step]) -> Optional[Violation]:
        return replay(
            candidate, seed=seed, guests=guests, supervised=supervised,
            inject_bug=inject,
        )

    basis: Sequence[Step]
    if fails(failure.schedule) is not None:
        basis = failure.schedule
    elif fails(failure.trace) is not None:
        basis = failure.trace
    else:
        # Not reproducible from a fresh platform: ship the un-shrunk
        # trace so the artifact still documents what was observed.
        return Repro(
            seed=seed, guests=guests, supervised=supervised,
            inject_bug=inject, steps=failure.trace,
            violation=failure.violation,
        )
    minimal, violation = ddmin(basis, fails)
    return Repro(
        seed=seed, guests=guests, supervised=supervised,
        inject_bug=inject, steps=minimal, violation=violation,
    )
