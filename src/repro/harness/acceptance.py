"""One acceptance driver for the chaos, supervised-chaos and fleet demos.

Each demo proves its robustness claims the same way: a fault-free
*control* run, a *chaotic* run under the scenario's fault plan (the only
run the caller's tracer and counters observe), and a same-seed *replay*
of the chaotic run.  This module owns what those demos share:

* :func:`observed_run` — one workload run: a fresh clock epoch with the
  caller's observers on it, the piggyback conformance oracle, the fault
  injector, and the elapsed virtual time of the measured part;
* :func:`prove` — the three runs and the shared claims: the control is
  fault-free, no frame was silently dropped, the chaotic run's digests
  equal the control's, and the replay reproduces the chaotic run.

A scenario keeps only its workload, plan, report and extra claims.  Every
claim goes through :func:`claim`, which raises :class:`AcceptanceError`
rather than using ``assert``, so the claims still hold under
``python -O``.
"""

from __future__ import annotations

import contextlib
import hashlib
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.faults import FaultInjector, FaultPlan
from repro.sim.timing import fresh_timing_context, get_context, observe
from repro.tpm.constants import NUM_PCRS
from repro.util.errors import AcceptanceError

#: ``claims(control, chaotic, replay)`` — a scenario's own claims
Claims = Callable[[object, object, object], None]


def claim(holds: bool, text: str) -> None:
    """Raise :class:`AcceptanceError` naming the claim unless it holds."""
    if not holds:
        raise AcceptanceError(text)


def state_digest(instance) -> str:
    """PCR + NV digest of one instance — the 'no state loss' yardstick."""
    state = instance.device.state
    h = hashlib.sha256()
    for index in range(NUM_PCRS):
        h.update(state.pcrs.read(index))
    for area in sorted(state.nv.areas(), key=lambda a: a.index):
        h.update(struct.pack(">II", area.index, len(area.data)))
        h.update(area.data)
    return h.hexdigest()


@dataclass
class RunReport:
    """The fields every scenario's report shares (:meth:`WorkloadRun.outcome`)."""

    plan_name: str
    fault_counts: Dict[str, int]
    total_faults: int
    event_signature: Tuple[Tuple[str, str, int], ...]
    elapsed_virtual_us: float
    #: decisions double-checked by the piggyback conformance oracle
    #: (0 unless the run was started with ``conformance=True``)
    conformance_checks: int

    def faults_line(self) -> str:
        kinds = ", ".join(
            f"{k}={v}" for k, v in sorted(self.fault_counts.items())
        )
        return f"faults injected: {self.total_faults} ({kinds or 'none'})"


class WorkloadRun:
    """What one workload run gets from the driver.

    The workload builds its platforms, hands them to :meth:`attach`, runs
    its measured part inside :meth:`measured`, and splats
    :meth:`outcome` into its report.
    """

    def __init__(self, seed: int, plan: Optional[FaultPlan],
                 conformance: bool) -> None:
        self.plan = (
            plan if plan is not None else FaultPlan(name="fault-free", seed=seed)
        )
        self.conformance = conformance
        self.injector: Optional[FaultInjector] = None
        self._oracles: List = []
        self._start_us = 0.0

    def attach(self, *platforms) -> None:
        """Shadow every authorization decision on ``platforms`` with the
        conformance oracle (:mod:`repro.verify.oracle`), if it is on."""
        if self.conformance:
            from repro.verify.oracle import attach_oracle

            self._oracles.extend(attach_oracle(p) for p in platforms)

    @contextlib.contextmanager
    def measured(self, audit) -> Iterator[FaultInjector]:
        """The measured part: the plan's injector armed, the clock started."""
        self.injector = FaultInjector(self.plan, audit=audit)
        self._start_us = get_context().clock.now_us
        with observe(injector=self.injector):
            yield self.injector

    def outcome(self) -> Dict[str, object]:
        """The :class:`RunReport` fields, for the scenario's report.

        Settles the conformance oracles, so it raises on any decision the
        pipeline got wrong.  Call it last: the elapsed virtual time runs
        up to this call.
        """
        checks = 0
        if self._oracles:
            from repro.verify.oracle import settle_oracles

            checks = settle_oracles(self._oracles)
        injector = self.injector
        return {
            "plan_name": injector.plan.name,
            "fault_counts": dict(injector.fault_counts),
            "total_faults": len(injector.events),
            "event_signature": injector.event_signature(),
            "elapsed_virtual_us": get_context().clock.now_us - self._start_us,
            "conformance_checks": checks,
        }


def observed_run(workload: Callable[[WorkloadRun], object], seed: int,
                 plan: Optional[FaultPlan], tracer=None, counters=None,
                 conformance: bool = False):
    """Run ``workload`` once in a fresh clock epoch and return its report.

    ``plan=None`` is the fault-free control.  ``tracer``/``counters`` are
    put on the new context (a registry binds to the context it first
    records under), and the non-interference suite checks they change no
    digest and no audit chain byte.  ``conformance=True`` piggybacks the
    conformance oracle on every platform the workload attaches, and the
    run raises if the pipeline ever disagrees with it.
    """
    fresh_timing_context()
    with observe(tracer=tracer, registry=counters):
        return workload(WorkloadRun(seed, plan, conformance))


def prove(
    workload: Callable[..., object],
    plan: FaultPlan,
    *,
    matches_control: Sequence[str],
    replays: Sequence[str],
    claims: Claims,
    control: Optional[Callable[..., object]] = None,
    ledger: bool = False,
    tracer=None,
    counters=None,
) -> Dict[str, object]:
    """Control, chaotic and replay runs, and every claim about them.

    ``workload(plan=…, tracer=…, counters=…)`` runs one scenario run;
    ``control`` (default: the same workload) runs the fault-free control.
    The report fields named in ``matches_control`` must equal the
    control's, the ones in ``replays`` must equal the replay's, and with
    ``ledger`` every run must answer each submitted frame exactly once
    with a well-formed response.  ``claims`` adds the scenario's own.
    Raises :class:`AcceptanceError` on the first claim that fails.
    """
    control_report = (control or workload)(plan=None)
    chaotic = workload(plan=plan, tracer=tracer, counters=counters)
    replay = workload(plan=plan)

    claim(control_report.total_faults == 0, "control run must be fault-free")
    claims(control_report, chaotic, replay)
    if ledger:
        for report in (control_report, chaotic, replay):
            claim(
                report.answered == report.submitted,
                f"{report.plan_name}: "
                f"{report.submitted - report.answered} frames silently dropped",
            )
            claim(
                report.malformed == 0,
                f"{report.plan_name}: {report.malformed} malformed responses",
            )
    for field in matches_control:
        claim(
            getattr(chaotic, field) == getattr(control_report, field),
            f"state loss: chaotic {field} diverged from the fault-free control",
        )
    for field in replays:
        claim(
            getattr(chaotic, field) == getattr(replay, field),
            f"non-determinism: the same-seed replay changed {field}",
        )
    result: Dict[str, object] = {
        "control": control_report,
        "chaotic": chaotic,
        "replay": replay,
        "state_preserved": True,
        "deterministic": True,
    }
    if ledger:
        result["zero_dropped"] = True
    return result
