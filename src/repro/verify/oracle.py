"""Piggyback conformance oracle for existing harness runs.

Wraps an :class:`~repro.core.monitor.AccessControlMonitor`'s
``authorize`` and, for every command the pipeline processes, works out
what the decision *should* be — parse, the monitor's health veto, then
the shared :func:`~repro.core.monitor.decide` with no decision cache —
and compares it against the pipeline's verdict.  Any disagreement is a
conformance mismatch: a bug in the monitor's glue around ``decide``
(cache keying, epoch invalidation, gating order).  The decision logic
itself is checked against the independent reference model by the
schedule explorer and the property tests.

``decide`` charges virtual time, so the oracle runs it under a scratch
:class:`~repro.sim.timing.TimingContext` it owns: attaching the oracle
perturbs neither virtual time nor digests nor audit chains, and the
chaos and cluster demos can run with it on (``--conformance``) and
still satisfy their own determinism and non-interference rails.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.monitor import AccessControlMonitor, decide
from repro.core.policy import classify_ordinal
from repro.sim.timing import TimingContext, context_scope
from repro.tpm.marshal import parse_command
from repro.util.errors import MarshalError

#: mismatch messages kept per oracle (the count is exact; the text is a
#: bounded sample so a hot loop cannot balloon memory)
_MISMATCH_SAMPLE_CAP = 20


class MonitorConformanceOracle:
    """Shadow-decides every authorize() call and records disagreements."""

    def __init__(self, monitor: AccessControlMonitor) -> None:
        if not isinstance(monitor, AccessControlMonitor):
            raise TypeError(
                "conformance oracle needs an AccessControlMonitor "
                f"(got {type(monitor).__name__}); the baseline monitor "
                "has no authz claim to check"
            )
        self.monitor = monitor
        self.checks = 0
        self.mismatch_count = 0
        self.mismatches: List[str] = []
        self._installed = False
        self._inner = None
        #: absorbs the virtual time the shadow ``decide`` charges
        self._scratch = TimingContext()

    # -- the shadow decision -----------------------------------------------------

    def expected_allow(
        self, caller, instance_id: int, bound_identity_hex: Optional[str],
        wire: bytes,
    ) -> bool:
        """What the monitor should answer, ignoring its decision cache."""
        monitor = self.monitor
        try:
            parsed = parse_command(wire)  # memoized, charge-free
        except MarshalError:
            return False  # malformed frames must be denied
        veto = monitor.health_veto(instance_id, classify_ordinal(parsed.ordinal))
        if veto is not None:
            return False
        with context_scope(self._scratch):
            _, decision = decide(
                monitor.identities, monitor.policy, monitor.config, caller,
                instance_id, bound_identity_hex, parsed.ordinal,
            )
        return decision.allowed

    # -- installation ------------------------------------------------------------

    def install(self) -> "MonitorConformanceOracle":
        if self._installed:
            return self
        inner = self.monitor.authorize
        self._inner = inner
        oracle = self

        def authorize(caller, instance_id, bound_identity_hex, wire):
            expected = oracle.expected_allow(
                caller, instance_id, bound_identity_hex, wire
            )
            result = inner(caller, instance_id, bound_identity_hex, wire)
            oracle.checks += 1
            if result.allowed != expected:
                oracle.mismatch_count += 1
                if len(oracle.mismatches) < _MISMATCH_SAMPLE_CAP:
                    oracle.mismatches.append(
                        f"dom{caller.domid} -> instance {instance_id} "
                        f"{result.operation}: pipeline said "
                        f"{'allow' if result.allowed else 'deny'} "
                        f"({result.reason}), oracle expected "
                        f"{'allow' if expected else 'deny'}"
                    )
            return result

        self.monitor.authorize = authorize  # type: ignore[method-assign]
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            # Remove the instance attribute so the class method shows
            # through again.
            del self.monitor.authorize
            self._installed = False
            self._inner = None

    @property
    def ok(self) -> bool:
        return self.mismatch_count == 0

    def summary(self) -> str:
        verdict = "conformant" if self.ok else "NON-CONFORMANT"
        text = (f"conformance oracle: {self.checks} decisions checked, "
                f"{self.mismatch_count} mismatches ({verdict})")
        for sample in self.mismatches:
            text += f"\n  mismatch: {sample}"
        return text


def attach_oracle(platform) -> Optional[MonitorConformanceOracle]:
    """Install an oracle on a platform's monitor; ``None`` for baseline."""
    monitor = platform.monitor
    if not isinstance(monitor, AccessControlMonitor):
        return None
    return MonitorConformanceOracle(monitor).install()


def settle_oracles(oracles) -> int:
    """Uninstall every oracle and return total decisions checked.

    Raises :class:`~repro.util.errors.ReproError` if any oracle saw a
    mismatch — harness runs with ``--conformance`` fail loudly, not in
    a summary footnote.
    """
    from repro.util.errors import ReproError

    live = [oracle for oracle in oracles if oracle is not None]
    checks = 0
    complaints = []
    for oracle in live:
        oracle.uninstall()
        checks += oracle.checks
        if not oracle.ok:
            complaints.append(oracle.summary())
    if complaints:
        raise ReproError(
            "conformance oracle mismatch:\n" + "\n".join(complaints)
        )
    return checks
