"""The reference monitor on the vTPM command path.

The vTPM manager calls :meth:`Monitor.authorize` for every command packet
*before* it reaches a vTPM instance.  The baseline monitor reproduces
stock Xen (trust whatever the backend claims, no checks, no cost); the
access-control monitor performs the paper's checks.  The decision itself
is one function, :func:`decide`:

1. **binding** — the caller domain's *measured identity* must equal the
   identity the instance was created for (defeats domid recycling and
   rogue backend re-binding);
2. **policy** — the (identity, instance, ordinal-class) triple must be
   granted (defeats over-broad command access, e.g. a guest driving
   owner-admin ordinals at another instance).

:class:`AccessControlMonitor` wraps it in a fixed per-command path:
**parse** the frame (malformed frames are denied), consult the
supervisor's **health** veto, answer from the **decision cache** or call
:func:`decide`, then **audit** the verdict to the hash-chained log —
through exactly one allow helper and one deny helper.  The conformance
oracle (:mod:`repro.verify.oracle`) calls the same :func:`decide`,
without the cache, to check the monitor's glue around it.

The monitor also owns the **authorization decision cache**: the paper's
argument is that these checks are a small per-command constant, and for
the common case — the same bound guest re-issuing the same command class
at the same instance — the full identity + policy walk is provably
redundant.  A hit is keyed by (caller domid, *live* launch measurement,
instance, ordinal class) and charges only ``ac.policy.cache_hit``.  Any
event that could change a decision bumps the cache epoch, so revocation
takes effect on the very next command:

* policy mutation (rule add/revoke — tracked via ``PolicyEngine.version``),
* identity re-registration or forgetting (``IdentityRegistry.version``),
* instance destruction or creation (the monitor's own epoch counter).

A rebuilt domain under a recycled domid misses the cache even within an
epoch because the key includes the live measurement, and only *allow*
decisions are ever cached.  Audit records are still appended on every
command, hit or miss, so the hash chain is complete either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.audit import AuditLog
from repro.core.config import AccessControlConfig
from repro.core.identity import IdentityRegistry
from repro.core.policy import (
    CommandClass,
    Decision,
    PolicyEngine,
    classify_ordinal,
)
from repro.obs import counters as obs_counters
from repro.obs.trace import span_attr, traced
from repro.sim import timing as _timing
from repro.sim.timing import charge
from repro.tpm.constants import ordinal_name
from repro.tpm.dispatch import parse_command
from repro.tpm.marshal import ParsedCommand
from repro.util.errors import IdentityError, MarshalError
from repro.xen.domain import Domain

_AC_DECISIONS_ALLOW = obs_counters.counter("ac.decisions", outcome="allow")
_AC_DECISIONS_DENY = obs_counters.counter("ac.decisions", outcome="deny")
_AC_CACHE_HIT = obs_counters.counter("ac.cache", result="hit")
_AC_CACHE_MISS = obs_counters.counter("ac.cache", result="miss")
#: per-class ``ac.commands`` handles, filled on first sight of each class
_AC_COMMANDS: Dict[str, obs_counters.CounterHandle] = {}


def _ac_commands(cls: str) -> obs_counters.CounterHandle:
    handle = _AC_COMMANDS.get(cls)
    if handle is None:
        handle = _AC_COMMANDS[cls] = obs_counters.counter(
            "ac.commands", cls=cls
        )
    return handle


@dataclass(frozen=True, slots=True)
class AuthorizationResult:
    """What the monitor concluded for one command.

    ``parsed`` carries the wire frame the monitor already parsed so the
    dispatch layer below never re-parses it (parse-once fast path); it is
    ``None`` when the monitor did not need to parse (baseline) or the
    frame was malformed.
    """

    allowed: bool
    subject: str
    operation: str
    reason: str
    parsed: Optional[ParsedCommand] = None


class Monitor:
    """Interface both monitors implement."""

    #: optional resilience gate: ``(instance_id, CommandClass) -> deny
    #: reason or None``.  Installed by the supervisor; consulted by the
    #: access-control monitor so degraded-mode ordinal gating is enforced
    #: at the reference monitor, not only at the ring's admission layer.
    health_gate = None
    #: optional companion index (``Supervisor.unhealthy_instances``):
    #: instance ids with a non-healthy record.  When present, the gate
    #: call is skipped for ids not listed — one dict-membership test per
    #: command in the all-green steady state.  ``None`` means "no index,
    #: always consult the gate".
    health_index = None

    def authorize(
        self, caller: Domain, instance_id: int, bound_identity_hex: Optional[str],
        wire: bytes,
    ) -> AuthorizationResult:
        raise NotImplementedError

    def on_instance_created(
        self, instance_id: int, identity_hex: str, profile=None
    ) -> None:
        """Hook: a new instance was bound to an identity."""

    def on_instance_destroyed(self, instance_id: int) -> None:
        """Hook: an instance disappeared."""

    def on_fault(self, instance_id: int, exc: Exception) -> None:
        """Hook: a subsystem fault surfaced as a degraded response."""

    def on_rebind_denied(
        self, subject: str, instance_id: int, reason: str
    ) -> None:
        """Hook: a backend re-bind failed the identity-binding check."""


class BaselineMonitor(Monitor):
    """Stock Xen vTPM behaviour: no checks, no charges, allow everything."""

    def authorize(
        self, caller: Domain, instance_id: int, bound_identity_hex: Optional[str],
        wire: bytes,
    ) -> AuthorizationResult:
        return AuthorizationResult(
            allowed=True,
            subject=f"dom{caller.domid}",
            operation="*",
            reason="baseline: backend-claimed binding trusted",
        )


def decide(
    identities: IdentityRegistry,
    policy: PolicyEngine,
    config: AccessControlConfig,
    caller: Domain,
    instance_id: int,
    bound_identity_hex: Optional[str],
    ordinal: int,
) -> Tuple[str, Decision]:
    """The authorization decision: identity binding, then policy.

    Returns the subject the decision was made for (the caller's measured
    identity once verified, ``dom<N>`` before that) and the verdict.  No
    cache, no audit, no counters: the only side effects are the virtual
    time charged by :meth:`IdentityRegistry.verify_current` and
    :meth:`PolicyEngine.decide`.
    """
    subject = f"dom{caller.domid}"
    if config.identity_check:
        try:
            subject = identities.verify_current(caller).hex
        except IdentityError as exc:
            return subject, Decision(allowed=False, reason=str(exc))
        if bound_identity_hex is not None and subject != bound_identity_hex:
            return subject, Decision(
                allowed=False,
                reason=f"instance {instance_id} is bound to identity "
                f"{bound_identity_hex[:12]}…, caller is {subject[:12]}…",
            )
    else:
        # Policy-only ablation: use the registered identity as the
        # subject without re-verifying it (trust-but-lookup), so policy
        # rules keyed by identity still apply.
        known = identities.lookup(caller.domid)
        if known is not None:
            subject = known.hex
    if not config.policy_check:
        return subject, Decision(allowed=True, reason="policy check disabled")
    return subject, policy.decide(subject, instance_id, ordinal)


class AccessControlMonitor(Monitor):
    """The paper's reference monitor."""

    def __init__(
        self,
        identities: IdentityRegistry,
        policy: PolicyEngine,
        audit: AuditLog,
        config: Optional[AccessControlConfig] = None,
    ) -> None:
        self.identities = identities
        self.policy = policy
        self.audit = audit
        self.config = config or AccessControlConfig()
        self.checks = 0
        self.denials = 0
        # -- decision cache ------------------------------------------------
        #: (domid, live measurement, instance, class) -> (subject, reason)
        self._cache: Dict[Tuple, Tuple[str, str]] = {}
        #: monitor-local epoch component (instance lifecycle events)
        self._epoch = 0
        #: the composite epoch the current cache contents were built under
        self._cache_epoch: Tuple[int, int, int] = (-1, -1, -1)
        self.cache_hits = 0
        self.cache_misses = 0

    # -- cache plumbing ----------------------------------------------------------

    def invalidate_cache(self) -> None:
        """Force every cached decision to be re-derived (new epoch)."""
        self._epoch += 1

    def _current_epoch(self) -> Tuple[int, int, int]:
        return (self._epoch, self.policy.version, self.identities.version)

    # -- lifecycle hooks ---------------------------------------------------------

    def on_instance_created(
        self, instance_id: int, identity_hex: str, profile=None
    ) -> None:
        """Grant the owning identity its rights on the instance.

        ``profile`` (a :class:`~repro.core.profiles.PolicyProfile`) narrows
        the grant; the default is the full owner profile.
        """
        self._epoch += 1
        if self.config.policy_check:
            if profile is None:
                self.policy.grant_owner(identity_hex, instance_id)
            else:
                profile.apply(self.policy, identity_hex, instance_id)

    def on_instance_destroyed(self, instance_id: int) -> None:
        self._epoch += 1
        for rule in self.policy.rules_for_instance(instance_id):
            self.policy.revoke_rule(rule.rule_id)

    # -- the per-command path ----------------------------------------------------

    def authorize(
        self, caller: Domain, instance_id: int, bound_identity_hex: Optional[str],
        wire: bytes,
    ) -> AuthorizationResult:
        result = self._authorize(caller, instance_id, bound_identity_hex, wire)
        if _timing._current_context.registry is not None:
            cls = (
                classify_ordinal(result.parsed.ordinal).value
                if result.parsed is not None else "malformed"
            )
            _ac_commands(cls).inc()
            if result.allowed:
                _AC_DECISIONS_ALLOW.inc()
            else:
                _AC_DECISIONS_DENY.inc()
        return result

    def health_veto(
        self, instance_id: int, command_class: CommandClass
    ) -> Optional[str]:
        """The supervisor's deny reason for this command, or ``None``.

        Charge-free.  With the supervisor's unhealthy-instance index
        installed, the steady-state cost is one membership test; the full
        gate walk runs only while this instance is actually unhealthy.
        """
        gate = self.health_gate
        if gate is None:
            return None
        index = self.health_index
        if index is not None and instance_id not in index:
            return None
        return gate(instance_id, command_class)

    @traced("authz", lambda self, caller, instance_id, *rest: {
        "instance": instance_id})
    def _authorize(
        self, caller: Domain, instance_id: int, bound_identity_hex: Optional[str],
        wire: bytes,
    ) -> AuthorizationResult:
        self.checks += 1
        try:
            parsed = parse_command(wire)
        except MarshalError as exc:  # malformed frames: deny early
            return self._deny(
                f"dom{caller.domid}", instance_id, "malformed",
                f"unparseable command frame: {exc}",
            )
        ordinal = parsed.ordinal
        command_class = classify_ordinal(ordinal)
        operation = ordinal_name(ordinal)

        # Resilience gating runs before the decision cache: health state
        # changes without bumping any cache epoch, so a cached allow must
        # never bypass a quarantine.
        if self.health_gate is not None:
            veto = self.health_veto(instance_id, command_class)
            if veto is not None:
                return self._deny(
                    f"dom{caller.domid}", instance_id, operation, veto
                )

        cache_key: Optional[Tuple] = None
        if self.config.authz_cache:
            epoch = self._current_epoch()
            if epoch != self._cache_epoch:
                self._cache.clear()
                self._cache_epoch = epoch
            cache_key = (
                caller.domid, caller.measurement, instance_id, command_class,
            )
            hit = self._cache.get(cache_key)
            if hit is not None:
                self.cache_hits += 1
                _AC_CACHE_HIT.inc()
                charge("ac.policy.cache_hit")
                span_attr("cache", "hit")
                subject, reason = hit
                return self._allow(
                    subject, instance_id, operation, reason, parsed
                )
            self.cache_misses += 1
            span_attr("cache", "miss")
            _AC_CACHE_MISS.inc()

        subject, decision = decide(
            self.identities, self.policy, self.config, caller, instance_id,
            bound_identity_hex, ordinal,
        )
        if not decision.allowed:
            return self._deny(subject, instance_id, operation, decision.reason)
        # Only allows are cached; denials always re-derive so a fixed
        # policy or repaired identity takes effect immediately.
        if cache_key is not None:
            self._cache[cache_key] = (subject, decision.reason)
        return self._allow(
            subject, instance_id, operation, decision.reason, parsed
        )

    def on_fault(self, instance_id: int, exc: Exception) -> None:
        """A fault burned through the retry budget (or was a hard failure)
        and degraded into a ``TPM_FAIL`` response — chain it into the audit
        log so operators can distinguish chaos from attack."""
        if self.config.audit:
            self.audit.append_buffered(
                "manager", instance_id, "FAULT-DEGRADED", False, str(exc)
            )

    def on_rebind_denied(
        self, subject: str, instance_id: int, reason: str
    ) -> None:
        """A backend re-bind failed the fail-closed identity check: count
        it as a denial and chain it into the audit log — this is the rogue
        re-binding attack being stopped at the configuration layer."""
        self.denials += 1
        if _timing._current_context.registry is not None:
            _AC_DECISIONS_DENY.inc()
        if self.config.audit:
            self.audit.append_buffered(
                subject, instance_id, "VTPM_Rebind", False, reason
            )

    def _allow(
        self, subject: str, instance_id: int, operation: str, reason: str,
        parsed: ParsedCommand,
    ) -> AuthorizationResult:
        if self.config.audit:
            self.audit.append_buffered(
                subject, instance_id, operation, True, reason
            )
        return AuthorizationResult(
            allowed=True, subject=subject, operation=operation, reason=reason,
            parsed=parsed,
        )

    def _deny(
        self, subject: str, instance_id: int, operation: str, reason: str
    ) -> AuthorizationResult:
        self.denials += 1
        if self.config.audit:
            self.audit.append_buffered(
                subject, instance_id, operation, False, reason
            )
        return AuthorizationResult(
            allowed=False, subject=subject, operation=operation, reason=reason
        )
