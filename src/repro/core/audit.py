"""Append-only, hash-chained audit log for access decisions.

Every monitor decision (allow *and* deny) produces a record; records chain
``h_i = SHA-256(h_{i-1} || record_i)`` so truncation or in-place edits are
detectable — the standard response to "the attacker owns the log file".

The hot path uses **buffered chaining**: :meth:`AuditLog.append_buffered`
captures the record fields and encoded bytes immediately (and charges the
modeled ``ac.audit.append`` cost at that point), but defers the SHA-256
chain extension until the log is next *read* — so a burst of commands pays
one tight hashing loop instead of interleaving a digest into every
dispatch.  The final chain hash is byte-identical to eager chaining: the
encoded bytes and their order are fixed at append time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List

from repro.obs.trace import traced
from repro.sim import timing as _timing
from repro.sim.timing import charge

GENESIS = hashlib.sha256(b"vtpm-audit-genesis").digest()


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """One immutable audit entry."""

    sequence: int
    timestamp_us: float
    subject: str            # identity hex (or 'dom<N>' pre-identity)
    instance: object
    operation: str          # ordinal name
    allowed: bool
    reason: str
    chain_hash: bytes = b""

    def encode(self) -> bytes:
        return (
            f"{self.sequence}|{self.timestamp_us:.3f}|{self.subject}|"
            f"{self.instance}|{self.operation}|"
            f"{'ALLOW' if self.allowed else 'DENY'}|{self.reason}"
        ).encode("utf-8")

    def encode_decision(self) -> bytes:
        """The timestamp-free encoding: only decision-relevant fields.

        Two runs that take different amounts of *virtual time* but make
        the same decisions (e.g. authz cache on vs off) agree on this
        encoding while their full chains legitimately differ.
        """
        return (
            f"{self.sequence}|{self.subject}|{self.instance}|"
            f"{self.operation}|{'ALLOW' if self.allowed else 'DENY'}|"
            f"{self.reason}"
        ).encode("utf-8")


class AuditLog:
    """The manager's append-only decision log."""

    __slots__ = ("_flushed", "_pending", "_chain_head")

    def __init__(self) -> None:
        self._flushed: List[AuditRecord] = []
        #: appended-but-not-yet-chained entries:
        #: (sequence, timestamp_us, subject, instance, op, allowed, reason, encoded)
        self._pending: List[tuple] = []
        self._chain_head = GENESIS

    # -- the write path ----------------------------------------------------------

    @traced("audit")
    def append_buffered(
        self,
        subject: str,
        instance: object,
        operation: str,
        allowed: bool,
        reason: str,
    ) -> None:
        """Record a decision without extending the hash chain yet.

        The encoded bytes (and therefore the eventual chain hash) are fully
        determined here; only the SHA-256 work is deferred to the next read.
        """
        pending = self._pending
        sequence = len(self._flushed) + len(pending)
        timestamp_us = _timing._current_context.clock.now_us
        encoded = (
            f"{sequence}|{timestamp_us:.3f}|{subject}|"
            f"{instance}|{operation}|"
            f"{'ALLOW' if allowed else 'DENY'}|{reason}"
        ).encode("utf-8")
        charge("ac.audit.append", len(encoded))
        pending.append(
            (sequence, timestamp_us, subject, instance, operation, allowed,
             reason, encoded)
        )

    def append(
        self,
        subject: str,
        instance: object,
        operation: str,
        allowed: bool,
        reason: str,
    ) -> AuditRecord:
        """Append and chain immediately; returns the finished record."""
        self.append_buffered(subject, instance, operation, allowed, reason)
        self._flush()
        return self._flushed[-1]

    def _flush(self) -> None:
        """Extend the chain over every pending entry (one tight loop)."""
        if not self._pending:
            return
        head = self._chain_head
        sha256 = hashlib.sha256
        flushed = self._flushed
        for (sequence, timestamp_us, subject, instance, operation, allowed,
             reason, encoded) in self._pending:
            head = sha256(head + encoded).digest()
            flushed.append(
                AuditRecord(
                    sequence=sequence,
                    timestamp_us=timestamp_us,
                    subject=subject,
                    instance=instance,
                    operation=operation,
                    allowed=allowed,
                    reason=reason,
                    chain_hash=head,
                )
            )
        self._pending.clear()
        self._chain_head = head

    # -- internal views (tests poke these; keep them flush-consistent) ----------

    @property
    def _records(self) -> List[AuditRecord]:
        self._flush()
        return self._flushed

    @_records.setter
    def _records(self, value: List[AuditRecord]) -> None:
        self._flush()
        self._flushed = list(value)

    @property
    def _head(self) -> bytes:
        self._flush()
        return self._chain_head

    @_head.setter
    def _head(self, value: bytes) -> None:
        self._flush()
        self._chain_head = value

    # -- verification -----------------------------------------------------------

    def chain_head(self) -> bytes:
        """The current chain head (flushes pending entries first)."""
        self._flush()
        return self._chain_head

    def decision_chain_hash(self) -> bytes:
        """Chain hash over the timestamp-free decision encodings.

        The differential oracle compares this across configurations whose
        virtual-time costs differ by design (decision cache on vs off):
        equality means every record agrees on sequence, subject, instance,
        operation, verdict and reason — everything but the clock.
        """
        head = GENESIS
        for record in self._records:
            head = hashlib.sha256(head + record.encode_decision()).digest()
        return head

    def verify_chain(self) -> bool:
        """Recompute the whole chain; False means tampering."""
        self._flush()
        head = GENESIS
        for record in self._flushed:
            head = hashlib.sha256(head + record.encode()).digest()
            if head != record.chain_hash:
                return False
        return head == self._chain_head

    # -- queries -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._flushed) + len(self._pending)

    def records(self) -> List[AuditRecord]:
        return list(self._records)

    def denials(self) -> List[AuditRecord]:
        return [r for r in self._records if not r.allowed]

    def for_subject(self, subject: str) -> List[AuditRecord]:
        return [r for r in self._records if r.subject == subject]

    def for_instance(self, instance: object) -> List[AuditRecord]:
        return [r for r in self._records if r.instance == instance]

    def tail(self, count: int = 10) -> List[AuditRecord]:
        return self._records[-count:]
