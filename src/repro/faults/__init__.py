"""Deterministic fault injection and recovery instrumentation.

The subsystem has three pieces:

* :mod:`repro.faults.plan` — :class:`FaultKind`, :class:`FaultSpec` and
  :class:`FaultPlan`: an immutable, seeded description of which faults
  fire at which hook sites and when;
* :mod:`repro.faults.injector` — :class:`FaultInjector` plus the
  ``fire()`` hook the instrumented layers call (ring transfers, storage,
  TPM devices, migration);
* :mod:`repro.faults.retry` — :func:`with_retry`, the bounded
  backoff-in-virtual-time loop the recovery paths share.

The injector rides on the run context: ``observe(injector=inj)`` (from
:mod:`repro.sim.timing`) arms it for a block, and every hook reads
``TimingContext.injector``.  With none set every hook is a single
``None`` check, so the fault-free fast path stays fault-free and free.
"""

from repro.faults.injector import (
    FaultEvent,
    FaultInjector,
    fire,
    note_recovery,
    note_retry,
)
from repro.faults.plan import KIND_SITES, FaultKind, FaultPlan, FaultSpec, spec
from repro.faults.retry import DEFAULT_ATTEMPTS, DEFAULT_BACKOFF_US, with_retry

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "KIND_SITES",
    "DEFAULT_ATTEMPTS",
    "DEFAULT_BACKOFF_US",
    "fire",
    "note_recovery",
    "note_retry",
    "spec",
    "with_retry",
]
