"""Cost model and time-charging machinery.

Every operation with a performance consequence — a hash, an RSA signature, a
hypercall, a ring transfer, a policy lookup — is *charged* by name through
:func:`charge`.  The active :class:`CostModel` converts (operation, units)
into virtual microseconds; the ambient clock advances; and any open
:class:`CostLedger` scopes record the charge so experiments can break total
latency down by component (Table 4 ablation).

The default cost table is calibrated to published 2010-era numbers for a
software vTPM on a Xen host (Core 2-class server, OpenSSL software crypto,
Xen 3.x microbenchmarks).  Absolute values only set the scale; the
experiments report *relative* overheads, which depend on the ratios.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.sim.clock import VirtualClock
from repro.util.errors import SimulationError

# (fixed microseconds per call, microseconds per unit) — unit is op-specific:
# bytes for bulk ops, entries for lookups, 1 for fixed-cost ops.
_DEFAULT_COSTS: Dict[str, Tuple[float, float]] = {
    # -- crypto (software, 2010-era server core) ---------------------------
    "hash.sha1": (0.9, 0.0042),            # ~10.5 cycles/byte @ 2.5 GHz
    "hash.sha256": (1.0, 0.0062),          # ~15.5 cycles/byte
    "mac.hmac": (2.2, 0.0065),             # two hash passes + key schedule
    "cipher.sym": (1.1, 0.0080),           # AES-128-CBC-class bulk cipher
    "rsa.sign.1024": (0.0, 0.0),           # per-call costs below (units=1)
    "rsa.sign.2048": (0.0, 0.0),
    "rsa.verify.1024": (0.0, 0.0),
    "rsa.verify.2048": (0.0, 0.0),
    "rsa.keygen.2048": (0.0, 0.0),
    "rng.bytes": (0.6, 0.05),              # PRNG reseed amortised
    # -- Xen substrate ------------------------------------------------------
    "xen.hypercall": (0.45, 0.0),
    "xen.evtchn.notify": (1.1, 0.0),
    "xen.grant.map": (0.75, 0.0),
    "xen.grant.unmap": (0.70, 0.0),
    "xen.page.copy": (0.25, 0.00025),      # per byte; 4 KiB ~ 1.3 us
    "xen.ring.transfer": (0.8, 0.0011),    # shared-ring copy per byte
    "xen.ctx.switch": (3.0, 0.0),
    "xen.xenstore.op": (48.0, 0.0),        # RPC bounce through Dom0 daemon
    "xen.domain.build": (210_000.0, 0.0),  # domain creation path (~210 ms)
    # -- vTPM subsystem -----------------------------------------------------
    "vtpm.dispatch": (4.5, 0.0),           # manager packet demux + thread hop
    "vtpm.instance.lookup": (0.5, 0.0),
    "vtpm.instance.create": (950.0, 0.0),  # state init excl. crypto charges
    "vtpm.storage.write": (7800.0, 0.00055),  # HDD-era flush + per byte
    "vtpm.storage.read": (5200.0, 0.00045),
    "vtpm.migration.net": (120.0, 0.0105),    # per byte on GbE w/ setup
    # -- fault injection & recovery -----------------------------------------
    "fault.ring.stall": (4_000.0, 0.0),      # late kick: scheduler-tick class delay
    "fault.ring.timeout": (10_000.0, 0.0),   # tpmfront waits this long before re-kick
    "fault.retry.backoff": (0.0, 1.0),       # units = microseconds of backoff slept
    "fault.storage.torn": (1_100.0, 0.0),    # partial flush before the cut
    "fault.device.transient": (55.0, 0.0),   # aborted bus transaction
    "fault.device.wedge": (30_000.0, 0.0),   # wedged command: driver-timeout-class hang
    "vtpm.migration.retry": (6_500.0, 0.0),  # tear down + rebuild one transfer attempt
    # -- supervision (resilience layer; charges only on the fault path) -----
    "supervisor.wait": (0.0, 1.0),           # units = microseconds waited for a probe window
    "supervisor.restart": (1_500.0, 0.0),    # teardown + re-verify bookkeeping per restart
    # -- access-control layer (the contribution) ----------------------------
    "ac.identity.check": (0.35, 0.0),      # cached measurement compare
    "ac.identity.measure": (2.0, 0.0),     # plus explicit hash charges
    "ac.policy.lookup": (0.55, 0.0),       # hash-table rule match
    "ac.policy.cache_hit": (0.08, 0.0),    # epoch check + decision-cache hit
    "ac.policy.compile": (2.5, 0.9),       # per rule, build-time only
    "ac.audit.append": (1.4, 0.0008),      # buffered append per byte
    "ac.seal.derive": (3.0, 0.0),          # KDF invocation bookkeeping
    # -- TPM command fixed costs (software TPM execution overhead) ----------
    "tpm.cmd.base": (14.0, 0.0),           # parse + dispatch + build reply
    "tpm.pcr.extend": (0.8, 0.0),
    "tpm.nv.access": (2.0, 0.0),
}

# Per-call costs for RSA, charged with units=1 (microseconds per operation).
_RSA_CALL_US = {
    "rsa.sign.1024": 1_450.0,
    "rsa.sign.2048": 4_900.0,
    "rsa.verify.1024": 65.0,
    "rsa.verify.2048": 140.0,
    "rsa.keygen.2048": 165_000.0,
}


class CostModel:
    """Maps named operations to virtual-time costs.

    Parameters
    ----------
    overrides:
        Optional ``{op: (fixed_us, per_unit_us)}`` replacing defaults.
    cpu_scale:
        Multiplier applied to every cost (``0.5`` = a CPU twice as fast).
    """

    def __init__(
        self,
        overrides: Optional[Dict[str, Tuple[float, float]]] = None,
        cpu_scale: float = 1.0,
    ) -> None:
        if cpu_scale <= 0:
            raise SimulationError(f"cpu_scale must be positive, got {cpu_scale}")
        self._table: Dict[str, Tuple[float, float]] = dict(_DEFAULT_COSTS)
        for op, per_call in _RSA_CALL_US.items():
            self._table[op] = (0.0, per_call)
        if overrides:
            self._table.update(overrides)
        self.cpu_scale = cpu_scale
        # Pre-scaled (fixed, per-unit) tuples: the hot path is one dict
        # lookup plus a multiply-add, with no per-call scaling arithmetic.
        self._scaled: Dict[str, Tuple[float, float]] = {
            op: (fixed * cpu_scale, per_unit * cpu_scale)
            for op, (fixed, per_unit) in self._table.items()
        }

    def known_ops(self) -> frozenset[str]:
        return frozenset(self._table)

    def cost_us(self, op: str, units: float = 1.0) -> float:
        """Virtual microseconds for one call of ``op`` over ``units`` units."""
        try:
            fixed, per_unit = self._scaled[op]
        except KeyError:
            raise SimulationError(f"unknown cost-model operation {op!r}") from None
        if units < 0:
            raise SimulationError(f"negative units {units} for {op!r}")
        return fixed + per_unit * units


@dataclass
class CostLedger:
    """Accumulates charges, grouped by operation name.

    Used for the ablation breakdown: open a ledger scope around a component
    and read back exactly what that component cost.
    """

    name: str = "ledger"
    total_us: float = 0.0
    calls: Dict[str, int] = field(default_factory=dict)
    cost_by_op: Dict[str, float] = field(default_factory=dict)

    def record(self, op: str, cost_us: float) -> None:
        self.total_us += cost_us
        self.calls[op] = self.calls.get(op, 0) + 1
        self.cost_by_op[op] = self.cost_by_op.get(op, 0.0) + cost_us

    def cost_for_prefix(self, prefix: str) -> float:
        """Total cost of all ops whose name starts with ``prefix``."""
        return sum(c for op, c in self.cost_by_op.items() if op.startswith(prefix))

    def reset(self) -> None:
        self.total_us = 0.0
        self.calls.clear()
        self.cost_by_op.clear()


class TimingContext:
    """The ambient run context: cost model, clock, ledger stack, observers.

    The simulation is single-threaded, so a module-level current context is
    safe and saves plumbing a handle through every substrate call.  Besides
    the (model, clock, ledger-stack) triple used by :func:`charge`, the
    context carries the run's observers, ``tracer`` (a
    :class:`~repro.obs.trace.Tracer`) and ``registry`` (a
    :class:`~repro.obs.counters.CounterRegistry`), and its fault
    ``injector`` (a :class:`~repro.faults.injector.FaultInjector`).  Hook
    sites read them straight off the context; ``None`` means "not
    observed" or "no faults", which is how a bare ``TimingContext()``
    starts.  Use :func:`observe` to set them.
    """

    __slots__ = ("model", "clock", "_ledgers", "tracer", "registry",
                 "injector")

    def __init__(self, model: Optional[CostModel] = None,
                 clock: Optional[VirtualClock] = None) -> None:
        self.model = model or CostModel()
        self.clock = clock or VirtualClock()
        self._ledgers: list[CostLedger] = []
        self.tracer = None
        self.registry = None
        self.injector = None

    def charge(self, op: str, units: float = 1.0) -> float:
        """Charge one operation: advance the clock, feed open ledgers.

        This is the hottest function in the simulator (a dozen-plus calls
        per vTPM command), so it reads the pre-scaled cost tuple directly
        and only walks the ledger stack when a scope is actually open.
        """
        try:
            fixed, per_unit = self.model._scaled[op]
        except KeyError:
            raise SimulationError(f"unknown cost-model operation {op!r}") from None
        if units < 0:
            raise SimulationError(f"negative units {units} for {op!r}")
        cost = fixed + per_unit * units
        if cost < 0:
            raise SimulationError(f"negative cost {cost} for {op!r}")
        self.clock._now_us += cost
        if self._ledgers:
            for ledger in self._ledgers:
                ledger.record(op, cost)
        return cost

    def push_ledger(self, ledger: CostLedger) -> None:
        self._ledgers.append(ledger)

    def pop_ledger(self) -> CostLedger:
        if not self._ledgers:
            raise SimulationError("ledger stack underflow")
        return self._ledgers.pop()


_current_context = TimingContext()


def get_context() -> TimingContext:
    return _current_context


def fresh_timing_context(cpu_scale: float = 1.0) -> TimingContext:
    """Install a fresh clock+model epoch; returns the new context.

    Experiments call this first so measurements start at t=0 with no
    charges leaked from module import or previous runs.  The current
    observers carry over, so an installed tracer or registry sees the
    epoch change and its epoch guard fires on a stale write.  The
    current fault injector carries over too.
    """
    global _current_context
    previous = _current_context
    ctx = TimingContext(model=CostModel(cpu_scale=cpu_scale))
    ctx.tracer = previous.tracer
    ctx.registry = previous.registry
    ctx.injector = previous.injector
    _current_context = ctx
    return ctx


def check_epoch(bound: Optional[TimingContext], owner: str,
                unbind: str) -> TimingContext:
    """The epoch rule shared by every piece of observation state.

    Counter registries, counter handles and latency recorders bind to the
    context they first record under (``bound`` is ``None`` until then).
    Recording under any other context would mix measurement epochs, so
    it raises; ``unbind`` names the method that drops the binding.
    Returns the context to bind.
    """
    ctx = _current_context
    if bound is None or bound is ctx:
        return ctx
    raise SimulationError(
        f"{owner} is bound to an earlier timing context; data recorded "
        "across a sim-context reset would mix measurement epochs — call "
        f"{unbind}() (or use a fresh {owner}) after fresh_timing_context()"
    )


@contextlib.contextmanager
def observe(tracer=None, registry=None,
            injector=None) -> Iterator[TimingContext]:
    """Attach observers or a fault injector to the current context for
    the block.

    ``None`` leaves that slot as it is.  On exit the previous values come
    back, on the context the block started under and on any context a
    ``fresh_timing_context()`` inside the block installed.
    """
    ctx = _current_context
    previous = (ctx.tracer, ctx.registry, ctx.injector)
    if tracer is not None:
        ctx.tracer = tracer
    if registry is not None:
        ctx.registry = registry
    if injector is not None:
        ctx.injector = injector
    try:
        yield ctx
    finally:
        ctx.tracer, ctx.registry, ctx.injector = previous
        current = _current_context
        current.tracer, current.registry, current.injector = previous


def charge(op: str, units: float = 1.0) -> float:
    """Charge an operation against the ambient context (main entry point).

    Inlines :meth:`TimingContext.charge` (rather than delegating) to save
    a call frame: this is the single hottest function in the simulator.
    """
    ctx = _current_context
    try:
        fixed, per_unit = ctx.model._scaled[op]
    except KeyError:
        raise SimulationError(f"unknown cost-model operation {op!r}") from None
    if units < 0:
        raise SimulationError(f"negative units {units} for {op!r}")
    cost = fixed + per_unit * units
    if cost < 0:
        raise SimulationError(f"negative cost {cost} for {op!r}")
    ctx.clock._now_us += cost
    if ctx._ledgers:
        for ledger in ctx._ledgers:
            ledger.record(op, cost)
    return cost


def current_ledger() -> Optional[CostLedger]:
    """The innermost open ledger, if any."""
    return _current_context._ledgers[-1] if _current_context._ledgers else None


@contextlib.contextmanager
def ledger_scope(ledger: Optional[CostLedger] = None,
                 name: str = "ledger") -> Iterator[CostLedger]:
    """Open a ledger scope: every charge inside is recorded into it."""
    led = ledger if ledger is not None else CostLedger(name=name)
    ctx = _current_context
    ctx.push_ledger(led)
    try:
        yield led
    finally:
        popped = ctx.pop_ledger()
        if popped is not led:
            raise SimulationError("mismatched ledger_scope nesting")


@contextlib.contextmanager
def context_scope(ctx: TimingContext) -> Iterator[TimingContext]:
    """Temporarily install ``ctx`` (and its observers) as the ambient context."""
    global _current_context
    previous = _current_context
    _current_context = ctx
    try:
        yield ctx
    finally:
        _current_context = previous
