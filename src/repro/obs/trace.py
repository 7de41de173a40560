"""Hierarchical trace spans over the command pipeline.

A :class:`Span` covers one stage of a command's life (parse → authz →
engine → serialize → ring/audit) and carries *both* timebases the
simulator knows about:

* **virtual microseconds** — read from the ambient
  :class:`~repro.sim.timing.TimingContext` clock, so span durations add up
  exactly to the cost-model charges made inside them;
* **wall-clock nanoseconds** — ``time.perf_counter_ns`` on the host, so
  the harness's own hot-path cost is attributable per stage.  Wall
  capture is *sink-declared*: a sink with ``wants_wall = False`` (the
  counting and JSONL sinks — their artifacts are deterministic functions
  of the seed) skips both host-clock reads per span, the single most
  expensive instruction in the span lifecycle on virtualized hosts.

A run's tracer lives on the run context
(:attr:`~repro.sim.timing.TimingContext.tracer`, set with
:func:`~repro.sim.timing.observe`).  The contract is the same as the
fault injector's :func:`~repro.faults.injector.fire`: with no tracer on
the context a hook is one ``None`` check, charges nothing to the virtual
clock, and touches no simulation state — so tracing can never alter
behaviour, enabled or not.  Spans only ever *read* the clock; they never
advance it.

The pipeline layers carry **one hook per layer**: :func:`traced`, a
decorator on each layer's existing entry method.  With no tracer the
wrapper reads the context once and calls through, so traced and untraced
runs share one code path; its optional ``attrs`` callable runs only when
a span is recorded, and :func:`span_attr` sets attributes found
mid-call.  Other sites use :func:`span`, which returns a shared no-op
span when tracing is off.  Attribute dicts are captured **lazily** — the
span stores the reference and copies nothing until :meth:`Span.set`.

A :class:`Tracer` keeps the open-span stack.  When a root span closes,
the finished tree is emitted to the tracer's sink (see
:mod:`repro.obs.sinks`).  Because the simulator is single-threaded and
the split driver is synchronous, the stack nesting *is* the causal
nesting: ``frontend.command`` encloses ``ring.send`` encloses
``manager.dispatch`` encloses ``authz``/``engine``/``serialize``.

Two cost features keep tracing near-free:

* **span pooling** — when the sink does not retain emitted trees (its
  ``retains`` attribute is ``False``, as for the counting and JSONL
  sinks), every span of a finished tree is recycled into a free list and
  reused — including its child list and event list objects — so the
  steady state allocates nothing per command;
* **deterministic head sampling** — ``Tracer(sink, sample_rate=N)``
  records only roots whose zero-based index ``i`` satisfies
  ``(i - sample_seed) % N == 0``.  The schedule is a pure function of
  the root count and the seed: no RNG, no clock, so two same-seed runs
  sample the identical trees (replay-identical) and neither timebase is
  perturbed.  While a root is suppressed the tracer hides itself from
  the run context, so nested hooks take their tracer-is-None path — a
  skipped tree costs one sampling check, not one span per layer.
  Counters are unaffected by sampling — they stay exact.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, Iterator, List, Optional

from repro.sim import timing as _timing
from repro.sim.timing import get_context
from repro.util.errors import ReproError

#: recycled spans kept per tracer; trees are ~10 spans, so this is ample
_POOL_CAP = 1024


class Span:
    """One timed stage; a context manager that closes itself on exit."""

    __slots__ = (
        "name", "attrs", "start_virtual_us", "end_virtual_us",
        "start_wall_ns", "end_wall_ns", "children", "events", "_tracer",
        "_ctx",
    )

    def __init__(self, name: str, attrs: Optional[Dict] = None,
                 tracer: Optional["Tracer"] = None, wall: bool = True) -> None:
        self.name = name
        # Lazy capture: the caller's dict is stored by reference (hot sites
        # pass a fresh literal); None means "no attributes yet".
        self.attrs: Optional[Dict] = attrs
        self._ctx = get_context()
        self.start_virtual_us = self._ctx.clock._now_us
        self.end_virtual_us: Optional[float] = None
        # Wall capture is sink-declared (``wants_wall``); with it off both
        # endpoints read 0 — host clock reads are the single most
        # expensive instruction in the span lifecycle on virtualized hosts.
        self.start_wall_ns = time.perf_counter_ns() if wall else 0
        self.end_wall_ns: Optional[int] = None
        self.children: List["Span"] = []
        self.events: List[Dict] = []
        self._tracer = tracer

    # -- recording ---------------------------------------------------------------

    def set(self, key: str, value) -> "Span":
        """Attach an attribute discovered mid-span (e.g. cache hit/miss)."""
        if self.attrs is None:
            self.attrs = {key: value}
        else:
            self.attrs[key] = value
        return self

    def add_event(self, name: str, **attrs) -> None:
        """A point-in-time annotation (e.g. an injected fault)."""
        self.events.append(
            {"name": name, "t_us": get_context().clock.now_us, **attrs}
        )

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._tracer is not None:
            self._tracer._finish(self)

    @property
    def closed(self) -> bool:
        return self.end_virtual_us is not None

    @property
    def duration_virtual_us(self) -> float:
        if self.end_virtual_us is None:
            raise ReproError(f"span {self.name!r} is still open")
        return self.end_virtual_us - self.start_virtual_us

    @property
    def duration_wall_ns(self) -> int:
        if self.end_wall_ns is None:
            raise ReproError(f"span {self.name!r} is still open")
        return self.end_wall_ns - self.start_wall_ns

    # -- views -------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-friendly nested view (the JSONL sink writes these)."""
        out: Dict = {
            "name": self.name,
            "virtual_us": [self.start_virtual_us, self.end_virtual_us],
        }
        if self.end_wall_ns:
            # Only when the sink captured wall time; omitting it keeps the
            # offline artifact a pure function of the seed.
            out["wall_ns"] = [self.start_wall_ns, self.end_wall_ns]
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.events:
            out["events"] = list(self.events)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every descendant (or self) with the given name."""
        return [s for s in self.walk() if s.name == name]

    def __repr__(self) -> str:
        state = (
            f"{self.duration_virtual_us:.2f}us" if self.closed else "open"
        )
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class _NullSpan:
    """The shared no-op span returned when tracing is off.

    Every method is deliberately trivial: the disabled hot path must cost
    one attribute lookup and a no-op context-manager round trip, nothing
    more — and it must never touch the clock or any simulation state.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, key: str, value) -> "_NullSpan":
        return self

    def add_event(self, name: str, **attrs) -> None:
        return None


NULL_SPAN = _NullSpan()


class _SkipScope:
    """Returned for a sampled-out root span.

    While a root is suppressed the tracer **hides itself** from the run
    context (its ``tracer`` reads ``None`` for the root's dynamic extent),
    so every nested hook takes its plain tracer-is-None path — a skipped
    tree costs one sampling check at the root, not one span per layer.
    ``__exit__`` puts the tracer back on that context.
    One shared instance per tracer; skipped roots cannot nest (nested
    sites never see the tracer while it is hidden).
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __enter__(self) -> "_SkipScope":
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self._tracer
        tracer._skipping = False
        hid_on = tracer._hid_on
        if hid_on is not None:
            tracer._hid_on = None
            hid_on.tracer = tracer

    def set(self, key: str, value) -> "_SkipScope":
        return self

    def add_event(self, name: str, **attrs) -> None:
        return None


class Tracer:
    """Owns the open-span stack and emits finished root trees to a sink.

    ``sample_rate=N`` keeps 1-in-N root trees (deterministic head
    sampling; ``sample_seed`` rotates which residue class is kept).
    Suppressed roots hide the tracer for their dynamic extent, and —
    when the sink's ``retains`` attribute is false — emitted spans are
    pooled and reused, child lists and all.
    """

    def __init__(self, sink=None, sample_rate: int = 1,
                 sample_seed: int = 0) -> None:
        if sink is None:
            from repro.obs.sinks import InMemorySink

            sink = InMemorySink()
        self.sink = sink
        self.sample_rate = max(1, int(sample_rate))
        self.sample_seed = int(sample_seed)
        self._retains = bool(getattr(sink, "retains", True))
        #: sinks that never read span wall times (counting, JSONL) opt out
        #: of the two host-clock reads per span via ``wants_wall = False``
        self._wall = bool(getattr(sink, "wants_wall", True))
        self._stack: List[Span] = []
        self._pool: List[Span] = []
        self._skipping = False
        #: the context this tracer hid itself from for a suppressed root
        self._hid_on = None
        self._root_claimed = False
        self._skip_scope = _SkipScope(self)
        self.spans_started = 0
        #: roots *seen* (sampled or not) — the sampling schedule's input
        self.roots_seen = 0
        self.roots_emitted = 0
        self.roots_skipped = 0

    def keep_root(self) -> bool:
        """Consume the next root index; ``True`` if that root is recorded.

        The root fast path of :func:`traced`: the hook asks for the
        sampling verdict *before* building its attribute dict and, on
        ``False``, runs the call with the context's tracer hidden (no
        span machinery at all).  On ``True`` the verdict is remembered,
        so the immediately following ``start_span`` does not re-sample
        (the root is not double-counted).
        """
        index = self.roots_seen
        self.roots_seen = index + 1
        rate = self.sample_rate
        if rate <= 1 or not (index - self.sample_seed) % rate:
            self._root_claimed = True
            return True
        self.roots_skipped += 1
        return False

    def start_span(self, name: str, attrs: Optional[Dict] = None) -> Span:
        if self._skipping:
            # Direct call on a captured tracer inside a suppressed root
            # (context read sites never get here: the tracer is hidden).
            return NULL_SPAN
        stack = self._stack
        if not stack:
            if self._root_claimed:
                self._root_claimed = False  # keep_root() already sampled
            else:
                index = self.roots_seen
                self.roots_seen = index + 1
                rate = self.sample_rate
                if rate > 1 and (index - self.sample_seed) % rate:
                    self.roots_skipped += 1
                    self._skipping = True
                    ctx = _timing._current_context
                    if ctx.tracer is self:
                        self._hid_on = ctx
                        ctx.tracer = None
                    return self._skip_scope
        pool = self._pool
        if pool:
            span = pool.pop()
            span.name = name
            span.attrs = attrs
            ctx = _timing._current_context
            span._ctx = ctx
            span.start_virtual_us = ctx.clock._now_us
            span.end_virtual_us = None
            span.start_wall_ns = time.perf_counter_ns() if self._wall else 0
            span.end_wall_ns = None
        else:
            span = Span(name, attrs, tracer=self, wall=self._wall)
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        self.spans_started += 1
        return span

    def _finish(self, span: Span) -> None:
        stack = self._stack
        if not stack or stack[-1] is not span:
            innermost = stack[-1].name if stack else "<none>"
            raise ReproError(
                f"mismatched span nesting: closing {span.name!r} but the "
                f"innermost open span is {innermost!r}"
            )
        stack.pop()
        ctx = span._ctx
        if _timing._current_context is not ctx:
            raise ReproError(
                f"span {span.name!r} crosses a timing-context reset; its "
                "virtual interval would mix measurement epochs — close all "
                "spans before calling fresh_timing_context()"
            )
        span.end_virtual_us = ctx.clock._now_us
        span.end_wall_ns = time.perf_counter_ns() if self._wall else 0
        if not stack:
            self.roots_emitted += 1
            self.sink.emit(span)
            if not self._retains:
                self._recycle(span)

    def _recycle(self, root: Span) -> None:
        """Return every span of a finished, emitted tree to the free list.

        Only called for non-retaining sinks, so nothing holds a reference
        to the tree anymore.  Child/event list objects are kept on their
        span and cleared, so reuse allocates nothing.
        """
        pool = self._pool
        todo = [root]
        while todo:
            span = todo.pop()
            children = span.children
            if children:
                todo.extend(children)
                children.clear()
            if span.events:
                span.events.clear()
            span.attrs = None
            span._ctx = None
            if len(pool) < _POOL_CAP:
                pool.append(span)

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None


def traced(name: str, attrs: Optional[Callable[..., Dict]] = None):
    """Decorator: open span ``name`` around every call of the function.

    ``attrs`` receives the call's arguments and returns the span's
    attribute dict; it runs only when a span is recorded.  Positional
    arguments only: a ``**kwargs`` pass-through costs every call on the
    command path.  A sampled-out root runs with the tracer hidden from
    the context (restored even if the call raises), so every hook
    nested under it takes the untraced path.
    """
    timing = _timing

    def decorate(fn):
        def hooked(*args):
            ctx = timing._current_context
            tracer = ctx.tracer
            if tracer is None:
                return fn(*args)
            if not tracer._stack and not tracer.keep_root():
                ctx.tracer = None
                try:
                    return fn(*args)
                finally:
                    ctx.tracer = tracer
            with tracer.start_span(
                name, None if attrs is None else attrs(*args)
            ):
                return fn(*args)

        return functools.update_wrapper(hooked, fn)

    return decorate


def span_attr(key: str, value) -> None:
    """Set an attribute on the innermost open span (no-op untraced)."""
    tracer = _timing._current_context.tracer
    if tracer is not None and tracer._stack:
        tracer._stack[-1].set(key, value)


def span(name: str, **attrs):
    """Open a span at a hook site; a shared no-op when tracing is off."""
    tracer = _timing._current_context.tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.start_span(name, attrs or None)


def span_event(name: str, **attrs) -> None:
    """Annotate the innermost open span (no-op when tracing is off)."""
    tracer = _timing._current_context.tracer
    if tracer is not None and tracer._stack:
        tracer._stack[-1].add_event(name, **attrs)


def validate_span_tree(root: Span) -> None:
    """Structural oracle: raises :class:`ReproError` on a malformed tree.

    Checks, for every span in the tree: it is closed, its interval is
    non-negative in both timebases, and every child's virtual interval
    nests inside its parent's.  Orphans are impossible by construction
    (spans attach to the stack top at start), but a tree handed across a
    serialization boundary is re-checked here all the same.
    """
    for parent in root.walk():
        if not parent.closed or parent.end_wall_ns is None:
            raise ReproError(f"span {parent.name!r} was never closed")
        if parent.end_virtual_us < parent.start_virtual_us:
            raise ReproError(f"span {parent.name!r} ends before it starts")
        if parent.end_wall_ns < parent.start_wall_ns:
            raise ReproError(
                f"span {parent.name!r} wall-clock interval is negative"
            )
        for child in parent.children:
            if not child.closed:
                raise ReproError(f"span {child.name!r} was never closed")
            if (child.start_virtual_us < parent.start_virtual_us
                    or child.end_virtual_us > parent.end_virtual_us):
                raise ReproError(
                    f"span {child.name!r} "
                    f"[{child.start_virtual_us}, {child.end_virtual_us}] is "
                    f"not nested in parent {parent.name!r} "
                    f"[{parent.start_virtual_us}, {parent.end_virtual_us}]"
                )
