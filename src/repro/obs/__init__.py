"""End-to-end observability: trace spans, counters, sinks.

The pipeline (frontend → ring → backend → manager → monitor → engine) is
instrumented with one :func:`traced` hook per layer plus :func:`inc`
counter sites.  Both read their observer off the run context
(``tracer`` and ``registry`` on
:class:`~repro.sim.timing.TimingContext`): with no observer set every
hook is a single ``None`` check, charges no virtual time, and touches no
simulation state — the integration suite asserts that traced and
untraced runs produce byte-identical state digests and audit chains.

Typical use::

    from repro import obs

    sink = obs.InMemorySink()
    counters = obs.CounterRegistry()
    with obs.observe(tracer=obs.Tracer(sink), registry=counters):
        guest.client.pcr_read(10)
    sink.validate()                     # structural oracle
    print(counters.exposition())        # text exposition format
"""

from repro.obs.counters import (
    CounterHandle,
    CounterRegistry,
    counter,
    inc,
    set_gauge,
)
from repro.obs.sinks import (
    CountingSink,
    InMemorySink,
    JsonlSink,
    SelfTimeSink,
    format_span_tree,
    load_jsonl,
    validate_tree_dict,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    span,
    span_attr,
    span_event,
    traced,
    validate_span_tree,
)
from repro.sim.timing import observe

__all__ = [
    "CounterHandle",
    "CounterRegistry",
    "CountingSink",
    "InMemorySink",
    "JsonlSink",
    "NULL_SPAN",
    "SelfTimeSink",
    "Span",
    "Tracer",
    "counter",
    "format_span_tree",
    "inc",
    "load_jsonl",
    "observe",
    "set_gauge",
    "span",
    "span_attr",
    "span_event",
    "traced",
    "validate_span_tree",
    "validate_tree_dict",
]
