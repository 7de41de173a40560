"""Unit tests for the observability layer (spans, counters, sinks) and the
timing-context binding rules it shares with the latency recorder."""

from __future__ import annotations

import json

import pytest

from repro.harness.builder import fresh_timing_context
from repro.metrics.recorder import LatencyRecorder
from repro.obs import (
    NULL_SPAN,
    CounterRegistry,
    CountingSink,
    InMemorySink,
    JsonlSink,
    Tracer,
    format_span_tree,
    load_jsonl,
    observe,
    span,
    span_attr,
    span_event,
    traced,
    validate_span_tree,
    validate_tree_dict,
)
from repro.sim.timing import charge, get_context
from repro.util.errors import ReproError


class TestSpans:
    def test_disabled_hook_returns_shared_null_span(self):
        assert get_context().tracer is None
        s = span("anything", key="value")
        assert s is NULL_SPAN
        with s as inner:
            inner.set("x", 1)
            inner.add_event("ignored")
        span_event("also-ignored")  # must not raise with no tracer

    def test_span_carries_both_timebases(self):
        tracer = Tracer(InMemorySink())
        with observe(tracer=tracer):
            with span("work") as s:
                charge("tpm.cmd.base")
        assert s.closed
        assert s.duration_virtual_us > 0
        assert s.duration_wall_ns > 0

    def test_nesting_follows_the_stack(self):
        tracer = Tracer(InMemorySink())
        with observe(tracer=tracer):
            with span("root"):
                with span("child-a"):
                    charge("tpm.cmd.base")
                with span("child-b") as b:
                    with span("grandchild"):
                        pass
                span_event("note", detail=7)
        (root,) = tracer.sink.roots
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert [c.name for c in b.children] == ["grandchild"]
        assert root.events[0]["name"] == "note"
        validate_span_tree(root)
        assert tracer.open_spans == 0

    def test_mismatched_close_raises(self):
        tracer = Tracer(InMemorySink())
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        with pytest.raises(ReproError, match="mismatched span nesting"):
            tracer._finish(outer)

    def test_span_crossing_context_reset_raises(self):
        """A span left open across fresh_timing_context() would report a
        virtual interval mixing two epochs — it must refuse instead."""
        tracer = Tracer(InMemorySink())
        with observe(tracer=tracer):
            s = tracer.start_span("stale")
            fresh_timing_context()
            with pytest.raises(ReproError, match="timing-context reset"):
                s.__exit__(None, None, None)

    def test_validate_rejects_unclosed_and_nonnested(self):
        tracer = Tracer(InMemorySink())
        with observe(tracer=tracer):
            with span("root") as root:
                with span("child"):
                    charge("tpm.cmd.base")
        # Tamper: pull the child outside its parent's interval.
        root.children[0].end_virtual_us = root.end_virtual_us + 1.0
        with pytest.raises(ReproError, match="not nested"):
            validate_span_tree(root)
        root.children[0].end_virtual_us = None
        with pytest.raises(ReproError, match="never closed"):
            validate_span_tree(root)

    def test_find_and_walk(self):
        tracer = Tracer(InMemorySink())
        with observe(tracer=tracer):
            with span("a"):
                with span("b"):
                    pass
                with span("b"):
                    pass
        (root,) = tracer.sink.roots
        assert len(root.find("b")) == 2
        assert [s.name for s in root.walk()] == ["a", "b", "b"]


class TestCounters:
    def test_disabled_hooks_are_noops(self):
        from repro.obs import counters as obs_counters

        assert get_context().registry is None
        obs_counters.inc("nothing")
        obs_counters.set_gauge("nothing", 1.0)

    def test_inc_value_total_and_labels(self):
        reg = CounterRegistry()
        reg.inc("ac.decisions", outcome="allow")
        reg.inc("ac.decisions", outcome="allow")
        reg.inc("ac.decisions", outcome="deny")
        assert reg.value("ac.decisions", outcome="allow") == 2
        assert reg.total("ac.decisions") == 3
        assert reg.value("missing") == 0

    def test_negative_increment_rejected(self):
        reg = CounterRegistry()
        with pytest.raises(ReproError, match="cannot decrease"):
            reg.inc("x", -1)

    def test_exposition_is_sorted_and_stable(self):
        reg = CounterRegistry()
        reg.inc("b.counter", cls="z")
        reg.inc("b.counter", cls="a")
        reg.inc("a.counter")
        reg.set_gauge("c.gauge", 2.5)
        assert reg.exposition() == (
            "a.counter 1\n"
            'b.counter{cls="a"} 1\n'
            'b.counter{cls="z"} 1\n'
            "c.gauge 2.5\n"
        )

    def test_scope_installs_and_restores(self):
        from repro.obs import counters as obs_counters

        reg = CounterRegistry()
        with observe(registry=reg):
            assert get_context().registry is reg
            obs_counters.inc("seen")
        assert get_context().registry is None
        assert reg.value("seen") == 1


class TestContextBinding:
    """The shared epoch rule: observation state binds to the timing
    context it first records under, and a cross-context write raises."""

    def test_registry_rejects_cross_context_writes(self):
        reg = CounterRegistry()
        reg.inc("x")
        fresh_timing_context()
        with pytest.raises(ReproError, match="earlier timing context"):
            reg.inc("x")

    def test_registry_reset_rebinds(self):
        reg = CounterRegistry()
        reg.inc("x")
        fresh_timing_context()
        reg.reset()
        reg.inc("x")
        assert reg.value("x") == 1

    def test_recorder_rejects_cross_context_samples(self):
        """Regression: samples recorded across a sim-context reset used to
        silently mix epochs into one summary."""
        recorder = LatencyRecorder()
        recorder.record("op", 10.0)
        fresh_timing_context()
        with pytest.raises(ReproError, match="earlier timing context"):
            recorder.record("op", 1.0)
        # And via the measuring context manager too.
        with pytest.raises(ReproError, match="earlier timing context"):
            with recorder.measure("op"):
                pass

    def test_recorder_clear_rebinds(self):
        recorder = LatencyRecorder()
        recorder.record("op", 10.0)
        fresh_timing_context()
        recorder.clear()
        recorder.record("op", 2.0)
        assert recorder.samples("op") == [2.0]

    def test_fresh_recorder_per_context_is_unaffected(self):
        recorder = LatencyRecorder()
        recorder.record("op", 1.0)
        fresh_timing_context()
        other = LatencyRecorder()
        other.record("op", 2.0)  # binds lazily to the current context
        assert other.samples("op") == [2.0]


class TestSinks:
    def _tree(self):
        tracer = Tracer(InMemorySink())
        with observe(tracer=tracer):
            with span("root", domid=1):
                with span("child"):
                    charge("tpm.cmd.base")
                span_event("fault", kind="ring-stall")
        return tracer

    def test_in_memory_sink_validate_counts_spans(self):
        tracer = self._tree()
        assert tracer.sink.validate() == 2
        assert len(tracer.sink) == 1
        assert len(tracer.sink.spans_named("child")) == 1

    def test_counting_sink_counts_without_retaining(self):
        sink = CountingSink()
        tracer = Tracer(sink)
        with observe(tracer=tracer):
            with span("root"):
                with span("child"):
                    pass
        assert sink.roots == 1
        assert sink.spans == 2

    def test_jsonl_round_trip_and_dict_oracle(self, tmp_path):
        out = tmp_path / "t.jsonl"
        with out.open("w") as fh:
            sink = JsonlSink(fh)
            tracer = Tracer(sink)
            with observe(tracer=tracer):
                with span("root"):
                    with span("child"):
                        charge("tpm.cmd.base")
            sink.flush()
        (tree,) = load_jsonl(out.read_text())
        assert validate_tree_dict(tree) == 2
        broken = json.loads(json.dumps(tree))
        broken["children"][0]["virtual_us"][1] = (
            tree["virtual_us"][1] + 99.0
        )
        with pytest.raises(ReproError, match="not nested"):
            validate_tree_dict(broken)

    def test_wall_capture_is_sink_declared(self, tmp_path):
        # wants_wall=False sinks (JSONL, counting) skip both host-clock
        # reads and their artifacts carry no wall_ns — the JSONL trace is
        # then a pure function of the seed.
        out = tmp_path / "t.jsonl"
        with out.open("w") as fh:
            sink = JsonlSink(fh)
            tracer = Tracer(sink)
            with observe(tracer=tracer):
                with span("root") as root_span:
                    with span("child"):
                        charge("tpm.cmd.base")
            assert root_span.start_wall_ns == 0
            assert root_span.end_wall_ns == 0
            sink.flush()
        (tree,) = load_jsonl(out.read_text())
        assert "wall_ns" not in tree
        assert "wall_ns" not in tree["children"][0]
        assert validate_tree_dict(tree) == 2
        # wants_wall=True sinks (in-memory, self-time) still capture it.
        tracer = Tracer(InMemorySink())
        with observe(tracer=tracer):
            with span("root"):
                pass
        (kept,) = tracer.sink.roots
        assert kept.duration_wall_ns > 0
        assert "wall_ns" in kept.to_dict()

    def test_format_span_tree_is_renderable(self):
        tracer = self._tree()
        lines = format_span_tree(tracer.sink.roots[0])
        text = "\n".join(lines)
        assert "root" in text and "child" in text
        assert "! fault" in text
        assert "domid=1" in text

    def test_self_time_sink_attributes_own_cost(self):
        from repro.obs import SelfTimeSink

        sink = SelfTimeSink()
        tracer = Tracer(sink)
        with observe(tracer=tracer):
            for _ in range(3):
                with span("outer"):
                    with span("inner"):
                        pass
        assert sink.roots == 3
        rows = {name: (count, own, total)
                for name, count, own, total in sink.top(10)}
        assert rows["outer"][0] == rows["inner"][0] == 3
        # A parent's self time excludes its children's wall time.
        assert rows["outer"][1] <= rows["outer"][2]
        assert rows["inner"][1] == rows["inner"][2]
        table = sink.format_top(2)
        assert "self-us" in table[0]
        assert len(table) == 3  # header + two sites
        # Spans were recycled, not retained: the pool holds the tree.
        assert tracer._pool


class TestSampling:
    """Deterministic head sampling: 1-in-N trees, replay-identical."""

    def _run(self, rate, seed=0, roots=20):
        tracer = Tracer(InMemorySink(), sample_rate=rate, sample_seed=seed)
        with observe(tracer=tracer):
            for i in range(roots):
                with span("root", index=i):
                    with span("child"):
                        pass
        return tracer

    def test_rate_one_records_every_tree(self):
        tracer = self._run(rate=1)
        assert tracer.roots_seen == 20
        assert tracer.roots_emitted == 20
        assert tracer.roots_skipped == 0

    def test_keeps_one_in_n_from_the_seed_residue(self):
        tracer = self._run(rate=4)
        assert tracer.roots_seen == 20
        assert tracer.roots_emitted == 5
        assert tracer.roots_skipped == 15
        kept = [root.attrs["index"] for root in tracer.sink.roots]
        assert kept == [0, 4, 8, 12, 16]

    def test_sample_seed_rotates_the_residue_class(self):
        tracer = self._run(rate=4, seed=1)
        kept = [root.attrs["index"] for root in tracer.sink.roots]
        assert kept == [1, 5, 9, 13, 17]

    def test_schedule_is_replay_identical(self):
        """Same seed, same workload — the very same trees are kept: the
        schedule is a pure function of (root index, seed), no RNG."""
        for rate in (1, 4, 64):
            first = self._run(rate=rate, roots=100)
            second = self._run(rate=rate, roots=100)
            assert (
                [r.attrs["index"] for r in first.sink.roots]
                == [r.attrs["index"] for r in second.sink.roots]
            )

    def test_suppressed_root_hides_the_tracer(self):
        """Inside a sampled-out root the ambient slot reads None, so every
        nested guarded site takes its free path; the tracer is reinstalled
        when the skip scope exits."""
        tracer = Tracer(InMemorySink(), sample_rate=2, sample_seed=1)
        with observe(tracer=tracer):
            with span("skipped"):  # index 0: sampled out
                assert get_context().tracer is None
                assert span("nested") is NULL_SPAN
            assert get_context().tracer is tracer
            with span("kept"):  # index 1: recorded
                assert get_context().tracer is tracer
        assert tracer.roots_emitted == 1
        assert tracer.sink.roots[0].name == "kept"
        assert tracer.open_spans == 0

    def test_direct_start_span_during_skip_is_null(self):
        """Code holding a direct tracer reference (not the ambient slot)
        still gets a no-op span while a root is suppressed."""
        tracer = Tracer(InMemorySink(), sample_rate=2, sample_seed=1)
        with observe(tracer=tracer):
            with tracer.start_span("skipped"):
                assert tracer.start_span("direct") is NULL_SPAN
        assert tracer.roots_emitted == 0
        assert tracer.roots_skipped == 1

    def test_counters_stay_exact_under_sampling(self):
        from repro.obs import counters as obs_counters

        handle = obs_counters.counter("sampling.events")
        tracer = Tracer(InMemorySink(), sample_rate=8)
        reg = CounterRegistry()
        with observe(tracer=tracer, registry=reg):
            for i in range(32):
                with span("root", index=i):
                    handle.inc()
                    obs_counters.inc("sampling.named")
        assert tracer.roots_emitted == 4
        assert reg.value("sampling.events") == 32  # every tree, kept or not
        assert reg.value("sampling.named") == 32


class _Layer:
    """A two-stage pipeline stand-in instrumented with the per-layer hook."""

    def __init__(self):
        self.attrs_calls = 0
        self.seen_tracers = []

    def _attrs(self, x):
        self.attrs_calls += 1
        return {"x": x}

    @traced("engine", _attrs)
    def outer(self, x):
        self.seen_tracers.append(get_context().tracer)
        charge("tpm.cmd.base")
        return self.inner(x) + 1

    @traced("tpm.execute")
    def inner(self, x):
        span_attr("doubled", True)
        return x * 2

    @traced("engine")
    def boom(self):
        self.seen_tracers.append(get_context().tracer)
        self.inner(1)
        raise ValueError("boom")


class TestTracedHook:
    """``traced`` is the one span hook per layer: untraced calls pass
    straight through, traced calls nest, sampled-out roots hide the
    tracer for the whole call."""

    def test_untraced_call_passes_through(self):
        assert get_context().tracer is None
        layer = _Layer()
        assert layer.outer(3) == 7
        assert layer.attrs_calls == 0  # attrs built only for recorded spans
        assert layer.seen_tracers == [None]
        span_attr("ignored", 1)  # no tracer: a no-op

    def test_traced_call_records_nested_spans(self):
        tracer = Tracer(InMemorySink())
        layer = _Layer()
        with observe(tracer=tracer):
            assert layer.outer(3) == 7
        (root,) = tracer.sink.roots
        assert root.name == "engine" and root.attrs == {"x": 3}
        (child,) = root.children
        assert child.name == "tpm.execute"
        assert child.attrs == {"doubled": True}
        assert root.duration_virtual_us > 0
        validate_span_tree(root)
        assert layer.attrs_calls == 1
        assert tracer.open_spans == 0

    def test_wrapper_keeps_the_method_name(self):
        assert _Layer.outer.__name__ == "outer"
        assert _Layer.outer.__wrapped__.__name__ == "outer"

    def test_sampled_out_root_records_nothing(self):
        tracer = Tracer(InMemorySink(), sample_rate=4)
        layer = _Layer()
        with observe(tracer=tracer):
            for x in range(4):
                assert layer.outer(x) == 2 * x + 1
            assert get_context().tracer is tracer
        assert tracer.roots_seen == 4
        assert tracer.roots_emitted == 1
        assert tracer.roots_skipped == 3
        # Only the kept root's two spans ever started; inside the skipped
        # roots the context read None, so the nested hook recorded nothing.
        assert tracer.spans_started == 2
        assert layer.seen_tracers == [tracer, None, None, None]
        assert layer.attrs_calls == 1
        assert [r.attrs for r in tracer.sink.roots] == [{"x": 0}]

    def test_tracer_restored_when_sampled_out_root_raises(self):
        tracer = Tracer(InMemorySink(), sample_rate=4, sample_seed=1)
        layer = _Layer()
        with observe(tracer=tracer):
            with pytest.raises(ValueError, match="boom"):
                layer.boom()  # root index 0: sampled out
            assert layer.seen_tracers == [None]
            assert get_context().tracer is tracer
            with pytest.raises(ValueError, match="boom"):
                layer.boom()  # root index 1: recorded, still closed
        assert tracer.roots_skipped == 1
        assert tracer.roots_emitted == 1
        assert tracer.open_spans == 0
        (root,) = tracer.sink.roots
        assert [c.name for c in root.children] == ["tpm.execute"]
        validate_span_tree(root)


class TestSpanPooling:
    """Non-retaining sinks recycle emitted spans; retaining sinks don't."""

    def test_pool_reuses_span_objects(self):
        tracer = Tracer(CountingSink())
        with observe(tracer=tracer):
            with span("root"):
                with span("child"):
                    pass
            assert len(tracer._pool) == 2
            recycled = tracer._pool[-1]
            reused = tracer.start_span("again")
            assert reused is recycled
            assert reused.children == [] and reused.events == []
            assert reused.attrs is None
            reused.__exit__(None, None, None)
        assert tracer.sink.roots == 2

    def test_retaining_sink_never_recycles(self):
        tracer = Tracer(InMemorySink())
        with observe(tracer=tracer):
            with span("root"):
                pass
        assert tracer._pool == []
        assert tracer.sink.roots[0].name == "root"

    def test_pool_is_capped(self):
        from repro.obs import trace as obs_trace

        tracer = Tracer(CountingSink())
        with observe(tracer=tracer):
            for _ in range(3):
                root = tracer.start_span("wide")
                for _ in range(600):
                    tracer.start_span("leaf").__exit__(None, None, None)
                root.__exit__(None, None, None)
        assert len(tracer._pool) <= obs_trace._POOL_CAP


class TestCounterHandles:
    """Pre-resolved handles share cells with the named path and follow
    registry installation and timing-context epochs exactly."""

    def test_handle_and_named_writes_share_one_cell(self):
        from repro.obs import counters as obs_counters

        handle = obs_counters.counter("handles.shared", cls="x")
        reg = CounterRegistry()
        with observe(registry=reg):
            handle.inc()
            reg.inc("handles.shared", cls="x")
            handle.add(3)
        assert reg.value("handles.shared", cls="x") == 5

    def test_handle_is_a_noop_without_a_registry(self):
        from repro.obs import counters as obs_counters

        assert get_context().registry is None
        obs_counters.counter("handles.off").inc()  # must not raise

    def test_handle_follows_registry_swap(self):
        from repro.obs import counters as obs_counters

        handle = obs_counters.counter("handles.swap")
        first, second = CounterRegistry(), CounterRegistry()
        with observe(registry=first):
            handle.inc()
        with observe(registry=second):
            handle.inc(2)
        assert first.value("handles.swap") == 1
        assert second.value("handles.swap") == 2

    def test_handle_rebinds_after_reset(self):
        from repro.obs import counters as obs_counters

        handle = obs_counters.counter("handles.reset")
        reg = CounterRegistry()
        with observe(registry=reg):
            handle.inc()
            stale_cell = handle._cell
            fresh_timing_context()
            reg.reset()
            handle.inc()
            assert handle._cell is not stale_cell
            assert reg.value("handles.reset") == 1

    def test_handle_cross_context_write_raises(self):
        from repro.obs import counters as obs_counters

        handle = obs_counters.counter("handles.epoch")
        reg = CounterRegistry()
        with observe(registry=reg):
            handle.inc()
            fresh_timing_context()
            with pytest.raises(ReproError, match="earlier timing context"):
                handle.inc()

    def test_handle_negative_increment_rejected(self):
        from repro.obs import counters as obs_counters

        handle = obs_counters.counter("handles.negative")
        with observe(registry=CounterRegistry()):
            with pytest.raises(ReproError, match="cannot decrease"):
                handle.inc(-1)


class TestExpositionDeterminism:
    """Regression (satellite): exposition order is insertion-independent —
    ascending metric name then label tuple, handles and named merged."""

    def test_insertion_order_cannot_leak_into_exposition(self):
        from repro.obs import counters as obs_counters

        def fill(reg, order):
            with observe(registry=reg):
                for step in order:
                    step()
        h_ring = obs_counters.counter("ring.kicks")
        h_cls = obs_counters.counter("ac.commands", cls="read")
        ops = {
            "gauge": lambda: obs_counters.set_gauge("pool.depth", 3.0),
            "handle": h_ring.inc,
            "labeled": h_cls.inc,
            "named": lambda: obs_counters.inc("ac.commands", cls="measure"),
        }
        forward, backward = CounterRegistry(), CounterRegistry()
        fill(forward, [ops[k] for k in sorted(ops)])
        fill(backward, [ops[k] for k in sorted(ops, reverse=True)])
        assert forward.exposition() == backward.exposition()
        assert forward.exposition() == (
            'ac.commands{cls="measure"} 1\n'
            'ac.commands{cls="read"} 1\n'
            "pool.depth 3\n"
            "ring.kicks 1\n"
        )
