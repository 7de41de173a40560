"""Tracing is an observer, not a participant.

The acceptance bar for the observability layer: running the *same* seeded
workload with tracing and counters enabled must produce byte-identical
state digests, the same fault sequence, and the same audit hash-chain
head as the untraced run — and the span trees it collects must be
structurally valid (every span closed, children nested inside parents,
no orphans left on the tracer stack).
"""

from __future__ import annotations

import pytest

from repro.core.config import AccessMode
from repro.harness.builder import build_platform, fresh_timing_context
from repro.harness.chaos import default_chaos_plan, run_chaos_workload
from repro.obs import (
    CounterRegistry,
    InMemorySink,
    Tracer,
    load_jsonl,
    observe,
    validate_tree_dict,
)
from repro.tpm import marshal
from repro.tpm.constants import TPM_ORD_PcrRead, TPM_SUCCESS
from repro.util.bytesio import ByteWriter

SEED = 424242
COMMANDS = 120


def _pcr_read_wire(index: int) -> bytes:
    return marshal.build_command(
        TPM_ORD_PcrRead, ByteWriter().u32(index).getvalue()
    )


class TestChaosNonInterference:
    """The chaos demo, traced vs untraced, byte for byte."""

    @pytest.fixture(scope="class")
    def runs(self):
        plan = default_chaos_plan(SEED)
        untraced = run_chaos_workload(
            seed=SEED, commands=COMMANDS, plan=plan
        )
        tracer = Tracer(InMemorySink())
        registry = CounterRegistry()
        traced = run_chaos_workload(
            seed=SEED, commands=COMMANDS, plan=plan,
            tracer=tracer, counters=registry,
        )
        return untraced, traced, tracer, registry

    def test_digests_identical(self, runs):
        untraced, traced, _, _ = runs
        assert traced.digests == untraced.digests

    def test_audit_chain_identical(self, runs):
        untraced, traced, _, _ = runs
        assert untraced.audit_chain_hex  # the oracle must not be vacuous
        assert traced.audit_chain_hex == untraced.audit_chain_hex

    def test_fault_sequence_identical(self, runs):
        untraced, traced, _, _ = runs
        assert traced.event_signature == untraced.event_signature
        assert traced.fault_counts == untraced.fault_counts

    def test_span_trees_structurally_valid(self, runs):
        _, _, tracer, _ = runs
        assert tracer.open_spans == 0  # nothing left dangling
        spans = tracer.sink.validate()  # raises on any malformed tree
        assert spans >= tracer.roots_emitted > 0
        # The same oracle holds after a serialization round trip.
        import json

        for root in tracer.sink.roots:
            node = json.loads(json.dumps(root.to_dict()))
            assert validate_tree_dict(node) == sum(1 for _ in root.walk())

    def test_counters_saw_the_run(self, runs):
        untraced, _, _, registry = runs
        assert registry.total("ac.decisions") > 0
        assert registry.total("faults.injected") == untraced.total_faults
        exposition = registry.exposition()
        assert "ac.decisions{outcome=\"allow\"}" in exposition


class TestBatchedNonInterference:
    """The STATUS_BATCH vector path, traced vs untraced, byte for byte."""

    def _batched_run(self, tracer=None, registry=None):
        fresh_timing_context()
        with observe(tracer=tracer, registry=registry):
            platform = build_platform(
                AccessMode.IMPROVED, seed=SEED, name="batch-ni"
            )
            guest = platform.add_guest("batcher")
            responses = []
            for round_no in range(6):
                wires = [_pcr_read_wire(i % 8) for i in range(round_no + 2)]
                responses.extend(guest.frontend.transport_batch(wires))
            digest = platform.manager.instance(
                guest.instance_id
            ).device.save_state_blob()
            chain = platform.audit.chain_head()
        return responses, digest, chain

    def test_traced_batches_byte_identical(self):
        plain_responses, plain_digest, plain_chain = self._batched_run()
        tracer = Tracer(InMemorySink())
        registry = CounterRegistry()
        traced_responses, traced_digest, traced_chain = self._batched_run(
            tracer, registry
        )
        assert traced_responses == plain_responses
        assert all(
            marshal.parse_response(r).return_code == TPM_SUCCESS
            for r in traced_responses
        )
        assert traced_digest == plain_digest
        assert traced_chain == plain_chain
        # The batch shape reached the counters and the span trees.
        assert registry.total("ring.batched_frames") == sum(
            range(2, 8)
        )
        batch_spans = tracer.sink.spans_named("ring.send_batch")
        assert [s.attrs["frames"] for s in batch_spans] == list(range(2, 8))
        assert tracer.open_spans == 0
        assert tracer.sink.validate() > 0


class TestSampledNonInterference:
    """Head sampling keeps tracing an observer at every rate: a 1-in-N
    traced run stays byte-identical to the untraced run, counters stay
    exact, and the sampling schedule itself is replay-identical."""

    RATES = (1, 4, 64)

    @pytest.fixture(scope="class")
    def untraced(self):
        plan = default_chaos_plan(SEED)
        return run_chaos_workload(seed=SEED, commands=COMMANDS, plan=plan)

    @pytest.mark.parametrize("rate", RATES)
    def test_sampled_chaos_is_byte_identical(self, untraced, rate):
        plan = default_chaos_plan(SEED)
        tracer = Tracer(InMemorySink(), sample_rate=rate)
        registry = CounterRegistry()
        sampled = run_chaos_workload(
            seed=SEED, commands=COMMANDS, plan=plan,
            tracer=tracer, counters=registry,
        )
        assert sampled.digests == untraced.digests
        assert sampled.audit_chain_hex == untraced.audit_chain_hex
        assert sampled.event_signature == untraced.event_signature
        assert sampled.fault_counts == untraced.fault_counts
        # Counters are exact regardless of which trees were kept.
        assert registry.total("faults.injected") == untraced.total_faults
        # The kept trees are intact and nothing dangles.
        assert tracer.open_spans == 0
        assert tracer.roots_emitted + tracer.roots_skipped == (
            tracer.roots_seen
        )
        if rate > 1:
            assert tracer.roots_skipped > 0
        tracer.sink.validate()

    @pytest.mark.parametrize("rate", RATES)
    def test_sampled_cluster_is_byte_identical(self, rate):
        from repro.cluster import default_cluster_plan, run_cluster_workload

        kwargs = dict(seed=SEED, hosts=3, guests=6, steps=10,
                      plan=default_cluster_plan(SEED, 3, crash_step=7),
                      storm=True)
        untraced = run_cluster_workload(**kwargs)
        tracer = Tracer(InMemorySink(), sample_rate=rate)
        registry = CounterRegistry()
        sampled = run_cluster_workload(
            tracer=tracer, counters=registry, **kwargs
        )
        assert sampled.state_digests == untraced.state_digests
        assert sampled.response_digests == untraced.response_digests
        assert sampled.event_signature == untraced.event_signature
        assert sampled.placement_signature == untraced.placement_signature
        assert sampled.migration_signature == untraced.migration_signature
        assert tracer.open_spans == 0
        tracer.sink.validate()

    @pytest.mark.parametrize("rate", RATES)
    def test_sampling_schedule_replays_identically(self, rate):
        """Two same-seed runs keep the very same trees: the schedule is a
        pure function of the root index, untouched by either timebase."""
        def schedule():
            plan = default_chaos_plan(SEED)
            tracer = Tracer(InMemorySink(), sample_rate=rate)
            run_chaos_workload(
                seed=SEED, commands=COMMANDS, plan=plan, tracer=tracer,
            )
            return (
                tracer.roots_seen,
                tracer.roots_skipped,
                [(r.name, r.start_virtual_us) for r in tracer.sink.roots],
            )

        assert schedule() == schedule()


class TestJsonlRoundTrip:
    def test_jsonl_stream_validates(self, tmp_path):
        from repro.obs import JsonlSink

        out = tmp_path / "trace.jsonl"
        fresh_timing_context()
        with out.open("w") as fh:
            sink = JsonlSink(fh)
            tracer = Tracer(sink)
            with observe(tracer=tracer):
                platform = build_platform(
                    AccessMode.IMPROVED, seed=7, name="jsonl-ni"
                )
                guest = platform.add_guest("writer")
                for i in range(5):
                    guest.frontend.transport(_pcr_read_wire(i))
            sink.flush()
        trees = load_jsonl(out.read_text())
        assert len(trees) == tracer.roots_emitted
        assert sum(validate_tree_dict(t) for t in trees) == (
            tracer.spans_started
        )


def _flatten(span, origin, depth=0, out=None):
    """(depth, name, attrs, start, end) rows, virtual µs from the root."""
    out = [] if out is None else out
    out.append((depth, span.name, dict(span.attrs or {}),
                round(span.start_virtual_us - origin, 4),
                round(span.end_virtual_us - origin, 4)))
    for child in span.children:
        _flatten(child, origin, depth + 1, out)
    return out


class TestPipelineSpanTree:
    """The per-layer hooks record one pinned tree per command: layer
    names, attributes, nesting and virtual intervals.  ``serialize`` is
    the state-image refresh inside ``VtpmInstance.execute``, so it nests
    under ``engine``."""

    PCR_READ = [
        (0, "frontend.command", {"domid": 1}, 0.0, 25.2382),
        (1, "ring.send", {"bytes": 14}, 0.0, 25.2382),
        (2, "backend.forward", {"instance": 1}, 2.7308, 23.3052),
        (3, "manager.dispatch", {"instance": 1}, 7.2308, 23.3052),
        (4, "authz", {"instance": 1, "cache": "hit"}, 7.7308, 9.3052),
        (5, "parse", {}, 7.7308, 7.7308),
        (5, "audit", {}, 7.8108, 9.3052),
        (4, "engine", {"instance": 1}, 9.3052, 23.3052),
        (5, "tpm.execute", {"ordinal": "TPM_PCRRead"}, 23.3052, 23.3052),
    ]
    EXTEND = [
        (0, "frontend.command", {"domid": 1}, 0.0, 27.9718),
        (1, "ring.send", {"bytes": 34}, 0.0, 27.9718),
        (2, "backend.forward", {"instance": 1}, 2.7748, 26.0388),
        (3, "manager.dispatch", {"instance": 1}, 7.2748, 26.0388),
        (4, "authz", {"instance": 1, "cache": "miss"}, 7.7748, 10.1708),
        (5, "parse", {}, 7.7748, 7.7748),
        (5, "audit", {}, 8.6748, 10.1708),
        (4, "engine", {"instance": 1}, 10.1708, 26.0388),
        (5, "tpm.execute", {"ordinal": "TPM_Extend"}, 24.1708, 26.0388),
        (5, "serialize", {"instance": 1}, 26.0388, 26.0388),
    ]

    @pytest.mark.parametrize("op, expected", [
        ("pcr_read", PCR_READ), ("extend", EXTEND),
    ])
    def test_tree_is_pinned(self, op, expected):
        from repro.workloads.mixes import GuestSession

        fresh_timing_context()
        platform = build_platform(AccessMode.IMPROVED, seed=1)
        session = GuestSession(
            platform.add_guest("trace-vm"), platform.rng.fork("trace-sess")
        )
        tracer = Tracer(InMemorySink())
        with observe(tracer=tracer):
            session.run_operation(op)
        (root,) = tracer.sink.roots
        assert _flatten(root, root.start_virtual_us) == expected
