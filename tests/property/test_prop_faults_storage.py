"""Property tests: crash-consistent storage under seeded fault plans.

The contract pinned here is the storage layer's whole reason to exist:
whatever a seeded fault plan does to the save path (torn writes — soft or
hard-crash — and full disks) and to the read path (transient corruption),
a restore returns **exactly the payload of the newest committed save** —
a fallback may reach back one generation, but never hands out corrupt or
partial data — and the same seed produces the same fault sequence twice.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultKind, FaultPlan, spec
from repro.harness.builder import fresh_timing_context
from repro.sim.timing import observe
from repro.util.errors import FaultInjected, RetryExhausted, VtpmError
from repro.vtpm.storage import DiskStore, VtpmStorage

UUID = "prop-vm"


def _chaos_plan(seed, p_torn, p_enospc, hard_torn, corrupt_reads):
    specs = []
    if p_torn > 0.0:
        specs.append(
            spec(
                FaultKind.STORAGE_TORN_WRITE,
                probability=p_torn,
                transient=not hard_torn,
            )
        )
    if p_enospc > 0.0:
        specs.append(spec(FaultKind.STORAGE_ENOSPC, probability=p_enospc))
    if corrupt_reads:
        # STORAGE_ATTEMPTS re-reads can absorb up to two corrupt reads of
        # one generation, so the cap keeps every file ultimately readable.
        specs.append(
            spec(
                FaultKind.STORAGE_READ_CORRUPT,
                every=1,
                max_fires=min(corrupt_reads, 2),
            )
        )
    return FaultPlan(specs=tuple(specs), seed=seed, name="prop-chaos")


def _run_saves(storage, payloads):
    """Drive every save through the injector; return what committed."""
    committed = []
    for payload in payloads:
        try:
            storage.save_instance_state(UUID, None, payload)
        except (FaultInjected, RetryExhausted):
            continue  # hard crash or exhausted retries: not committed
        committed.append(payload)
    return committed


@settings(max_examples=80, deadline=None)
@given(
    payloads=st.lists(st.binary(min_size=1, max_size=48), min_size=1, max_size=7),
    seed=st.integers(0, 2**16),
    p_torn=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
    p_enospc=st.sampled_from([0.0, 0.3]),
    hard_torn=st.booleans(),
    corrupt_reads=st.integers(0, 2),
)
def test_restore_is_latest_committed_never_corrupt(
    payloads, seed, p_torn, p_enospc, hard_torn, corrupt_reads
):
    fresh_timing_context()
    storage = VtpmStorage(DiskStore(), sealer=None)
    plan = _chaos_plan(seed, p_torn, p_enospc, hard_torn, corrupt_reads)
    with observe(injector=FaultInjector(plan)):
        committed = _run_saves(storage, payloads)
        if not committed:
            # Nothing ever landed: restore must refuse, not fabricate.
            with pytest.raises(VtpmError):
                storage.load_instance_state(UUID, None)
            return
        restored = storage.load_instance_state(UUID, None)
    # Exactly the newest committed payload — never a torn prefix, never a
    # flipped-bit copy, never an older generation than necessary.
    assert restored == committed[-1]


@settings(max_examples=40, deadline=None)
@given(
    payloads=st.lists(st.binary(min_size=1, max_size=32), min_size=2, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_same_seed_reproduces_identical_fault_sequence(payloads, seed):
    signatures = []
    for _ in range(2):
        fresh_timing_context()
        storage = VtpmStorage(DiskStore(), sealer=None)
        plan = _chaos_plan(seed, 0.5, 0.3, False, 1)
        injector = FaultInjector(plan)
        with observe(injector=injector):
            committed = _run_saves(storage, payloads)
            if committed:
                storage.load_instance_state(UUID, None)
            signatures.append(injector.event_signature())
    assert signatures[0] == signatures[1]


@settings(max_examples=40, deadline=None)
@given(
    payloads=st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_hard_crash_mid_save_preserves_previous_generation(payloads, seed):
    """Every save dies mid-write (hard): after any prefix of crashes, the
    last state that committed *before* chaos began is still restorable."""
    fresh_timing_context()
    storage = VtpmStorage(DiskStore(), sealer=None)
    storage.save_instance_state(UUID, None, b"pre-chaos baseline")
    plan = FaultPlan(
        specs=(spec(FaultKind.STORAGE_TORN_WRITE, every=1, transient=False),),
        seed=seed,
        name="prop-hard-crash",
    )
    with observe(injector=FaultInjector(plan)):
        for payload in payloads:
            with pytest.raises(FaultInjected):
                storage.save_instance_state(UUID, None, payload)
    assert storage.load_instance_state(UUID, None) == b"pre-chaos baseline"
