"""Outside-in spans for the traced pass: wrap each layer's public entry
point, record one span per call, and turn the spans into the layer ledger.

The program's own ``obs.Tracer`` stays off.  Instead the recorder replaces
the layer callables *at class level* for the duration of the traced pass,
so objects created mid-run (migrated or restored instances) are covered
too, and ``AuditLog``'s ``__slots__`` are no obstacle.  :meth:`remove`
puts every original back and checks it is back.

Each span is ``[layer, start_ns, end_ns, parent_index, op_id]``; spans stay
in memory and are written out when the pass ends.  A span's self time is
its duration minus its children's durations.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path
from typing import Dict, List

from repro.cluster.migrator import ClusterMigrator
from repro.cluster.router import FleetRouter
from repro.core.audit import AuditLog
from repro.core.identity import IdentityRegistry
from repro.core.monitor import AccessControlMonitor
from repro.core.policy import PolicyEngine
from repro.tpm.device import TpmDevice
from repro.vtpm.frontend import VtpmFrontend
from repro.vtpm.instance import VtpmInstance
from repro.vtpm.manager import VtpmManager
from repro.vtpm.migration import MigrationEndpoint
from repro.vtpm.storage import VtpmStorage
from repro.xen.ring import TpmRing

#: the root span around each workload operation (the client-side stack)
OP_LAYER = "tpm.client"

#: (class, method, layer) for every wrapped public callable
WRAPPED = (
    (VtpmFrontend, "transport", "vtpm.frontend"),
    (TpmRing, "send_command", "xen.ring"),
    (VtpmManager, "handle_command", "vtpm.manager"),
    (AccessControlMonitor, "authorize", "core.monitor"),
    (IdentityRegistry, "verify_current", "core.identity"),
    (PolicyEngine, "decide", "core.policy"),
    (AuditLog, "append_buffered", "core.audit"),
    (AuditLog, "chain_head", "core.audit"),
    (VtpmInstance, "execute", "vtpm.instance"),
    (VtpmInstance, "sync_to_memory", "vtpm.instance.serialize"),
    (TpmDevice, "execute", "tpm.device"),
    (FleetRouter, "send", "cluster.router"),
    (ClusterMigrator, "migrate", "cluster.migrator"),
    (MigrationEndpoint, "prepare_target", "vtpm.migration"),
    (MigrationEndpoint, "begin_export_sealed", "vtpm.migration"),
    (MigrationEndpoint, "import_sealed", "vtpm.migration"),
    (MigrationEndpoint, "commit_export", "vtpm.migration"),
    (VtpmStorage, "save_instance_state", "vtpm.storage"),
)


class SpanRecorder:
    """Records nested spans around the wrapped callables."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack = [-1]
        self.op_id = -1
        self._originals: list = []

    def wrap(self, layer: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [layer, 0, 0, stack[-1], recorder.op_id]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("span wrappers are already installed")
        for cls, method, layer in WRAPPED:
            original = cls.__dict__[method]
            self._originals.append((cls, method, original))
            setattr(cls, method, self.wrap(layer, original))

    def remove(self) -> List[str]:
        """Restore every original; returns the names still wrapped."""
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        left = [
            f"{cls.__name__}.{method}"
            for cls, method, original in self._originals
            if cls.__dict__[method] is not original
        ]
        self._originals.clear()
        return left

    # -- the ledger --------------------------------------------------------------

    def ledger(self, factor_of_op):
        """``({layer: [calls, scaled self ns]}, smallest raw self ns)``.

        ``factor_of_op`` maps an op id to its interval's host-speed factor.
        A negative smallest self time would mean spans that do not nest,
        which would break the reconciliation against wall time.
        """
        spans = self.spans
        children_ns = [0] * len(spans)
        for _layer, start, end, parent, _op in spans:
            if parent >= 0:
                children_ns[parent] += end - start
        rows: Dict[str, List[int]] = {}
        smallest = 0
        for (layer, start, end, _parent, op), child in zip(spans, children_ns):
            self_ns = end - start - child
            smallest = min(smallest, self_ns)
            row = rows.setdefault(layer, [0, 0])
            row[0] += 1
            row[1] += self_ns * factor_of_op(op)
        return rows, smallest

    def write(self, path: Path) -> None:
        """Write the spans as CSV: id, parent, op, layer, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as out:
            out.write("span,parent,op,layer,start_ns,end_ns\n")
            for index, (layer, start, end, parent, op) in enumerate(self.spans):
                out.write(f"{index},{parent},{op},{layer},{start},{end}\n")
