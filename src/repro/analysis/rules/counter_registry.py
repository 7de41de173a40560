"""counter-registry: metric and span names must live in declared namespaces.

Counters are written as string literals at dozens of call sites and read
back by name in tests, dashboards and the exposition diff oracle — a
typo'd literal (``vtmp.…``) creates a *new* series instead of feeding
the one everybody reads, and nothing fails.  This rule catches the typo
statically: every string literal passed as the metric name to
``counter(…)`` / ``inc(…)`` / ``set_gauge(…)`` must parse as a dotted
lowercase name whose first segment is a **declared counter namespace**,
and every span name handed to ``start_span(…)`` / ``span(…)`` /
``traced(…)`` must use a **declared span root**.

The declared sets below are the single registry; adding a genuinely new
subsystem namespace is a deliberate one-line change here, reviewed like
any other schema change.

:func:`collect_metric_literals` is exported for the runtime cross-check
(the counter-name audit test compares a chaos run's exposition against
the statically discovered set).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Set

from repro.analysis.core import (
    Finding,
    ModuleSource,
    Rule,
    first_str_arg,
    register,
)

#: first dotted segment allowed for counter / gauge names
COUNTER_NAMESPACES = frozenset(
    {"ac", "ring", "faults", "vtpm", "cluster", "resilience"}
)

#: first dotted segment allowed for span names (bare names like
#: ``authz`` count as their own root)
SPAN_ROOTS = frozenset(
    {
        "frontend", "ring", "backend", "manager", "authz", "parse",
        "audit", "engine", "serialize", "tpm", "vtpm", "cluster",
        "supervisor", "experiment", "loadtest",
    }
)

#: calls whose first string argument is a counter/gauge name
COUNTER_CALLS = frozenset({"counter", "inc", "set_gauge"})
#: calls whose first string argument is a span name (``traced`` is the
#: per-layer hook decorator)
SPAN_CALLS = frozenset({"start_span", "span", "traced"})

NAME_GRAMMAR = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")


def _callee_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def collect_metric_literals(modules) -> Dict[str, Set[str]]:
    """All statically discovered names: ``{"counter": {...}, "span": {...}}``.

    ``modules`` is an iterable of :class:`ModuleSource`; used both by the
    rule and by the runtime counter-name audit.
    """
    out: Dict[str, Set[str]] = {"counter": set(), "span": set()}
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_name(node)
            literal = first_str_arg(node)
            if literal is None:
                continue
            if callee in COUNTER_CALLS:
                out["counter"].add(literal)
            elif callee in SPAN_CALLS:
                out["span"].add(literal)
    return out


@register
class CounterRegistryRule(Rule):
    id = "counter-registry"
    title = "metric/span name literals must use declared namespaces"
    description = (
        "Every counter(…)/inc(…)/set_gauge(…) name literal must be a "
        "dotted lowercase name rooted in "
        + "/".join(sorted(COUNTER_NAMESPACES))
        + "; every start_span(…)/span(…)/traced(…) name must use a "
        "declared span root — typo'd metric names are caught before they "
        "fork a series nobody reads."
    )
    example_violation = (
        "repro/vtpm/_injected_counter_registry.py",
        "from repro.obs.counters import inc\n"
        "def record():\n"
        "    inc('vtmp.hotplug.error')\n",
    )

    def check(self, module: ModuleSource) -> List[Finding]:
        if not module.relpath.startswith("repro/"):
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_name(node)
            literal = first_str_arg(node)
            if literal is None:
                continue
            if callee in COUNTER_CALLS:
                kind, allowed = "counter", COUNTER_NAMESPACES
            elif callee in SPAN_CALLS:
                kind, allowed = "span", SPAN_ROOTS
            else:
                continue
            if not NAME_GRAMMAR.match(literal):
                findings.append(self.finding(
                    module, node.lineno,
                    f"{kind} name {literal!r} does not match the dotted "
                    "lowercase grammar [a-z0-9_.]",
                ))
                continue
            root = literal.split(".", 1)[0]
            if root not in allowed:
                findings.append(self.finding(
                    module, node.lineno,
                    f"{kind} name {literal!r} uses undeclared namespace "
                    f"{root!r} (declared: {', '.join(sorted(allowed))})",
                ))
        return findings
