"""secret-flow: key material must never reach an observable sink.

Intraprocedural taint tracking.  **Sources** are the repository's secret
carriers: the ``usage_auth`` / ``migration_auth`` fields of
:class:`repro.tpm.keys.LoadedKey` and the key structures, the owner
auth / tpm proof of :class:`repro.tpm.state.TpmState`,
``secret_material()`` results, the sealed root blob, and any function
parameter whose name marks it as an auth secret.  **Sinks** are the
places an operator (or a JSONL artifact reader) can see: logger calls,
``print``, span attributes (``span.set`` / ``span_attr`` /
``start_span`` attr dicts / ``add_event`` / the ``attrs`` lambda of a
``traced(…)`` hook), ``json.dump(s)``, and exception messages
(``raise X(…)`` — exception text lands in audit reasons, degraded-path
responses and tracebacks).

Propagation is deliberately shallow: a name assigned from an expression
*containing* a tainted name/attribute becomes tainted, and taint follows
pure re-wrappings (``bytes()``, ``str()``, ``repr()``, ``.hex()``,
``.decode()``, f-strings, concatenation, subscripts).  Taint does *not*
survive arbitrary calls — an HMAC over a secret, a length, a parsed
response are derived values, not the secret.  That keeps the rule
precise enough to gate CI: a finding means the literal secret bytes (or
a trivial re-encoding of them) reach the sink.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.core import Finding, ModuleSource, Rule, register

#: attribute names that carry raw secret bytes wherever they appear
SECRET_ATTRS = frozenset(
    {
        "usage_auth",
        "migration_auth",
        "owner_auth",
        "tpm_proof",
        "sealed_root_blob",
    }
)

#: zero-argument-ish calls whose *result* is secret material
SECRET_CALLS = frozenset({"secret_material"})

#: parameter-name shapes that declare a secret argument
SECRET_PARAM_MARKERS = ("auth", "secret", "proof")

#: calls that merely re-encode their argument (taint passes through)
WRAP_CALLS = frozenset({"bytes", "bytearray", "str", "repr", "memoryview"})
WRAP_METHODS = frozenset({"hex", "decode", "encode"})

LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "critical", "exception", "log"}
)
LOG_RECEIVERS = frozenset({"log", "logger", "_log", "_logger", "LOG"})
SPAN_RECEIVERS = frozenset({"span", "_span", "root"})
#: free functions (or module attributes) whose arguments become span
#: attributes
SPAN_FUNCTIONS = frozenset({"span", "start_span", "span_attr"})


def param_is_secret(name: str) -> bool:
    lowered = name.lower()
    if lowered in ("auth", "secret", "proof", "entity_secret"):
        return True
    return any(
        lowered.endswith(f"_{m}") or lowered.startswith(f"{m}_")
        for m in SECRET_PARAM_MARKERS
    )


class _FunctionTaint:
    """Taint state for one function body."""

    def __init__(self, fn: ast.AST) -> None:
        self.tainted: Set[str] = set()
        args = fn.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if param_is_secret(arg.arg):
                self.tainted.add(arg.arg)

    def expr_source(self, node: ast.expr) -> str | None:
        """Why this expression is tainted, or ``None`` if it is not."""
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute) and n.attr in SECRET_ATTRS:
                return f"secret attribute .{n.attr}"
            if isinstance(n, ast.Call):
                callee = n.func
                if (
                    isinstance(callee, ast.Attribute)
                    and callee.attr in SECRET_CALLS
                ):
                    return f"result of {callee.attr}()"
            if isinstance(n, ast.Name) and n.id in self.tainted:
                return f"tainted name {n.id!r}"
        return None

    def _rhs_taints(self, node: ast.expr) -> bool:
        """Does assigning this RHS taint the target?

        Containment taints — *except* through non-wrapping calls, whose
        results are derived values.  Implemented by pruning call
        subtrees unless the call is a known re-encoding.
        """
        if isinstance(node, ast.Call):
            callee = node.func
            is_wrap = (
                isinstance(callee, ast.Name) and callee.id in WRAP_CALLS
            ) or (
                isinstance(callee, ast.Attribute)
                and callee.attr in WRAP_METHODS
            )
            if isinstance(callee, ast.Attribute) \
                    and callee.attr in SECRET_CALLS:
                return True
            if not is_wrap:
                return False
            return any(self._rhs_taints(a) for a in node.args) or (
                isinstance(callee, ast.Attribute)
                and self._rhs_taints(callee.value)
            )
        if isinstance(node, ast.Attribute) and node.attr in SECRET_ATTRS:
            return True
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        return any(
            self._rhs_taints(child)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        )

    def propagate(self, fn: ast.AST) -> None:
        """Fixed-point over plain name assignments (order-insensitive)."""
        changed = True
        while changed:
            changed = False
            for node in ast.walk(fn):
                if not isinstance(node, ast.Assign):
                    continue
                if not self._rhs_taints(node.value):
                    continue
                for target in node.targets:
                    names = (
                        [target]
                        if isinstance(target, ast.Name)
                        else list(target.elts)
                        if isinstance(target, (ast.Tuple, ast.List))
                        else []
                    )
                    for t in names:
                        if isinstance(t, ast.Name) \
                                and t.id not in self.tainted:
                            self.tainted.add(t.id)
                            changed = True


def _sink_kind(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "print":
            return "print"
        if func.id in SPAN_FUNCTIONS:
            return "span attribute"
        return None
    if isinstance(func, ast.Attribute):
        receiver = func.value
        recv_name = receiver.id if isinstance(receiver, ast.Name) else None
        if func.attr in LOG_METHODS and recv_name in LOG_RECEIVERS:
            return "log"
        if func.attr in ("set", "set_attribute") \
                and recv_name in SPAN_RECEIVERS:
            return "span attribute"
        if func.attr in SPAN_FUNCTIONS or func.attr == "add_event":
            return "span attribute"
        if func.attr in ("dump", "dumps") and recv_name == "json":
            return "JSON"
    return None


def _traced_attrs_lambda(node: ast.Call) -> ast.Lambda | None:
    """The ``attrs`` lambda of a ``traced(name, attrs)`` hook, if any."""
    if getattr(node.func, "id", getattr(node.func, "attr", None)) != "traced":
        return None
    attrs = node.args[1:2] + [
        kw.value for kw in node.keywords if kw.arg == "attrs"
    ]
    return attrs[0] if attrs and isinstance(attrs[0], ast.Lambda) else None


@register
class SecretFlowRule(Rule):
    id = "secret-flow"
    title = "key material must not reach logs, spans, JSON or exceptions"
    description = (
        "Intraprocedural taint from secret carriers (usage/migration/"
        "owner auth, tpm proof, secret_material(), *_auth parameters) to "
        "observable sinks: logger calls, print, span attributes, "
        "json.dump(s) and exception messages."
    )
    example_violation = (
        "repro/tpm/_injected_secret_flow.py",
        "def check_auth(owner_auth, given):\n"
        "    if owner_auth != given:\n"
        "        raise ValueError(f'expected {owner_auth!r}')\n",
    )

    def check(self, module: ModuleSource) -> List[Finding]:
        if not module.relpath.startswith("repro/"):
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            # A traced hook's attrs lambda turns its parameters (the
            # decorated call's arguments) into span attributes.
            attrs = isinstance(node, ast.Call) and _traced_attrs_lambda(node)
            why = attrs and _FunctionTaint(attrs).expr_source(attrs.body)
            if why:
                findings.append(self.finding(
                    module, node.lineno,
                    f"{why} flows into a span attribute sink in a "
                    "traced(…) attrs lambda",
                ))
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            taint = _FunctionTaint(fn)
            taint.propagate(fn)
            if not taint.tainted and not self._has_direct_sources(fn):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    kind = _sink_kind(node)
                    if kind is None:
                        continue
                    for arg in list(node.args) + [
                        kw.value for kw in node.keywords
                    ]:
                        why = taint.expr_source(arg)
                        if why is not None:
                            findings.append(self.finding(
                                module, node.lineno,
                                f"{why} flows into a {kind} sink in "
                                f"{fn.name}()",
                            ))
                            break
                elif isinstance(node, ast.Raise) and node.exc is not None:
                    why = taint.expr_source(node.exc)
                    if why is not None:
                        findings.append(self.finding(
                            module, node.lineno,
                            f"{why} flows into an exception message in "
                            f"{fn.name}() — exception text reaches audit "
                            "reasons and degraded responses",
                        ))
        return findings

    @staticmethod
    def _has_direct_sources(fn: ast.AST) -> bool:
        for n in ast.walk(fn):
            if isinstance(n, ast.Attribute) and n.attr in SECRET_ATTRS:
                return True
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr in SECRET_CALLS
            ):
                return True
        return False
