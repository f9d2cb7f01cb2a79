"""RL004 — sink-event schema: everything emitted has a literal-keyed to_dict.

Every event that reaches a sink ends up as one JSON object in
``events.jsonl`` and is later routed by its ``"type"`` key (the timeline
and report builders dispatch on it).  This rule finds the classes that flow
into sinks — constructor calls appearing directly in ``self._emit(...)`` /
``<sink>.emit(...)`` / ``emit_resilient(sinks, ...)``, constructors assigned
to a local that is then emitted inside the same function (also as a starred
batch, ``self._emit(*alerts)``), plus a declared
set of event classes that are emitted indirectly (``SinkDisabled``,
``RegistryRecovery``) — and requires each to define ``to_dict`` returning a
dict whose keys are statically known string literals including ``"type"``.

A ``to_dict`` that *delegates* (``payload = self.report.to_dict()``) is
trusted to inherit the delegate's keys; the delegate carries the ``"type"``
key (documented false negative).

Note: the issue text calls the discriminator ``"event"``; the shipped
stack's actual schema key — asserted by the report/timeline code and the
golden report test — is ``"type"``, so that is what this rule enforces.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import LintContext, ParsedModule
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, in_serve_package

__all__ = ["SinkEventSchemaRule"]

#: The discriminator key every emitted event must carry.
EVENT_TYPE_KEY = "type"
#: Event classes emitted through dataflow the visitor cannot trace (returned
#: from another function, passed in as a parameter).
DECLARED_EVENT_CLASSES = frozenset(
    {"SinkDisabled", "RegistryRecovery", "LifecycleEvent"}
)


def _constructor_name(node: ast.expr) -> str | None:
    """Class name when ``node`` is ``SomeClass(...)`` (dotted allowed)."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if isinstance(name, str) and name[:1].isupper():
            return name
    return None


def _collect_emitted(tree: ast.Module) -> dict[str, int]:
    """Event class names -> line of first emit site, per module."""
    emitted: dict[str, int] = {}

    for func in [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]:
        local_ctors: dict[str, str] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                # Accept a constructor anywhere in the assigned value, which
                # covers collections built from genexps:
                #   alerts = tuple(Alert(...) for i in hits)
                ctor = next(
                    (
                        name
                        for sub in ast.walk(node.value)
                        if (name := _constructor_name(sub)) is not None
                    ),
                    None,
                )
                if ctor is not None:
                    local_ctors[target.id] = ctor
        # Propagate through for-loops over a tracked collection:
        #   for alert in alerts: self._emit(alert)
        for node in ast.walk(func):
            if (
                isinstance(node, ast.For)
                and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Name)
                and node.iter.id in local_ctors
            ):
                local_ctors.setdefault(node.target.id, local_ctors[node.iter.id])
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            func_node = node.func
            event_arg: ast.expr | None = None
            if isinstance(func_node, ast.Attribute) and func_node.attr in ("_emit", "emit"):
                event_arg = node.args[0] if node.args else None
            elif isinstance(func_node, ast.Name) and func_node.id == "emit_resilient":
                event_arg = node.args[1] if len(node.args) > 1 else None
            if event_arg is None:
                continue
            if isinstance(event_arg, ast.Starred):  # self._emit(*alerts)
                event_arg = event_arg.value
            ctor = _constructor_name(event_arg)
            if ctor is None and isinstance(event_arg, ast.Name):
                ctor = local_ctors.get(event_arg.id)
            if ctor is not None:
                emitted.setdefault(ctor, node.lineno)
    return emitted


def _to_dict_keys(method: ast.FunctionDef) -> tuple[set[str] | None, bool, bool]:
    """(keys, delegated, static) for a ``to_dict`` body.

    ``keys`` is the union of statically-known string keys across return
    paths; ``delegated`` is True when some return path starts from another
    object's ``to_dict()``; ``static`` is False when any return value is not
    statically resolvable (at which point ``keys`` is meaningless).
    """
    #: variable -> (keys, delegated) accumulated from assignments.
    var_state: dict[str, tuple[set[str], bool]] = {}
    keys: set[str] = set()
    delegated = False
    static = True

    def literal_keys(node: ast.expr) -> set[str] | None:
        if isinstance(node, ast.Dict):
            out: set[str] = set()
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    out.add(key.value)
                elif key is None:  # ``**other`` merge: unknown keys, keep known
                    continue
                else:
                    return None
            return out
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "dict"
            and not node.args
        ):
            out = set()
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                out.add(keyword.arg)
            return out
        return None

    def is_to_dict_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "to_dict"
        )

    for node in ast.walk(method):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                lit = literal_keys(node.value)
                if lit is not None:
                    var_state[target.id] = (lit, False)
                elif is_to_dict_call(node.value):
                    var_state[target.id] = (set(), True)
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in var_state
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
            ):
                var_state[target.value.id][0].add(target.slice.value)
        elif isinstance(node, ast.Return) and node.value is not None:
            lit = literal_keys(node.value)
            if lit is not None:
                keys |= lit
            elif is_to_dict_call(node.value):
                delegated = True
            elif isinstance(node.value, ast.Name) and node.value.id in var_state:
                var_keys, var_delegated = var_state[node.value.id]
                keys |= var_keys
                delegated = delegated or var_delegated
            else:
                static = False
    return keys, delegated, static


class SinkEventSchemaRule(Rule):
    rule_id = "RL004"
    title = "Emitted events define to_dict with literal keys including 'type'"
    severity = "error"
    false_negatives = (
        "Events emitted through containers or attributes (never a bare local "
        "assigned from a constructor in the emitting function) are only "
        "covered if listed in DECLARED_EVENT_CLASSES; a delegated to_dict is "
        "trusted to carry the 'type' key."
    )

    def finalize(self, context: LintContext) -> Iterable[Finding]:
        serve_modules = [m for m in context.modules if in_serve_package(m)]
        emitted: dict[str, tuple[ParsedModule, int]] = {}
        classes: dict[str, tuple[ParsedModule, ast.ClassDef]] = {}
        for module in serve_modules:
            for name, lineno in _collect_emitted(module.tree).items():
                emitted.setdefault(name, (module, lineno))
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    classes.setdefault(node.name, (module, node))
        for name in sorted(DECLARED_EVENT_CLASSES):
            if name in classes:
                module, node = classes[name]
                emitted.setdefault(name, (module, node.lineno))

        findings: list[Finding] = []
        for name in sorted(emitted):
            if name not in classes:
                continue  # constructed from an import we did not scan
            module, node = classes[name]
            to_dict = next(
                (
                    stmt
                    for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "to_dict"
                ),
                None,
            )
            if to_dict is None:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"event `{name}` is emitted through sinks but defines "
                        "no `to_dict`; JSONL sinks require it",
                        context=name,
                    )
                )
                continue
            keys, delegated, static = _to_dict_keys(to_dict)
            if not static:
                findings.append(
                    self.finding(
                        module,
                        to_dict,
                        f"`{name}.to_dict` does not return a statically "
                        "literal-keyed dict; the event schema must be "
                        "auditable from source",
                        context=f"{name}.to_dict",
                    )
                )
            elif EVENT_TYPE_KEY not in keys and not delegated:
                findings.append(
                    self.finding(
                        module,
                        to_dict,
                        f"`{name}.to_dict` is missing the literal "
                        f"'{EVENT_TYPE_KEY}' discriminator key the timeline "
                        "and report builders route on",
                        context=f"{name}.to_dict",
                    )
                )
        return findings
