"""RL010 — event-schema consistency: producers and consumers cannot drift.

Every component of the serving stack communicates through JSONL event dicts
discriminated by a literal ``"type"`` key: sinks write them, ``report.py``
condenses them into timelines, ``traceview`` reads them back.  Nothing but
convention keeps a producer's key set and a consumer's literal reads in
sync — until this rule.  Using the whole scanned tree it builds:

- the **producer universe**: every dict literal containing a constant
  ``"type"`` key (``{"type": "alert", ...}``) plus every constant store
  ``d["type"] = "alert"``.  A type's key set is the union of its literal
  producers' constant keys; a producer with ``**`` unpacking, non-constant
  keys, or subscript-store construction marks the type *dynamic* (type-name
  checks still apply, key-completeness checks are skipped for it);
- the **consumer sites**: literal comparisons ``x.get("type") == "alert"``
  / ``x["type"] == "alert"`` anywhere, plus module-level ``*_TYPES``
  set/frozenset/tuple literals of strings (the membership-test idiom in
  ``telemetry/report.py``).

Checks (all skipped when the scan contains no literal producer at all, so
linting one file never emits spurious whole-tree findings):

1. every consumed type name must be produced somewhere in the scan;
2. inside an ``if x.get("type") == "T":`` block, constant subscript reads
   ``x["k"]`` must be keys some static producer of ``T`` writes;
3. a class with both ``to_dict`` and ``from_dict`` must have every required
   ``payload["k"]`` subscript in ``from_dict`` covered by a constant key
   its ``to_dict`` produces.

Documented false negatives: types flowing through variables
(``{"type": kind}``) are invisible as producers; key reads via ``.get()``
are tolerant by construction and not checked; span-dict key drift between
``tracing.py`` producers and ``traceview`` readers is out of scope (spans
carry no ``"type"`` discriminator).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.engine import LintContext, ParsedModule
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, ScopedVisitor

__all__ = ["EventSchemaConsistencyRule"]


@dataclass
class _Producers:
    """Everything the scan produces, keyed by literal event type."""

    keys: dict[str, set[str]] = field(default_factory=dict)
    dynamic: set[str] = field(default_factory=set)

    def record_literal(self, type_name: str, dict_node: ast.Dict) -> None:
        bucket = self.keys.setdefault(type_name, set())
        static = True
        for key in dict_node.keys:
            if key is None:  # ** unpacking
                static = False
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                bucket.add(key.value)
            else:
                static = False
        if not static:
            self.dynamic.add(type_name)

    def record_store(self, type_name: str) -> None:
        # ``d["type"] = "T"``: the surrounding construction is not a single
        # literal, so the key set cannot be trusted as complete.
        self.keys.setdefault(type_name, set())
        self.dynamic.add(type_name)


def _type_read(node: ast.expr) -> str | None:
    """Variable name when ``node`` is ``x["type"]`` or ``x.get("type")``."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == "type"
        and isinstance(node.value, ast.Name)
    ):
        return node.value.id
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name)
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "type"
    ):
        return node.func.value.id
    return None


def _literal_strings(node: ast.expr) -> list[str] | None:
    if isinstance(node, ast.Call) and node.args:
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("frozenset", "set", "tuple", "list"):
            return _literal_strings(node.args[0])
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        values = []
        for element in node.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None
            values.append(element.value)
        return values
    return None


class _ProducerScan(ast.NodeVisitor):
    def __init__(self, producers: _Producers) -> None:
        self.producers = producers

    def visit_Dict(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "type"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                self.producers.record_literal(value.value, node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.slice, ast.Constant)
                and target.slice.value == "type"
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                self.producers.record_store(node.value.value)
        self.generic_visit(node)


class _ConsumerScan(ScopedVisitor):
    def __init__(self, module: ParsedModule) -> None:
        super().__init__()
        self.module = module
        #: (type name, node, qualname) for every literal type comparison.
        self.compared: list[tuple[str, ast.AST, str]] = []
        #: (type name, node) from module-level ``*_TYPES`` literals.
        self.type_sets: list[tuple[str, ast.AST]] = []
        #: (type name, key, node, qualname) for guarded subscript reads.
        self.guarded_reads: list[tuple[str, str, ast.AST, str]] = []

    def visit_Compare(self, node: ast.Compare) -> None:
        self._check_compare(node)
        self.generic_visit(node)

    def _check_compare(self, node: ast.Compare) -> str | None:
        """Returns the compared type name for an ``== "T"`` type test."""
        if len(node.ops) != 1 or not isinstance(node.ops[0], ast.Eq):
            return None
        left, right = node.left, node.comparators[0]
        var = _type_read(left)
        const = right if isinstance(right, ast.Constant) else None
        if var is None:
            var = _type_read(right)
            const = left if isinstance(left, ast.Constant) else None
        if var is None or const is None or not isinstance(const.value, str):
            return None
        self.compared.append((const.value, node, self.qualname))
        return const.value

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if (
                isinstance(target, ast.Name)
                and target.id.endswith("_TYPES")
                and self.qualname == "<module>"
            ):
                values = _literal_strings(node.value)
                if values is not None:
                    for value in values:
                        self.type_sets.append((value, node))
        self.generic_visit(node)

    def visit_If(self, node: ast.If) -> None:
        guard: tuple[str, str] | None = None
        if isinstance(node.test, ast.Compare):
            type_name = self._peek_type_test(node.test)
            if type_name is not None:
                var = _type_read(node.test.left) or _type_read(
                    node.test.comparators[0]
                )
                if var is not None:
                    guard = (var, type_name)
        if guard is not None:
            var, type_name = guard
            for child in node.body:
                for sub in ast.walk(child):
                    if (
                        isinstance(sub, ast.Subscript)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == var
                        and isinstance(sub.ctx, ast.Load)
                        and isinstance(sub.slice, ast.Constant)
                        and isinstance(sub.slice.value, str)
                    ):
                        self.guarded_reads.append(
                            (type_name, sub.slice.value, sub, self.qualname)
                        )
        self.generic_visit(node)

    @staticmethod
    def _peek_type_test(node: ast.Compare) -> str | None:
        if len(node.ops) != 1 or not isinstance(node.ops[0], ast.Eq):
            return None
        left, right = node.left, node.comparators[0]
        if _type_read(left) is not None and isinstance(right, ast.Constant):
            return right.value if isinstance(right.value, str) else None
        if _type_read(right) is not None and isinstance(left, ast.Constant):
            return left.value if isinstance(left.value, str) else None
        return None


def _dict_pair_issues(cls: ast.ClassDef) -> list[tuple[str, ast.AST]]:
    """Required ``payload["k"]`` reads in from_dict missing from to_dict."""
    to_dict = from_dict = None
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name == "to_dict":
                to_dict = stmt
            elif stmt.name == "from_dict":
                from_dict = stmt
    if to_dict is None or from_dict is None:
        return []
    produced: set[str] = set()
    static = False
    for node in ast.walk(to_dict):
        if isinstance(node, ast.Dict):
            static = True
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    produced.add(key.value)
                else:
                    static = False
    if not static:
        return []
    payload_names = {arg.arg for arg in from_dict.args.args} - {"cls", "self"}
    issues: list[tuple[str, ast.AST]] = []
    for node in ast.walk(from_dict):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in payload_names
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and node.slice.value not in produced
        ):
            issues.append((node.slice.value, node))
    return issues


class EventSchemaConsistencyRule(Rule):
    rule_id = "RL010"
    title = "Event producers and consumers agree on types and keys"
    severity = "error"
    false_negatives = (
        "Types flowing through variables are invisible as producers, "
        "tolerant `.get()` key reads are never checked, and span-dict key "
        "drift (no `type` discriminator) is out of scope."
    )

    def finalize(self, context: LintContext) -> Iterable[Finding]:
        producers = _Producers()
        for module in context.modules:
            _ProducerScan(producers).visit(module.tree)
        if not producers.keys:
            return ()

        findings: list[Finding] = []
        for module in context.modules:
            scan = _ConsumerScan(module)
            scan.visit(module.tree)
            for type_name, node, qualname in scan.compared:
                if type_name not in producers.keys:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f'consumed event type "{type_name}" is produced '
                            "nowhere in the scanned tree; fix the typo or "
                            "add the producer",
                            context=qualname,
                        )
                    )
            for type_name, node in scan.type_sets:
                if type_name not in producers.keys:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f'type-set entry "{type_name}" is produced '
                            "nowhere in the scanned tree; fix the typo or "
                            "add the producer",
                        )
                    )
            for type_name, key, node, qualname in scan.guarded_reads:
                if (
                    type_name in producers.keys
                    and type_name not in producers.dynamic
                    and key not in producers.keys[type_name]
                ):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f'reads ["{key}"] from a "{type_name}" event, '
                            "but no producer of that type writes this key",
                            context=qualname,
                        )
                    )
            for stmt in module.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    for key, node in _dict_pair_issues(stmt):
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f'from_dict requires payload["{key}"] but '
                                f"to_dict of {stmt.name} never writes it; "
                                "the round-trip cannot survive",
                                context=f"{stmt.name}.from_dict",
                            )
                        )
        return findings
