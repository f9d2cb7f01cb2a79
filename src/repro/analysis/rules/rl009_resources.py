"""RL009 — resource lifecycle: serve-layer resources are released on all paths.

The serving stack holds real OS resources: executors with worker threads or
processes, the ``--status-port`` HTTP server, span-trace file handles, and
the registry's ``flock`` writer lock.  A resource acquired on one path and
leaked on another is exactly the bug class that survives happy-path tests
and kills a long-lived service (PR 9's ``StatusServer`` and PR 3/6's
executor teardown are the motivating audits).  For every module under
``repro/serve``, an *acquisition* — a call to one of

- ``ThreadPoolExecutor`` / ``ProcessPoolExecutor``,
- ``ThreadingHTTPServer`` / ``HTTPServer``,
- ``SpanTracer``,
- builtin ``open``,
- ``fcntl.flock(x, LOCK_EX)`` (lock acquisition form)

must be released on every path.  Accepted disciplines, per acquisition:

- a ``with`` statement (``with ThreadPoolExecutor(...) as pool``,
  ``with open(...) as fh``, ``with closing(obj)``);
- ownership transfer: the object is returned, yielded, or passed to another
  call (whoever receives it owns the release);
- a local binding released by a ``close``/``shutdown``/``server_close``/
  ``stop``/``terminate``/``release`` call *inside a* ``finally`` *block* of
  the same function — a release reachable only on the happy path is flagged
  with its own message;
- an instance attribute (``self.x = acquire()``) on a class that releases
  ``self.x`` in some method (the registered-``close()`` idiom of
  ``JsonlSink``, the one JSONL appender);
- ``flock(x, LOCK_EX)`` paired with ``flock(x, LOCK_UN)`` in a ``finally``
  block of the same function.

Documented false negatives: aliasing (``y = x``) is not tracked, a release
behind a helper function is not seen, conditional acquisitions are treated
as acquired, and a ``with`` block that leaks the object out of its body is
trusted.  Calls through variables holding the constructor are not seen.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import LintContext, ParsedModule
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, dotted_name, in_serve_package

__all__ = ["ResourceLifecycleRule"]

#: Constructor names (last dotted component) that acquire a resource.
_ACQUIRERS = frozenset(
    {
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
        "ThreadingHTTPServer",
        "HTTPServer",
        "SpanTracer",
        "open",
    }
)
#: Method names that count as releasing a resource.
_RELEASERS = frozenset(
    {"close", "shutdown", "server_close", "stop", "terminate", "release"}
)


def _call_name(node: ast.Call) -> str | None:
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    return dotted.rsplit(".", 1)[-1]


def _acquisition_call(node: ast.expr) -> ast.Call | None:
    """The acquiring Call under ``node``, looking through ``x if c else y``."""
    if isinstance(node, ast.IfExp):
        return _acquisition_call(node.body) or _acquisition_call(node.orelse)
    if isinstance(node, ast.Call) and _call_name(node) in _ACQUIRERS:
        return node
    return None


def _is_flock(node: ast.Call, mode: str) -> str | None:
    """Locked-object dotted name when ``node`` is ``flock(x, LOCK_<mode>)``."""
    if _call_name(node) != "flock" or len(node.args) < 2:
        return None
    flag = dotted_name(node.args[1])
    if flag is None or not flag.endswith(f"LOCK_{mode}"):
        return None
    return dotted_name(node.args[0])


class _FunctionAuditor(ast.NodeVisitor):
    """Audit one function body: acquisitions vs releases/escapes."""

    def __init__(self) -> None:
        #: local name -> (assign node, constructor name) for tracked locals.
        self.local_acquisitions: dict[str, tuple[ast.AST, str]] = {}
        #: self attr -> (assign node, constructor name).
        self.attr_acquisitions: dict[str, tuple[ast.AST, str]] = {}
        #: flock-EX calls: locked-object dotted name -> call node.
        self.flock_acquisitions: dict[str, ast.Call] = {}
        #: names released anywhere / released inside a finally block.
        self.released: set[str] = set()
        self.released_in_finally: set[str] = set()
        #: flock-UN'd object names inside a finally block.
        self.unlocked_in_finally: set[str] = set()
        #: names that escape the function (returned/yielded/passed along).
        self.escaped: set[str] = set()
        #: names entered via ``with name:`` / rebound by a with-item.
        self.with_managed: set[str] = set()
        self._finally_depth = 0

    # -- acquisition sites ------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        call = _acquisition_call(node.value)
        if call is not None:
            for target in node.targets:
                self._record_target(target, node, _call_name(call) or "")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            call = _acquisition_call(node.value)
            if call is not None:
                self._record_target(node.target, node, _call_name(call) or "")
        self.generic_visit(node)

    def _record_target(self, target: ast.expr, node: ast.AST, ctor: str) -> None:
        if isinstance(target, ast.Name):
            self.local_acquisitions[target.id] = (node, ctor)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.attr_acquisitions[target.attr] = (node, ctor)

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        for item in node.items:
            expr = item.context_expr
            name = dotted_name(expr)
            if name is not None:
                self.with_managed.add(name)
            if isinstance(expr, ast.Call):
                # ``with closing(x)`` / ``with stack.enter_context(x)``:
                # the argument names become managed too.
                for arg in expr.args:
                    arg_name = dotted_name(arg)
                    if arg_name is not None:
                        self.with_managed.add(arg_name)
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        for child in node.body + node.handlers + node.orelse:  # type: ignore[operator]
            self.visit(child)
        self._finally_depth += 1
        for child in node.finalbody:
            self.visit(child)
        self._finally_depth -= 1

    # -- release / escape sites -------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _RELEASERS:
            owner = dotted_name(func.value)
            if owner is not None:
                self.released.add(owner)
                if self._finally_depth:
                    self.released_in_finally.add(owner)
        locked = _is_flock(node, "EX")
        if locked is not None:
            self.flock_acquisitions.setdefault(locked, node)
        unlocked = _is_flock(node, "UN")
        if unlocked is not None and self._finally_depth:
            self.unlocked_in_finally.add(unlocked)
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            self._record_escape(arg)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._record_escape(node.value)
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        if node.value is not None:
            self._record_escape(node.value)
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self._record_escape(node.value)
        self.generic_visit(node)

    def _record_escape(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            name = dotted_name(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
            if name is not None:
                self.escaped.add(name)

    # Nested defs get their own audit; do not descend.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _class_releases(cls: ast.ClassDef) -> set[str]:
    """``self.<attr>`` names some method of ``cls`` calls a releaser on."""
    released: set[str] = set()
    for stmt in cls.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RELEASERS
            ):
                owner = dotted_name(node.func.value)
                if owner is not None and owner.startswith("self."):
                    released.add(owner.split(".", 2)[1])
    return released


class ResourceLifecycleRule(Rule):
    rule_id = "RL009"
    title = "Serve-layer resources are released on all paths"
    severity = "error"
    false_negatives = (
        "Aliasing is not tracked, releases behind helper functions are not "
        "seen, constructors reached through variables are invisible, and an "
        "object that escapes (returned/yielded/passed along) is trusted to "
        "be released by its new owner."
    )

    def check_module(
        self, module: ParsedModule, context: LintContext
    ) -> Iterable[Finding]:
        if not in_serve_package(module):
            return ()
        findings: list[Finding] = []
        for cls_node, func_node, qualname in _iter_functions(module.tree):
            auditor = _FunctionAuditor()
            for stmt in func_node.body:
                auditor.visit(stmt)
            findings.extend(
                self._audit(module, auditor, cls_node, qualname)
            )
        return findings

    def _audit(
        self,
        module: ParsedModule,
        auditor: _FunctionAuditor,
        cls_node: ast.ClassDef | None,
        qualname: str,
    ) -> Iterable[Finding]:
        for name, (node, ctor) in sorted(auditor.local_acquisitions.items()):
            if name in auditor.with_managed or name in auditor.escaped:
                continue
            if name in auditor.released_in_finally:
                continue
            if name in auditor.released:
                yield self.finding(
                    module,
                    node,
                    f"`{name} = {ctor}(...)` is released only on the happy "
                    "path; move the release into a `finally` block or use "
                    "`with`",
                    context=qualname,
                )
            else:
                yield self.finding(
                    module,
                    node,
                    f"`{name} = {ctor}(...)` is never released in this "
                    "function and does not escape; use `with`, a "
                    "`try/finally` release, or transfer ownership",
                    context=qualname,
                )
        class_released = _class_releases(cls_node) if cls_node is not None else set()
        for attr, (node, ctor) in sorted(auditor.attr_acquisitions.items()):
            if f"self.{attr}" in auditor.with_managed:
                continue
            if attr not in class_released:
                yield self.finding(
                    module,
                    node,
                    f"`self.{attr} = {ctor}(...)` but no method of this "
                    f"class releases `self.{attr}`; add a registered "
                    "`close()`/`stop()` that does",
                    context=qualname,
                )
        for locked, node in sorted(auditor.flock_acquisitions.items()):
            if locked not in auditor.unlocked_in_finally:
                yield self.finding(
                    module,
                    node,
                    f"`flock({locked}, LOCK_EX)` without a matching "
                    f"`flock({locked}, LOCK_UN)` in a `finally` block of "
                    "the same function",
                    context=qualname,
                )


def _iter_functions(
    tree: ast.Module,
) -> Iterable[tuple[ast.ClassDef | None, ast.FunctionDef | ast.AsyncFunctionDef, str]]:
    """Top-level functions and class methods with their qualnames."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, stmt, stmt.name
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield stmt, sub, f"{stmt.name}.{sub.name}"
