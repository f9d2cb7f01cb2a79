"""Pass 1 of the two-pass linter: whole-tree symbol table and call graph.

Per-module rules see one file at a time; the cross-module taint rule
(RL012) needs to know *who defines what* and *who calls whom* across the
scanned tree.  :func:`build_project` walks every parsed module once and
produces a :class:`ProjectGraph`:

- per module: defined classes (with their method names), top-level
  functions, and the import alias table with relative imports resolved
  against the module's dotted name;
- a call graph keyed by ``"<display_path>::<qualname>"``: direct calls to
  same-module functions, ``self.method()`` calls within a class, and calls
  through ``import``/``from … import`` aliases resolved to functions of
  other scanned modules, each edge annotated with the first call-site line.

Resolution is deliberately static and conservative: calls through variables,
containers, ``getattr``, or methods on objects of unknown type produce no
edge (the consuming rules document this as a false negative).  Everything is
keyed on display paths and dotted names derived from path shape, so fixture
modules parsed under pretend paths participate exactly like files on disk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.engine import LintContext, ParsedModule
from repro.analysis.rules.base import dotted_name

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "ProjectGraph",
    "build_project",
    "function_key",
]


def function_key(display_path: str, qualname: str) -> str:
    """The call-graph node id for ``qualname`` defined in ``display_path``."""
    return f"{display_path}::{qualname}"


@dataclass
class FunctionInfo:
    """One function or method definition."""

    module: str  # display path
    qualname: str  # "func" or "Class.method"
    lineno: int


@dataclass
class ModuleInfo:
    """Symbols one module defines plus its resolved imports."""

    display_path: str
    dotted: str | None
    #: class name -> method names defined on the class body.
    classes: dict[str, set[str]] = field(default_factory=dict)
    #: qualnames of every function/method ("func", "Class.method").
    functions: set[str] = field(default_factory=set)
    #: local name -> canonical dotted target ("repro.serve.sinks",
    #: "repro.serve.sinks.read_events", "numpy", ...).
    imports: dict[str, str] = field(default_factory=dict)


@dataclass
class ProjectGraph:
    """The resolved whole-tree view the cross-module rules consume."""

    #: display path -> ModuleInfo.
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    #: dotted module name -> display path (scanned modules only).
    by_dotted: dict[str, str] = field(default_factory=dict)
    #: function key -> FunctionInfo.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: caller function key -> {callee function key: first call-site line}.
    call_edges: dict[str, dict[str, int]] = field(default_factory=dict)


def _resolve_relative(module: ParsedModule, node: ast.ImportFrom) -> str | None:
    """Absolute dotted target of a relative ``from … import``, if knowable."""
    dotted = module.dotted
    if dotted is None:
        return None
    package = dotted.rsplit(".", 1)[0] if "." in dotted else dotted
    if module.display_path.endswith("__init__.py"):
        package = dotted
    parts = package.split(".")
    hops = node.level - 1
    if hops > len(parts):
        return None
    base = parts[: len(parts) - hops]
    if node.module:
        base.append(node.module)
    return ".".join(base) if base else None


def _collect_imports(module: ParsedModule) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                target = node.module
            else:
                target = _resolve_relative(module, node)
            if target is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{target}.{alias.name}"
    return imports


class _DefCollector(ast.NodeVisitor):
    """Record classes, their methods, and top-level functions."""

    def __init__(self, info: ModuleInfo, display: str) -> None:
        self.info = info
        self.display = display
        self.functions: dict[str, FunctionInfo] = {}
        self._class: list[str] = []
        self._func: list[str] = []

    def _qualname(self, name: str) -> str:
        if self._class:
            return f"{self._class[-1]}.{name}"
        return name

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self._class and not self._func:
            self.info.classes[node.name] = set()
            self._class.append(node.name)
            self.generic_visit(node)
            self._class.pop()

    def _visit_func(self, node: ast.AST) -> None:
        name = node.name  # type: ignore[attr-defined]
        if self._class and not self._func:
            self.info.classes[self._class[-1]].add(name)
        if not self._func:
            qualname = self._qualname(name)
            self.info.functions.add(qualname)
            key = function_key(self.display, qualname)
            self.functions[key] = FunctionInfo(
                module=self.display, qualname=qualname, lineno=node.lineno  # type: ignore[attr-defined]
            )
        self._func.append(name)
        self.generic_visit(node)
        self._func.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func


class _CallCollector(ast.NodeVisitor):
    """Resolve call expressions into call-graph edges for one module."""

    def __init__(self, graph: ProjectGraph, module: ParsedModule) -> None:
        self.graph = graph
        self.module = module
        self.info = graph.modules[module.display_path]
        self._class: list[str] = []
        self._func: list[str] = []

    @property
    def _caller_key(self) -> str | None:
        if not self._func:
            return None
        qualname = self._func[0]
        if self._class:
            qualname = f"{self._class[-1]}.{self._func[0]}"
        return function_key(self.module.display_path, qualname)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class.append(node.name)
        self.generic_visit(node)
        self._class.pop()

    def _visit_func(self, node: ast.AST) -> None:
        self._func.append(node.name)  # type: ignore[attr-defined]
        self.generic_visit(node)
        self._func.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Call(self, node: ast.Call) -> None:
        caller = self._caller_key
        if caller is not None:
            callee = self._resolve(node.func)
            if callee is not None and callee in self.graph.functions:
                self.graph.call_edges.setdefault(caller, {}).setdefault(
                    callee, node.lineno
                )
        self.generic_visit(node)

    def _resolve(self, func: ast.expr) -> str | None:
        dotted = dotted_name(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        display = self.module.display_path
        # self.method() within the enclosing class.
        if head == "self" and self._class and rest and "." not in rest:
            cls = self._class[-1]
            if rest in self.info.classes.get(cls, ()):
                return function_key(display, f"{cls}.{rest}")
            return None
        # Same-module function or Class.method.
        if not rest and dotted in self.info.functions:
            return function_key(display, dotted)
        if rest and "." not in rest and f"{head}.{rest}" in self.info.functions:
            return function_key(display, f"{head}.{rest}")
        # Through an import alias.
        if head in self.info.imports:
            target = self.info.imports[head]
            full = f"{target}.{rest}" if rest else target
            return self._resolve_dotted(full)
        return None

    def _resolve_dotted(self, full: str) -> str | None:
        """Map an absolute dotted callable to a scanned function key."""
        parts = full.split(".")
        # Longest scanned-module prefix wins; the remainder is the qualname.
        for split in range(len(parts) - 1, 0, -1):
            module_dotted = ".".join(parts[:split])
            display = self.graph.by_dotted.get(module_dotted)
            if display is None:
                continue
            qualname = ".".join(parts[split:])
            if qualname in self.graph.modules[display].functions:
                return function_key(display, qualname)
            return None
        return None


def build_project(context: LintContext) -> ProjectGraph:
    """Build the :class:`ProjectGraph` for every module in ``context``."""
    graph = ProjectGraph()
    for module in context.modules:
        info = ModuleInfo(
            display_path=module.display_path,
            dotted=module.dotted,
            imports=_collect_imports(module),
        )
        collector = _DefCollector(info, module.display_path)
        collector.visit(module.tree)
        graph.functions.update(collector.functions)
        graph.modules[module.display_path] = info
        if module.dotted is not None:
            graph.by_dotted.setdefault(module.dotted, module.display_path)
    for module in context.modules:
        _CallCollector(graph, module).visit(module.tree)
    return graph
