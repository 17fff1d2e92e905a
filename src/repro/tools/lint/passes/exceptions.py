"""THRA102/THRA103 — interprocedural exception flow.

Computes, for every function in the program, the set of exception types
that can *escape* it (a fixpoint over the call graph, with ``try``/
``except`` absorption modelled per raise site), then derives two checks:

* **THRA102** — a builtin exception (``ValueError``, ``KeyError``, …) can
  escape a public function.  THR002 already bans *raising* builtins inside
  ``src/repro``; this closes the interprocedural half: a private helper's
  builtin raise surfacing through a public wrapper.
* **THRA103** — an ``except SomeReproError`` handler whose try body cannot
  produce that type (nor a sub/supertype of it): dead fault-handling code,
  usually left behind when a callee's error contract changed.

Both checks are deliberately conservative around what the call graph cannot
see: a try body containing an opaque call (callback, untyped dispatch) or a
call into an *open* function (one that itself makes opaque calls) is never
reported dead, and unresolvable raise expressions contribute nothing.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence

from ..config import AnalyzeConfig
from ..graph import FunctionInfo, ProgramGraph
from ..registry import AnalysisPass, Violation, finding_at, register

__all__ = [
    "EscapeAnalysis",
    "get_escape_analysis",
    "PublicBuiltinEscapePass",
    "DeadHandlerPass",
]

_UNKNOWN = "<unknown>"
_CATCH_ALL = "BaseException"

#: Partial builtin exception hierarchy — enough to decide subtype questions
#: for the exceptions this codebase (and realistic Python) raises.
_BUILTIN_PARENTS: dict[str, str] = {
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "LookupError": "Exception",
    "KeyError": "LookupError",
    "IndexError": "LookupError",
    "ValueError": "Exception",
    "TypeError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "AttributeError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "IOError": "OSError",
    "FileNotFoundError": "OSError",
    "FileExistsError": "OSError",
    "PermissionError": "OSError",
    "TimeoutError": "OSError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "GeneratorExit": "BaseException",
    "AssertionError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "MemoryError": "Exception",
    "SyntaxError": "Exception",
    "SystemExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
}

#: Builtins never reported by THRA102: abstract-method markers and the
#: iterator/interpreter control-flow exceptions.
_EXEMPT_BUILTINS = frozenset(
    {"NotImplementedError", "StopIteration", "StopAsyncIteration", "GeneratorExit",
     "SystemExit", "KeyboardInterrupt"}
)

_MAX_ITERATIONS = 50

#: One fixpoint per graph, shared by THRA102 and THRA103 within a run.
_ANALYSIS_CACHE: dict[int, tuple["ProgramGraph", "EscapeAnalysis"]] = {}


def get_escape_analysis(graph: ProgramGraph) -> "EscapeAnalysis":
    cached = _ANALYSIS_CACHE.get(id(graph))
    if cached is not None and cached[0] is graph:
        return cached[1]
    analysis = EscapeAnalysis(graph)
    _ANALYSIS_CACHE[id(graph)] = (graph, analysis)
    return analysis


def _builtin_ancestors(name: str) -> set[str]:
    out = {name}
    while name in _BUILTIN_PARENTS:
        name = _BUILTIN_PARENTS[name]
        out.add(name)
    return out


class EscapeAnalysis:
    """Per-function escaping-exception sets, plus an *open* bit.

    A function is open when it (transitively) makes a call the graph cannot
    resolve — its escape set is then a lower bound, not the full story.
    """

    def __init__(self, graph: ProgramGraph) -> None:
        self.graph = graph
        self.escapes: Dict[str, frozenset[str]] = {q: frozenset() for q in graph.functions}
        self.open: Dict[str, bool] = {q: False for q in graph.functions}
        self._compute()

    # ----------------------------------------------------------- type model

    def ancestors(self, type_name: str) -> set[str]:
        """All (internal + builtin) supertypes of an exception type name."""
        if type_name in self.graph.classes:
            out: set[str] = set()
            externals: set[str] = set()
            for cls in self.graph.mro(type_name):
                out.add(cls.qualname)
                for base in cls.bases:
                    if base not in self.graph.classes:
                        externals.add(base.rsplit(".", 1)[-1])
            for ext in externals:
                out |= _builtin_ancestors(ext)
            return out
        return _builtin_ancestors(type_name)

    def is_subtype(self, type_name: str, super_name: str) -> bool:
        if type_name == _UNKNOWN or super_name == _UNKNOWN:
            return False
        return super_name in self.ancestors(type_name)

    def resolve_exception(self, fn: FunctionInfo, expr: Optional[ast.expr]) -> str:
        """Exception type name raised/caught by ``expr`` (``<unknown>`` if unclear)."""
        if expr is None:
            return _UNKNOWN
        if isinstance(expr, ast.Call):
            return self.resolve_exception(fn, expr.func)
        module = self.graph.modules[fn.module]
        if isinstance(expr, ast.Name):
            resolved = self.graph.resolve_scope_name(module, expr.id)
            if resolved is not None and resolved[0] == "class":
                return resolved[1]
            if resolved is None and expr.id in _BUILTIN_PARENTS or expr.id == _CATCH_ALL:
                return expr.id
            return _UNKNOWN
        if isinstance(expr, ast.Attribute):
            value = expr.value
            if isinstance(value, ast.Name):
                resolved = self.graph.resolve_scope_name(module, value.id)
                if resolved is not None and resolved[0] == "module":
                    target = self.graph.modules.get(resolved[1])
                    if target is not None and expr.attr in target.classes:
                        return target.classes[expr.attr].qualname
            return _UNKNOWN
        return _UNKNOWN

    def handler_types(self, fn: FunctionInfo, handler: ast.ExceptHandler) -> list[str]:
        """Types one handler catches; unresolved types widen to catch-all."""
        if handler.type is None:
            return [_CATCH_ALL]
        exprs = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        out: list[str] = []
        for expr in exprs:
            resolved = self.resolve_exception(fn, expr)
            out.append(_CATCH_ALL if resolved == _UNKNOWN else resolved)
        return out

    def _absorbed(self, type_name: str, handlers: Sequence[Sequence[str]]) -> bool:
        for frame in handlers:
            for caught in frame:
                if caught == _CATCH_ALL or self.is_subtype(type_name, caught):
                    return True
        return False

    # -------------------------------------------------------- the fixpoint

    def _compute(self) -> None:
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for qualname, fn in self.graph.functions.items():
                out: set[str] = set()
                state = {"open": False}
                for stmt in fn.node.body:
                    self._walk_stmt(stmt, fn, [], frozenset(), out, state)
                new_escapes = frozenset(out)
                new_open = state["open"]
                if new_escapes != self.escapes[qualname] or new_open != self.open[qualname]:
                    self.escapes[qualname] = new_escapes
                    self.open[qualname] = new_open
                    changed = True
            if not changed:
                return

    def _walk_stmt(
        self,
        stmt: ast.stmt,
        fn: FunctionInfo,
        handlers: list[list[str]],
        reraise: frozenset[str],
        out: set[str],
        state: dict[str, bool],
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def runs when *called*, typically outside the
            # lexically enclosing try — analyze its body without handlers.
            for inner in stmt.body:
                self._walk_stmt(inner, fn, [], frozenset(), out, state)
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Raise):
            self._scan_exprs(stmt, fn, handlers, out, state)
            if stmt.exc is None:
                raised = set(reraise) or {_UNKNOWN}
            else:
                raised = {self.resolve_exception(fn, stmt.exc)}
            for type_name in raised:
                if type_name == _UNKNOWN:
                    state["open"] = True
                    continue
                if not self._absorbed(type_name, handlers):
                    out.add(type_name)
            return
        if isinstance(stmt, ast.Try):
            caught_here = [
                t
                for handler in stmt.handlers
                for t in self.handler_types(fn, handler)
            ]
            for inner in stmt.body:
                self._walk_stmt(inner, fn, handlers + [caught_here], reraise, out, state)
            for handler in stmt.handlers:
                own = frozenset(self.handler_types(fn, handler))
                for inner in handler.body:
                    self._walk_stmt(inner, fn, handlers, own, out, state)
            for inner in [*stmt.orelse, *stmt.finalbody]:
                self._walk_stmt(inner, fn, handlers, reraise, out, state)
            return
        self._scan_exprs(stmt, fn, handlers, out, state)
        for _field, value in ast.iter_fields(stmt):
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.stmt):
                        self._walk_stmt(item, fn, handlers, reraise, out, state)
                    elif isinstance(item, ast.match_case):
                        for inner in item.body:
                            self._walk_stmt(inner, fn, handlers, reraise, out, state)

    def _scan_exprs(
        self,
        stmt: ast.stmt,
        fn: FunctionInfo,
        handlers: list[list[str]],
        out: set[str],
        state: dict[str, bool],
    ) -> None:
        """Escapes contributed by the calls/property reads in one statement."""
        exprs: list[ast.expr] = []
        for _field, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                exprs.append(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        exprs.append(item)
                    elif isinstance(item, (ast.withitem, ast.keyword)):
                        for _f2, v2 in ast.iter_fields(item):
                            if isinstance(v2, ast.expr):
                                exprs.append(v2)
        call_funcs: set[int] = set()
        nodes: list[ast.AST] = []
        for expr in exprs:
            for node in ast.walk(expr):
                nodes.append(node)
                if isinstance(node, ast.Call):
                    call_funcs.add(id(node.func))
        for node in nodes:
            if isinstance(node, ast.Call):
                resolution = self.graph.resolve_call(fn, node)
                if resolution.opaque:
                    state["open"] = True
                for target in resolution.targets:
                    if self.open.get(target, False):
                        state["open"] = True
                    for type_name in self.escapes.get(target, frozenset()):
                        if not self._absorbed(type_name, handlers):
                            out.add(type_name)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in call_funcs
            ):
                for prop in self.graph.resolve_property(fn, node):
                    for type_name in self.escapes.get(prop.qualname, frozenset()):
                        if not self._absorbed(type_name, handlers):
                            out.add(type_name)

    # ------------------------------------------------- producible-in-a-try

    def producible_in(self, fn: FunctionInfo, body: Sequence[ast.stmt]) -> tuple[set[str], bool]:
        """Exception types a try body can produce, and whether that set is closed.

        Over-approximates (no absorption by nested handlers inside the
        body), which is the safe direction for declaring a handler dead.
        """
        produced: set[str] = set()
        closed = True
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    if node.exc is None:
                        closed = False
                        continue
                    type_name = self.resolve_exception(fn, node.exc)
                    if type_name == _UNKNOWN:
                        closed = False
                    else:
                        produced.add(type_name)
                elif isinstance(node, ast.Call):
                    resolution = self.graph.resolve_call(fn, node)
                    if resolution.opaque:
                        closed = False
                    for target in resolution.targets:
                        if self.open.get(target, False):
                            closed = False
                        produced |= set(self.escapes.get(target, frozenset()))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    for prop in self.graph.resolve_property(fn, node):
                        if self.open.get(prop.qualname, False):
                            closed = False
                        produced |= set(self.escapes.get(prop.qualname, frozenset()))
        return produced, closed


def _is_public(graph: ProgramGraph, fn: FunctionInfo) -> bool:
    """Public API: no single-underscore segment between package and name."""
    parts = fn.qualname.split(".")
    for part in parts[1:]:
        if part.startswith("_") and not (part.startswith("__") and part.endswith("__")):
            return False
    return True


def _internal_error_classes(analysis: EscapeAnalysis, graph: ProgramGraph) -> set[str]:
    """Internal classes whose ancestry reaches ``Exception``."""
    return {
        qualname
        for qualname in graph.classes
        if "Exception" in analysis.ancestors(qualname)
    }


@register
class PublicBuiltinEscapePass(AnalysisPass):
    code = "THRA102"
    name = "exception-escape"
    summary = "builtin exception can escape a public function"

    def run(self, graph: ProgramGraph, config: AnalyzeConfig) -> List[Violation]:
        analysis = get_escape_analysis(graph)
        findings: list[Violation] = []
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            if not _is_public(graph, fn):
                continue
            for type_name in sorted(analysis.escapes[qualname]):
                if type_name in graph.classes or type_name in _EXEMPT_BUILTINS:
                    continue
                if type_name not in _BUILTIN_PARENTS:
                    continue
                if not analysis.is_subtype(type_name, "Exception"):
                    continue
                findings.append(
                    finding_at(
                        code=self.code,
                        message=(
                            f"builtin {type_name} can escape public function "
                            f"{fn.display}; raise a ReproError subclass instead"
                        ),
                        path=fn.path,
                        root=graph.root,
                        scope=fn.display,
                        label=type_name,
                        node=fn.node,
                    )
                )
        return findings


@register
class DeadHandlerPass(AnalysisPass):
    code = "THRA103"
    name = "dead-handler"
    summary = "except handler for a library error that its try body cannot raise"

    def run(self, graph: ProgramGraph, config: AnalyzeConfig) -> List[Violation]:
        analysis = get_escape_analysis(graph)
        error_classes = _internal_error_classes(analysis, graph)
        findings: list[Violation] = []
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Try):
                    continue
                produced, closed = analysis.producible_in(fn, node.body)
                if not closed:
                    continue
                for handler in node.handlers:
                    for caught in self.handler_types_of(analysis, fn, handler):
                        if caught not in error_classes:
                            continue
                        live = any(
                            analysis.is_subtype(t, caught) or analysis.is_subtype(caught, t)
                            for t in produced
                        )
                        if live:
                            continue
                        short = caught.rsplit(".", 1)[-1]
                        findings.append(
                            finding_at(
                                code=self.code,
                                message=(
                                    f"except {short} in {fn.display} can never fire: "
                                    "the try body raises no such error"
                                ),
                                path=fn.path,
                                root=graph.root,
                                scope=fn.display,
                                label=short,
                                node=handler,
                            )
                        )
        return findings

    @staticmethod
    def handler_types_of(
        analysis: EscapeAnalysis, fn: FunctionInfo, handler: ast.ExceptHandler
    ) -> list[str]:
        return [t for t in analysis.handler_types(fn, handler) if t != _CATCH_ALL]
